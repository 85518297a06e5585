"""Compactly supported potentials for the scattering solvers.

Each class states the space dimension it lives in as the class constant
`dimension`: 1 for `Potential1D`, 3 for `RadialPotential`.  1D potentials
are stored as piecewise-constant segments, for which the transfer matrices
are exact; callables are discretized into fine segments.  Radial potentials
are potentials on R^3 that depend on r = |x| only; they keep their callable
plus support radius, and their moments over R^3 are 4 pi times the radial
moments with the weight r^2.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from ..errors import SpecflowError


@dataclass(frozen=True)
class Potential1D:
    """Real potential on the line, zero outside [x_left, x_right].

    segments : tuple of (x0, x1, v) with x0 < x1, contiguous and sorted.
    """

    dimension = 1
    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise SpecflowError("potential needs at least one segment")
        if not np.all(np.isfinite(np.asarray(self.segments, dtype=float))):
            raise SpecflowError("segment ends and values must be finite")
        xs = [s[0] for s in self.segments] + [self.segments[-1][1]]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise SpecflowError("segments must be sorted with positive length")
        for (x0, x1, v), (y0, y1, w) in zip(self.segments, self.segments[1:]):
            if abs(x1 - y0) > 1e-12:
                raise SpecflowError("segments must be contiguous")

    @classmethod
    def square_well(cls, depth, halfwidth=1.0):
        """Attractive well of the given depth on [-halfwidth, halfwidth]."""
        return cls(segments=((-halfwidth, halfwidth, -float(depth)),))

    @classmethod
    def from_callable(cls, f, support, n_segments=2000):
        """Discretize a callable into midpoint-sampled constant segments."""
        a, b = support
        edges = np.linspace(a, b, n_segments + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        vals = np.asarray([float(f(x)) for x in mids])
        segs = tuple((float(x0), float(x1), float(v))
                     for x0, x1, v in zip(edges[:-1], edges[1:], vals))
        return cls(segments=segs)

    @property
    def support(self):
        return (self.segments[0][0], self.segments[-1][1])

    @cached_property
    def segment_arrays(self):
        """Lengths and values of the segments as read-only float arrays,
        built on first use and kept for the potential's lifetime."""
        x0, x1, v = np.array(self.segments, dtype=float).T
        lengths = x1 - x0
        for a in (lengths, v):
            a.flags.writeable = False
        return lengths, v

    @property
    def halfwidth(self):
        a, b = self.support
        return max(abs(a), abs(b))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for x0, x1, v in self.segments:
            out = np.where((x >= x0) & (x < x1), v, out)
        return out if out.ndim else float(out)

    def integral(self):
        """Integral of V over the line."""
        return float(sum(v * (x1 - x0) for x0, x1, v in self.segments))


@dataclass(frozen=True)
class RadialPotential:
    """Real radial potential on R^3, zero outside r > radius.

    v_of_r : callable evaluated on a whole array of radii at once, all in
        [0, radius), returning an array of the same shape (or a scalar for a
        constant potential); the moment quadratures also call it with a
        single float.  Write it with numpy operations (np.where, np.interp,
        ...) rather than Python conditionals.
    """

    dimension = 3
    v_of_r: object
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise SpecflowError(f"support radius must be finite and "
                                f"positive, got {self.radius}")

    @classmethod
    def square_well(cls, depth, radius=1.0):
        d = float(depth)
        if not np.isfinite(d):
            raise SpecflowError(f"well depth must be finite, got {depth}")
        R = float(radius)
        return cls(v_of_r=lambda r: np.where(r < R, -d, 0.0), radius=R)

    def __call__(self, r):
        """V at r (a float or an array of radii), with one call of v_of_r
        on the radii inside the support; zero from the radius on."""
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        inside = r < self.radius
        out[inside] = self.v_of_r(r[inside])
        return float(out) if out.ndim == 0 else out

    def integral(self):
        """Integral of V over R^3."""
        val, _ = quad(lambda r: self.v_of_r(r) * r ** 2, 0.0, self.radius,
                      limit=400)
        return float(4.0 * np.pi * val)

    def integral_sq(self):
        """Integral of V^2 over R^3."""
        val, _ = quad(lambda r: self.v_of_r(r) ** 2 * r ** 2, 0.0,
                      self.radius, limit=400)
        return float(4.0 * np.pi * val)
