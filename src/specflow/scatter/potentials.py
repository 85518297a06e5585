"""Compactly supported potentials for the scattering solvers.

Each class states the space dimension it lives in as the class constant
`dimension`: 1 for `Potential1D`, 3 for `RadialPotential`.  1D potentials
are stored as piecewise-constant segments, for which the transfer matrices
are exact; callables are discretized into fine segments.  Radial potentials
are potentials on R^3 that depend on r = |x| only, and their moments over
R^3 are 4 pi times the radial moments with the weight r^2.

A radial potential is either a callable plus support radius, or a tuple
of constant shells, `RadialPotential(shells=((0, r1, v1), (r1, r2, v2),
...))`, contiguous from the origin to the support radius;
`RadialPotential.square_well` builds one shell.  The radial solver gives
a shell potential its phase shifts in closed form, one pair of
Riccati-Bessel functions per shell, and its moments are exact sums over
the shells.  A callable (a sampled or smooth profile) has no closed form:
its phase shifts come from Numerov integration and its moments from
quadrature.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from ..errors import SpecflowError


def _check_pieces(pieces, kind):
    """Constant pieces (x0, x1, v): at least one, finite, each of positive
    length, sorted and contiguous."""
    if not pieces:
        raise SpecflowError(f"potential needs at least one {kind}")
    if not np.all(np.isfinite(np.asarray(pieces, dtype=float))):
        raise SpecflowError(f"{kind} ends and values must be finite")
    xs = [p[0] for p in pieces] + [pieces[-1][1]]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise SpecflowError(f"{kind}s must be sorted with positive length")
    if any(abs(a[1] - b[0]) > 1e-12 for a, b in zip(pieces, pieces[1:])):
        raise SpecflowError(f"{kind}s must be contiguous")


@dataclass(frozen=True)
class Potential1D:
    """Real potential on the line, zero outside [x_left, x_right].

    segments : tuple of (x0, x1, v) with x0 < x1, contiguous and sorted.
    """

    dimension = 1
    segments: tuple

    def __post_init__(self):
        _check_pieces(self.segments, "segment")

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

    Give either v_of_r and radius, or shells.

    v_of_r : callable evaluated on a whole array of radii at once, all in
        [0, radius), returning an array of the same shape (or a scalar for a
        constant potential); the moment quadratures also call it with a
        single float.  Write it with numpy operations (np.where, np.interp,
        ...) rather than Python conditionals.
    shells : tuple of (r0, r1, v) with r0 < r1, contiguous and sorted, the
        first from r0 = 0; the last r1 is the radius, and v_of_r is built
        from the shells.
    """

    dimension = 3
    v_of_r: object = None
    radius: float = None
    shells: tuple = None

    def __post_init__(self):
        if self.shells is not None:
            self._set_from_shells()
        elif self.v_of_r is None:
            raise SpecflowError("a radial potential needs v_of_r or shells")
        if not (self.radius is not None and np.isfinite(self.radius)
                and self.radius > 0):
            raise SpecflowError(f"support radius must be finite and "
                                f"positive, got {self.radius}")

    def _set_from_shells(self):
        if self.v_of_r is not None:
            raise SpecflowError("give v_of_r or shells, not both")
        shells = tuple((float(a), float(b), float(v))
                       for a, b, v in self.shells)
        _check_pieces(shells, "shell")
        if shells[0][0] != 0.0:
            raise SpecflowError(f"the first shell must start at r = 0, "
                                f"got {shells[0][0]}")
        radius = shells[-1][1]
        if self.radius is not None and self.radius != radius:
            raise SpecflowError(f"radius {self.radius} is not the last "
                                f"shell's end {radius}")
        edges = np.array([s[1] for s in shells[:-1]])
        values = np.array([s[2] for s in shells])
        object.__setattr__(self, "shells", shells)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "v_of_r", lambda r: values[
            np.searchsorted(edges, r, side="right")])

    @classmethod
    def square_well(cls, depth, radius=1.0):
        """Attractive well of the given depth on r < radius: one shell."""
        d = float(depth)
        if not np.isfinite(d):
            raise SpecflowError(f"well depth must be finite, got {depth}")
        return cls(shells=((0.0, float(radius), -d),))

    def __call__(self, r):
        """V at r (a float or an array of radii), with one call of v_of_r
        on the radii inside the support; zero from the radius on."""
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        inside = r < self.radius
        out[inside] = self.v_of_r(r[inside])
        return float(out) if out.ndim == 0 else out

    def _moment(self, power):
        """Integral of V^power over R^3: an exact sum over the shells, or
        quadrature of a callable."""
        if self.shells is not None:
            return float(4.0 * np.pi / 3.0 * sum(
                v ** power * (r1 ** 3 - r0 ** 3) for r0, r1, v in self.shells))
        val, _ = quad(lambda r: self.v_of_r(r) ** power * r ** 2, 0.0,
                      self.radius, limit=400)
        return float(4.0 * np.pi * val)

    def integral(self):
        """Integral of V over R^3."""
        return self._moment(1)

    def integral_sq(self):
        """Integral of V^2 over R^3."""
        return self._moment(2)
