"""Compactly supported potentials for the scattering solvers.

Each class states the space dimension it lives in as the class constant
`dimension`: 1 for `Potential1D`, 3 for `RadialPotential`.  1D potentials
are stored as piecewise-constant segments, for which the transfer matrices
are exact; callables are discretized into fine segments.  Radial potentials
are potentials on R^3 that depend on r = |x| only, and their moments over
R^3 are 4 pi times the radial moments with the weight r^2.

A radial potential is a tuple of constant shells,
`RadialPotential(shells=((0, r1, v1), (r1, r2, v2), ...))`, contiguous
from the origin to the support radius.  `RadialPotential.square_well`
builds one shell, and `RadialPotential.from_callable` samples a profile
at the midpoints of CALLABLE_SHELLS equal shells, as
`Potential1D.from_callable` samples segments.  The radial solver gives
every radial potential its phase shifts and its zero-energy solution in
closed form, one pair of Riccati-Bessel functions per shell, and its
moments are exact sums over the shells.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import SpecflowError

# shells of RadialPotential.from_callable
CALLABLE_SHELLS = 100


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


def _piece_values(edges, values, x):
    """V at x, a float or an array, for the step function that is
    values[i] on [edges[i - 1], edges[i]) of the sorted edges: values[0]
    below the first edge and values[-1] from the last on.  One binary
    search over the edges, not a pass per piece."""
    out = values[np.searchsorted(edges, np.asarray(x, dtype=float),
                                 side="right")]
    return float(out) if out.ndim == 0 else out


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

    @cached_property
    def _steps(self):
        """The step function of `__call__`: each segment's start and end,
        the end moved back to the next start where the two overlap, and
        zero below, between and above the segments."""
        x0, x1, v = np.array(self.segments, dtype=float).T
        edges = np.column_stack([x0, np.minimum(x1, np.append(x0[1:],
                                                              np.inf))])
        values = np.zeros(2 * len(v) + 1)
        values[1::2] = v
        return edges.ravel(), values

    def __call__(self, x):
        """V at x, a float or an array of points: the value of the last
        segment [x0, x1) that holds x, and zero outside the segments."""
        return _piece_values(*self._steps, x)

    def integral(self):
        """Integral of V over the line."""
        return float(sum(v * (x1 - x0) for x0, x1, v in self.segments))


@dataclass(frozen=True)
class RadialPotential:
    """Real radial potential on R^3, zero from the support radius on.

    shells : tuple of (r0, r1, v) with r0 < r1, contiguous and sorted, the
        first from r0 = 0; the last r1 is the support radius.
    """

    dimension = 3
    shells: tuple

    def __post_init__(self):
        shells = tuple((float(a), float(b), float(v))
                       for a, b, v in self.shells)
        _check_pieces(shells, "shell")
        if shells[0][0] != 0.0:
            raise SpecflowError(f"the first shell must start at r = 0, "
                                f"got {shells[0][0]}")
        object.__setattr__(self, "shells", shells)

    @classmethod
    def square_well(cls, depth, radius=1.0):
        """Attractive well of the given depth on r < radius: one shell."""
        d = float(depth)
        if not np.isfinite(d):
            raise SpecflowError(f"well depth must be finite, got {depth}")
        return cls(shells=((0.0, float(radius), -d),))

    @classmethod
    def from_callable(cls, f, radius):
        """f on [0, radius) as CALLABLE_SHELLS equal shells, each holding f
        at its midpoint; neighbours of equal value merge into one shell.
        f is called once, on the array of midpoints, and returns an array
        of their shape or a scalar for a constant potential."""
        R = float(radius)
        if not (np.isfinite(R) and R > 0):
            raise SpecflowError(f"support radius must be finite and "
                                f"positive, got {radius}")
        edges = np.linspace(0.0, R, CALLABLE_SHELLS + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        vals = np.broadcast_to(np.asarray(f(mids), dtype=float), mids.shape)
        # the first shell of each run of equal values
        first = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
        ends = np.r_[edges[first[1:]], R]
        return cls(shells=tuple(zip(edges[first].tolist(), ends.tolist(),
                                    vals[first].tolist())))

    @property
    def radius(self):
        return self.shells[-1][1]

    @cached_property
    def _steps(self):
        """The shell ends, and the shell values followed by the zero
        beyond the radius."""
        shells = np.array(self.shells)
        return shells[:, 1], np.append(shells[:, 2], 0.0)

    def __call__(self, r):
        """V at r, a float or an array of radii; zero from the radius on."""
        return _piece_values(*self._steps, r)

    def _moment(self, power):
        """Integral of V^power over R^3, an exact sum over the shells."""
        return float(4.0 * np.pi / 3.0 * sum(
            v ** power * (r1 ** 3 - r0 ** 3) for r0, r1, v in self.shells))

    def integral(self):
        """Integral of V over R^3."""
        return self._moment(1)

    def integral_sq(self):
        """Integral of V^2 over R^3."""
        return self._moment(2)
