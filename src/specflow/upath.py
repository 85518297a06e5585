"""Parameterized families of unitary matrices.

A path is a *sampler* (a function of the parameter), not a stored array, so
adaptive quadrature and partition refinement can request arbitrary
resolution.  A path may also carry an *array sampler*, a function of a 1-D
array of parameters returning all their samples as one (n, dim, dim)
array; `UnitaryPath.samples` uses it, and stacks the scalar sampler where
there is none.  Phillips' refinement takes each round's parameters in such
calls.  Paths carry their interval, an optional analytic derivative,
a Schatten-order tag used to validate regularization orders, a closed flag,
and the interior parameters where the path is only C^0 (concatenation
joints); integrators split panels there.

Generator paths know their spectrum: `generator_path`, `geodesic_between`
and the caps `cap_into` / `cap_outof` diagonalise their generator once
(`eigh` of -iY, or for a principal logarithm Y = Log U the `eig_unitary`
pair of U itself) and sample e^{tY} = W e^{it theta} W* and its
derivative W i theta e^{it theta} W* from that eigenpair, with no matrix
exponential; their array sampler takes e^{it theta} over the outer product
of the parameters and theta.  `reversed()` keeps an array sampler, and
`concatenate` has one when both parts do.
"""

import numpy as np
# not called here; kept importable for code that traces or patches it
from scipy.linalg import expm  # noqa: F401

from .errors import (
    DimensionTooSmall,
    EndpointMismatch,
    NoLimitAtInfinity,
    NonUnitary,
    NotClosed,
    OutsideInterval,
    SpecflowError,
)
from .matcore import UNITARY_TOL, check_unitary, eig_unitary, schatten_norm

ENDPOINT_TOL = 1e-8
TAIL_TOL = 0.5


class UnitaryPath:
    """A family t -> U_t of unitary matrices over an interval.

    Parameters
    ----------
    sampler : callable t -> (dim, dim) complex ndarray
    interval : (a, b) with a < b; b may be np.inf (compactify before
        handing to the spectral-flow engines), or (-inf, inf).
    derivative : optional callable t -> ndarray, the analytic U'_t.
        When absent, `.derivative` falls back to central differences.
    schatten_order : the p for which U_t - Id is treated as p-Schatten;
        engines validate their regularization order against it.
    closed : a flag that U_a = U_b (loops).  No engine reads it: the loop
        engines verify the ends themselves with `check_closed()`.
    breakpoints : interior parameters where smoothness may fail.
    check : validate unitarity of every sample; a checked sample costs one
        extra matmul (a Frobenius-norm defect), not an SVD.  Disable only
        where the sampler is unitary by construction.
    array_sampler : optional callable, a 1-D array of n parameters ->
        (n, dim, dim) complex ndarray, the samples at all of them.  It
        must return what `sampler` returns at each parameter; `samples`
        calls it once per array instead of `sampler` once per parameter.
    """

    def __init__(self, sampler, interval=(0.0, 1.0), derivative=None,
                 schatten_order=1.0, closed=False, breakpoints=(),
                 dim=None, check=True, array_sampler=None):
        self._sampler = sampler
        self._array_sampler = array_sampler
        self.interval = (float(interval[0]), float(interval[1]))
        if not self.interval[0] < self.interval[1]:
            raise OutsideInterval(f"empty interval {interval}")
        self._derivative = derivative
        self.schatten_order = float(schatten_order)
        self.closed = bool(closed)
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        for b in self.breakpoints:
            if not (self.interval[0] < b < self.interval[1]):
                raise OutsideInterval(f"breakpoint {b} outside {interval}")
        self._check = bool(check)
        if dim is None:
            probe = np.asarray(sampler(self._probe_point()), dtype=complex)
            dim = probe.shape[0]
        self.dim = int(dim)

    def _probe_point(self):
        a, b = self.interval
        if np.isfinite(a):
            return a
        if np.isfinite(b):
            return b
        return 0.0

    @property
    def finite(self):
        return np.isfinite(self.interval[0]) and np.isfinite(self.interval[1])

    def _contains(self, t):
        """Whether t, or each entry of an array t, lies in the interval,
        with a 1e-12 allowance at finite ends."""
        a, b = self.interval
        return (a - 1e-12 <= t) & (t <= b + 1e-12)

    def __call__(self, t):
        if not self._contains(t):
            raise OutsideInterval(f"parameter {t} outside {self.interval}")
        U = np.asarray(self._sampler(t), dtype=complex)
        if self._check:
            U = check_unitary(U)
        return U

    def samples(self, ts):
        """The samples at the parameters ts (a 1-D array) as one
        (len(ts), dim, dim) array: one array-sampler call, or the scalar
        sampler stacked where there is none, and with `check` one stacked
        unitarity check.  Each sample equals `self(t)`."""
        ts = np.asarray(ts, dtype=float)
        outside = ~self._contains(ts)
        if outside.any():
            raise OutsideInterval(
                f"parameter {ts[outside][0]} outside {self.interval}")
        if self._array_sampler is not None:
            U = np.asarray(self._array_sampler(ts), dtype=complex)
        else:
            U = np.array([self._sampler(t) for t in ts], dtype=complex)
            U = U.reshape(len(ts), self.dim, self.dim)
        if self._check:
            U = check_unitary(U)
        return U

    def derivative(self, t):
        """U'_t: analytic when available, else 4th-order central difference.

        Near the interval ends the stencil degrades to a 2nd-order one-sided
        difference; quadrature rules only sample interior nodes, so this
        path is rarely taken.
        """
        if not self._contains(t):
            raise OutsideInterval(f"parameter {t} outside {self.interval}")
        if self._derivative is not None:
            return np.asarray(self._derivative(t), dtype=complex)
        a, b = self.interval
        h = 1e-5 * ((b - a) if self.finite else 1.0)
        if t - 2 * h >= a and t + 2 * h <= b:
            return (-self(t + 2 * h) + 8 * self(t + h)
                    - 8 * self(t - h) + self(t - 2 * h)) / (12 * h)
        if t + h > b:
            return (self(t) - self(t - h)) / h
        if t - h < a:
            return (self(t + h) - self(t)) / h
        return (self(t + h) - self(t - h)) / (2 * h)

    def check_closed(self):
        """Raise NotClosed unless U_a = U_b within ENDPOINT_TOL (operator
        norm)."""
        if not self.finite:
            raise NotClosed("unbounded interval; compactify first")
        a, b = self.interval
        gap = np.linalg.norm(self(a) - self(b), ord=2)
        if gap > ENDPOINT_TOL:
            raise NotClosed(f"endpoint gap {gap:.3e} exceeds {ENDPOINT_TOL}")

    def reversed(self):
        """The same trace traversed backwards (finite intervals only)."""
        a, b = self.interval
        deriv = array_sampler = None
        if self._derivative is not None:
            deriv = lambda t: -np.asarray(self._derivative(a + b - t), dtype=complex)
        if self._array_sampler is not None:
            array_sampler = lambda ts: self._array_sampler(a + b - ts)
        return UnitaryPath(
            lambda t: self._sampler(a + b - t), interval=(a, b),
            derivative=deriv, schatten_order=self.schatten_order,
            closed=self.closed,
            breakpoints=tuple(a + b - c for c in self.breakpoints),
            dim=self.dim, check=self._check, array_sampler=array_sampler,
        )


def constant_path(U):
    U = check_unitary(U)
    dim = U.shape[0]
    return UnitaryPath(lambda t: U,
                       derivative=lambda t: np.zeros((dim, dim), dtype=complex),
                       schatten_order=1.0, closed=True, dim=dim)


def model_loop(k, dim):
    """The normalizing loop Id - P + P e^{2 pi i t} with P of rank k.

    P projects onto the first k coordinates; the loop winds each of the k
    active eigenvalues once around the circle, so its spectral flow is k.
    k and dim must be integers (integer-valued floats are accepted).
    """
    if not (float(k).is_integer() and float(dim).is_integer()):
        raise SpecflowError(f"model loop needs integer k and dim, got "
                            f"k={k}, dim={dim}")
    k, dim = int(k), int(dim)
    if k < 1:
        raise DimensionTooSmall(f"rank k must be >= 1, got {k}")
    if dim < k:
        raise DimensionTooSmall(f"dim {dim} < rank {k}")
    diag_mask = np.arange(dim) < k

    def sampler(t):
        d = np.where(diag_mask, np.exp(2j * np.pi * t), 1.0)
        return np.diag(d)

    def deriv(t):
        d = np.where(diag_mask, 2j * np.pi * np.exp(2j * np.pi * t), 0.0)
        return np.diag(d)

    return UnitaryPath(sampler, interval=(0.0, 1.0), derivative=deriv,
                       schatten_order=1.0, closed=True, dim=dim, check=False)


def geodesic_between(U0, U1):
    """The geodesic U0 e^{tY}, Y = Log(U0* U1), from U0 to U1 on [0, 1].

    Uses the principal logarithm, so an eigenvalue -1 of U0* U1 travels
    counterclockwise (through angle +pi).
    """
    U0 = check_unitary(U0)
    U1 = check_unitary(U1)
    if U0.shape != U1.shape:
        raise EndpointMismatch(f"shapes {U0.shape} vs {U1.shape}")
    return _spectral_path(*eig_unitary(U0.conj().T @ U1), base=U0)


def _spectral_path(theta, W, base=None):
    """The path base * e^{tY}, t in [0, 1], for Y = W diag(i theta) W* with
    W unitary and theta real: each sample is base * W e^{it theta} W* and
    each derivative base * W i theta e^{it theta} W*; the array sampler
    takes e^{it theta} for all parameters at once."""
    Wh = W.conj().T
    itheta = 1j * np.asarray(theta, dtype=float)
    if base is not None:
        base = np.asarray(base, dtype=complex)
    dim = W.shape[0]

    def sampler(t):
        U = (W * np.exp(t * itheta)) @ Wh
        return U if base is None else base @ U

    def array_sampler(ts):
        U = (W * np.exp(np.multiply.outer(ts, itheta))[:, None, :]) @ Wh
        return U if base is None else base @ U

    def deriv(t):
        dU = (W * (itheta * np.exp(t * itheta))) @ Wh
        return dU if base is None else base @ dU

    return UnitaryPath(sampler, derivative=deriv, schatten_order=1.0,
                       closed=False, dim=dim, check=False,
                       array_sampler=array_sampler)


def generator_path(Y, base=None):
    """The path base * e^{tY}, t in [0, 1], for a fixed skew-Hermitian
    generator Y.

    Y is diagonalised once (`eigh` of the Hermitian -iY) and every sample
    is read from that eigenpair.  Raises NonUnitary unless
    ||Y + Y*|| <= UNITARY_TOL * max(1, ||Y||) in Frobenius norm.
    """
    Y = np.asarray(Y, dtype=complex)
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
        raise NonUnitary(f"generator must be square, got shape {Y.shape}")
    defect = np.linalg.norm(Y + Y.conj().T)
    if not defect <= UNITARY_TOL * max(1.0, np.linalg.norm(Y)):
        raise NonUnitary(f"generator is not skew-Hermitian: ||Y + Y*|| = "
                         f"{defect:.3e}")
    theta, W = np.linalg.eigh(-1j * Y)
    return _spectral_path(theta, W, base=base)


def cap_into(U):
    """Geodesic cap Id -> U along e^{tY}, Y the principal log of U."""
    return _spectral_path(*eig_unitary(U))


def cap_outof(U):
    """Geodesic cap U -> Id along e^{(1-t)Y}, Y the principal log of U:
    `cap_into(U)` run backwards."""
    return cap_into(U).reversed()


def concatenate(a, b):
    """Traverse a then b at double speed on [0, 1].

    Requires a's end value to match b's start value; the joint at t = 1/2
    becomes a breakpoint (the result is C^0 there, generally not C^1).
    The result has an array sampler when both parts have one.
    """
    if not (a.finite and b.finite):
        raise EndpointMismatch("concatenate requires finite intervals")
    if a.dim != b.dim:
        raise EndpointMismatch(f"dims {a.dim} vs {b.dim}")
    gap = np.linalg.norm(a(a.interval[1]) - b(b.interval[0]), ord=2)
    if gap > ENDPOINT_TOL:
        raise EndpointMismatch(f"joint gap {gap:.3e} exceeds {ENDPOINT_TOL}")
    a0, a1 = a.interval
    b0, b1 = b.interval
    la, lb = a1 - a0, b1 - b0

    def sampler(t):
        if t < 0.5:
            return a(a0 + 2.0 * t * la)
        return b(b0 + (2.0 * t - 1.0) * lb)

    def deriv(t):
        if t < 0.5:
            return 2.0 * la * a.derivative(a0 + 2.0 * t * la)
        return 2.0 * lb * b.derivative(b0 + (2.0 * t - 1.0) * lb)

    def array_sampler(ts):
        U = np.empty((len(ts), a.dim, a.dim), dtype=complex)
        first = ts < 0.5
        U[first] = a.samples(a0 + 2.0 * ts[first] * la)
        U[~first] = b.samples(b0 + (2.0 * ts[~first] - 1.0) * lb)
        return U

    joints = [0.5]
    joints += [(c - a0) / la / 2.0 for c in a.breakpoints]
    joints += [0.5 + (c - b0) / lb / 2.0 for c in b.breakpoints]
    closed = np.linalg.norm(a(a0) - b(b1), ord=2) <= ENDPOINT_TOL

    batched = a._array_sampler is not None and b._array_sampler is not None
    return UnitaryPath(sampler, interval=(0.0, 1.0), derivative=deriv,
                       schatten_order=max(a.schatten_order, b.schatten_order),
                       closed=closed, breakpoints=joints, dim=a.dim,
                       check=False,
                       array_sampler=array_sampler if batched else None)


def _tail_check(path, probes):
    """Verify ||U_s - Id||_p decreases monotonically along the probes and
    ends below TAIL_TOL."""
    p = path.schatten_order
    eye = np.eye(path.dim)
    dists = [schatten_norm(path(s) - eye, max(p, 1.0)) for s in probes]
    drops = all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
    if not (drops and dists[-1] < TAIL_TOL):
        raise NoLimitAtInfinity(
            f"tail distances {dists} at probes {probes} do not settle to Id")


def compactify(path, probes=(1e2, 1e3, 1e4)):
    """Reparameterize a path on [0, inf) (or R) to [0, 1].

    For [0, inf) the substitution is t = 1 - (1 + s)^(-1/2); for R it is
    the logistic t = 1/(1 + e^{-s}).  The integrands of the winding integrals
    transform with the Jacobian, so all spectral-flow values are unchanged.
    The path must approach Id at infinity; probe samples must show monotone
    Schatten-norm decrease, else NoLimitAtInfinity.
    """
    if path.finite:
        return path
    a, b = path.interval
    dim = path.dim
    eye = np.eye(dim)

    if a == 0.0 and b == np.inf:
        _tail_check(path, probes)

        def g(t):
            return (1.0 - t) ** -2.0 - 1.0

        def gprime(t):
            return 2.0 * (1.0 - t) ** -3.0

        def at_infinity(t):
            return t >= 1.0

        bps = tuple(1.0 - (1.0 + c) ** -0.5 for c in path.breakpoints)
    elif a == -np.inf and b == np.inf:
        _tail_check(path, probes)
        _tail_check(path, tuple(-s for s in probes))

        def g(t):
            return np.log(t / (1.0 - t))

        def gprime(t):
            return 1.0 / (t * (1.0 - t))

        def at_infinity(t):
            return t <= 0.0 or t >= 1.0

        bps = tuple(1.0 / (1.0 + np.exp(-c)) for c in path.breakpoints)
    else:
        raise OutsideInterval(f"cannot compactify interval {path.interval}")

    def sampler(t):
        return eye if at_infinity(t) else path(g(t))

    def deriv(t):
        if at_infinity(t):
            return np.zeros((dim, dim), dtype=complex)
        return gprime(t) * path.derivative(g(t))

    start_gap = np.linalg.norm(sampler(0.0) - eye, ord=2)
    return UnitaryPath(sampler, interval=(0.0, 1.0), derivative=deriv,
                       schatten_order=path.schatten_order,
                       closed=start_gap <= ENDPOINT_TOL,
                       breakpoints=bps, dim=dim, check=False)
