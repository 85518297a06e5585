"""Parameterized families of unitary matrices.

A path is a *sampler* (a function of the parameter), not a stored array, so
adaptive quadrature and partition refinement can request arbitrary
resolution.  A path has one sampler, scalar (t -> (dim, dim)) or array (a
1-D array of n parameters -> (n, dim, dim)), and at most one analytic
derivative of either form; the other form is derived.  Phillips'
refinement takes each round's parameters, and the winding quadrature each
round's nodes, in one `samples` / `derivatives` call.  Paths carry their
interval, a Schatten-order tag used to validate regularization orders, a
closed flag, and the interior parameters where the path is only C^0
(concatenation joints); integrators split panels there.

Generator paths know their spectrum: `generator_path`, `geodesic_between`
and the caps `cap_into` / `cap_outof` diagonalise their generator once
(`eigh` of -iY, or for a principal logarithm Y = Log U the `eig_unitary`
pair of U itself) and sample e^{tY} = W e^{it theta} W* and its
derivative W i theta e^{it theta} W* from that eigenpair, with no matrix
exponential, taking e^{it theta} over the outer product of the parameters
and theta.  `reversed()` and `concatenate` write an array sampler and an
array derivative over the `samples` and `derivatives` of their sources.

No sampler takes a matrix exponential, and the module imports no scipy.
`upath.expm` still resolves, to `scipy.linalg.expm` imported at the
lookup, for code that looks the name up here: the benchmark's tracer
does, and finds nothing to wrap, since the name is never stored in the
module, so its attributes read the same before and after a traced pass.
"""

import numpy as np

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
# compactify's tail check: the probes, TAIL_PER_DECADE to a decade on
# sqrt(2) [1e2, 1e5), and the bound on the distance to Id in the last decade
TAIL_PER_DECADE = 8
TAIL_PROBES = np.sqrt(2.0) * np.geomspace(
    1e2, 1e5, 3 * TAIL_PER_DECADE + 1)[:-1]
TAIL_TOL = 0.5


class UnitaryPath:
    """A family t -> U_t of unitary matrices over an interval.

    Parameters
    ----------
    sampler : callable t -> (dim, dim) complex ndarray.  Give exactly one
        of `sampler` and `array_sampler`.
    interval : (a, b) with a < b; b may be np.inf (compactify before
        handing to the spectral-flow engines), or (-inf, inf).
    derivative : optional callable t -> ndarray, the analytic U'_t.
        Give at most one of `derivative` and `array_derivative`; with
        neither, `.derivative` falls back to central differences.
    schatten_order : the p for which U_t - Id is treated as p-Schatten;
        engines validate their regularization order against it.
    closed : a flag that U_a = U_b (loops).  No engine reads it: the loop
        engines verify the ends themselves with `check_closed()`.
    breakpoints : interior parameters where smoothness may fail.
    check : validate unitarity of every sample; a checked sample costs one
        extra matmul (a Frobenius-norm defect), not an SVD.  Disable only
        where the sampler is unitary by construction.
    array_sampler : callable, a 1-D array of n parameters -> (n, dim, dim)
        complex ndarray, the samples at all of them; `path(t)` reads it at
        `np.array([t])`, and `samples` stacks a scalar `sampler`.
    array_derivative : optional callable, likewise the analytic U' at an
        array of parameters.
    """

    def __init__(self, sampler=None, interval=(0.0, 1.0), derivative=None,
                 schatten_order=1.0, closed=False, breakpoints=(),
                 dim=None, check=True, array_sampler=None,
                 array_derivative=None):
        if (sampler is None) == (array_sampler is None):
            raise SpecflowError("a path takes exactly one of sampler and "
                                "array_sampler")
        if derivative is not None and array_derivative is not None:
            raise SpecflowError("a path takes at most one of derivative and "
                                "array_derivative")
        self._sampler = sampler
        self._array_sampler = array_sampler
        self._derivative = derivative
        self._array_derivative = array_derivative
        self.interval = (float(interval[0]), float(interval[1]))
        if not self.interval[0] < self.interval[1]:
            raise OutsideInterval(f"empty interval {interval}")
        self.schatten_order = float(schatten_order)
        self.closed = bool(closed)
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        for b in self.breakpoints:
            if not (self.interval[0] < b < self.interval[1]):
                raise OutsideInterval(f"breakpoint {b} outside {interval}")
        self._check = bool(check)
        if dim is None:
            t = self._probe_point()
            dim = np.shape(array_sampler(np.array([t]))[0] if sampler is None
                           else sampler(t))[0]
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
        if self._sampler is None:
            return self.samples(np.array([t]))[0]
        # a scalar sampler is called directly, not through `samples`: a
        # one-point call through `samples` costs about three times as much
        # (15 us against 5 us on a dim-3 path, BLAS on one thread), and
        # routing these calls there made the dense-loop benchmark's winding
        # solves 7-25% slower
        if not self._contains(t):
            raise OutsideInterval(f"parameter {t} outside {self.interval}")
        U = np.asarray(self._sampler(t), dtype=complex)
        if self._check:
            U = check_unitary(U)
        return U

    def _inside(self, ts):
        """The parameters ts as a float array, raising OutsideInterval on
        the first one outside the interval."""
        ts = np.asarray(ts, dtype=float)
        outside = ~self._contains(ts)
        if outside.any():
            raise OutsideInterval(
                f"parameter {ts[outside][0]} outside {self.interval}")
        return ts

    def _evaluate(self, ts):
        """The samples at the parameters ts (a 1-D array), unchecked, as
        one (len(ts), dim, dim) array: one array-sampler call, or the
        scalar sampler stacked.  For callers that hand them to
        `eig_unitary`, whose own check is then the one check."""
        ts = self._inside(ts)
        if self._array_sampler is not None:
            return np.asarray(self._array_sampler(ts), dtype=complex)
        U = np.array([self._sampler(t) for t in ts], dtype=complex)
        return U.reshape(len(ts), self.dim, self.dim)

    def samples(self, ts):
        """The samples at the parameters ts (a 1-D array) as one
        (len(ts), dim, dim) array, `_evaluate` with, under `check`, one
        stacked unitarity check.  Each sample equals `self(t)`."""
        U = self._evaluate(ts)
        return check_unitary(U) if self._check else U

    def derivative(self, t):
        """U'_t: analytic when available (an array derivative read at
        `np.array([t])`), else 4th-order central difference.

        Near the interval ends the stencil degrades to a 2nd-order one-sided
        difference; quadrature rules only sample interior nodes, so this
        path is rarely taken.
        """
        if self._array_derivative is not None:
            return self.derivatives(np.array([t]))[0]
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

    def derivatives(self, ts):
        """The derivatives at the parameters ts (a 1-D array) as one
        (len(ts), dim, dim) array: one array-derivative call, or
        `.derivative` stacked (with its central-difference fallback).
        Each equals `self.derivative(t)`."""
        ts = self._inside(ts)
        if self._array_derivative is not None:
            return np.asarray(self._array_derivative(ts), dtype=complex)
        dU = np.array([self.derivative(t) for t in ts], dtype=complex)
        return dU.reshape(len(ts), self.dim, self.dim)

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
        """The same trace traversed backwards (finite intervals only), read
        off the source's (checked) samples and analytic derivatives."""
        a, b = self.interval
        array_derivative = None
        if self._derivative is not None or self._array_derivative is not None:
            array_derivative = lambda ts: -self.derivatives(a + b - ts)
        return UnitaryPath(
            array_sampler=lambda ts: self.samples(a + b - ts),
            interval=(a, b), array_derivative=array_derivative,
            schatten_order=self.schatten_order, closed=self.closed,
            breakpoints=tuple(a + b - c for c in self.breakpoints),
            dim=self.dim, check=False,
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
    W unitary and theta real: the samples base * W e^{it theta} W* and
    derivatives base * W i theta e^{it theta} W*, with e^{it theta} taken
    for all parameters at once."""
    Wh = W.conj().T
    itheta = 1j * np.asarray(theta, dtype=float)
    if base is not None:
        base = np.asarray(base, dtype=complex)

    def array_sampler(ts):
        U = (W * np.exp(np.multiply.outer(ts, itheta))[:, None, :]) @ Wh
        return U if base is None else base @ U

    def array_deriv(ts):
        rates = itheta * np.exp(np.multiply.outer(ts, itheta))
        dU = (W * rates[:, None, :]) @ Wh
        return dU if base is None else base @ dU

    return UnitaryPath(array_sampler=array_sampler,
                       array_derivative=array_deriv, schatten_order=1.0,
                       closed=False, dim=W.shape[0], check=False)


def generator_path(Y):
    """The path e^{tY}, t in [0, 1], for a fixed skew-Hermitian generator
    Y.

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
    return _spectral_path(*np.linalg.eigh(-1j * Y))


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
    Its samples and derivatives are those of the parts, the derivatives
    scaled by 2 la and 2 lb for parts of lengths la and lb.
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

    def joined(of_a, of_b):
        def f(ts):
            out = np.empty((len(ts), a.dim, a.dim), dtype=complex)
            first = ts < 0.5
            # a part no parameter falls in is not called: the 1D sweep's
            # kernel costs about 0.16 ms even on an empty array
            if first.any():
                out[first] = of_a(a0 + 2.0 * ts[first] * la)
            if not first.all():
                out[~first] = of_b(b0 + (2.0 * ts[~first] - 1.0) * lb)
            return out
        return f

    joints = [0.5]
    joints += [(c - a0) / la / 2.0 for c in a.breakpoints]
    joints += [0.5 + (c - b0) / lb / 2.0 for c in b.breakpoints]
    closed = np.linalg.norm(a(a0) - b(b1), ord=2) <= ENDPOINT_TOL

    return UnitaryPath(array_sampler=joined(a.samples, b.samples),
                       interval=(0.0, 1.0),
                       array_derivative=joined(
                           lambda ts: 2.0 * la * a.derivatives(ts),
                           lambda ts: 2.0 * lb * b.derivatives(ts)),
                       schatten_order=max(a.schatten_order, b.schatten_order),
                       closed=closed, breakpoints=joints, dim=a.dim,
                       check=False)


def _tail_check(path, sign):
    """Verify that ||U_s - Id||_p settles along s = sign * TAIL_PROBES:
    the largest distance in each decade of probes does not grow, and the
    last decade's largest is below TAIL_TOL."""
    p = max(path.schatten_order, 1.0)
    eye = np.eye(path.dim)
    dists = [schatten_norm(path(sign * s) - eye, p) for s in TAIL_PROBES]
    peaks = np.max(np.reshape(dists, (-1, TAIL_PER_DECADE)), axis=1)
    if not (np.all(np.diff(peaks) <= 1e-12) and peaks[-1] < TAIL_TOL):
        raise NoLimitAtInfinity(
            f"tail distances peak at {peaks.tolist()} in the decades from "
            f"s = {sign * TAIL_PROBES[0]:.4g}: they do not settle to Id")


def compactify(path):
    """Reparameterize a path on [0, inf) (or R) to [0, 1].

    For [0, inf) the substitution is t = 1 - (1 + s)^(-1/2); for R it is
    the logistic t = 1/(1 + e^{-s}).  The integrands of the winding integrals
    transform with the Jacobian, so all spectral-flow values are unchanged.
    The path must approach Id at infinity, else NoLimitAtInfinity: on
    TAIL_PROBES, the Schatten-norm distance to Id must not grow from decade
    to decade and must end below TAIL_TOL (`_tail_check`).  The probes are
    irrational multiples of powers of ten, eight to a decade, so a periodic
    tail such as e^{2 pi i m s} is not seen only at multiples of its period.
    The result has no array sampler and no array derivative: `samples` and
    `derivatives` stack its scalar sampler and derivative.
    """
    if path.finite:
        return path
    a, b = path.interval
    dim = path.dim
    eye = np.eye(dim)

    if a == 0.0 and b == np.inf:
        _tail_check(path, 1.0)

        def g(t):
            return (1.0 - t) ** -2.0 - 1.0

        def gprime(t):
            return 2.0 * (1.0 - t) ** -3.0

        def at_infinity(t):
            return t >= 1.0

        bps = tuple(1.0 - (1.0 + c) ** -0.5 for c in path.breakpoints)
    elif a == -np.inf and b == np.inf:
        _tail_check(path, 1.0)
        _tail_check(path, -1.0)

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


def __getattr__(name):
    # `upath.expm` resolves to scipy's without entering the module's
    # namespace (see the module docstring)
    if name == "expm":
        from scipy.linalg import expm
        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
