"""Spectral flow of unitary paths through -1.

Three engines compute the flow; only the crossing count is independent
of the others, since alpha, beta and det are one quantity computed by three
quadratures (in finite dimension each integrand is a multiple of
d(log det U) plus the differential of a single-valued function):

* `sf_phillips` tracks eigenvalues and counts signed crossings of -1 using
  arc counts k(t, eps) at partition breakpoints; exact integer output with a
  checkable `PartitionCertificate`.  It refines breadth-first, in rounds
  that sample their parameters in batches (`UnitaryPath._evaluate`),
  decompose them in stacked `eig_unitary` calls, which check each sample
  once, and certify every pending step in stacked pairing and arc
  kernels.
* `sf_alpha` integrates the winding one-form with integrand
  Tr(U* U' (U - Id)^n), admissible for n >= p - 1.
* `sf_beta` integrates the absolute-value form with integrand
  Tr(U* U' |U - Id|^{2r}), admissible for r >= (p - 1)/2.

Both integral routes go through `_winding`, which evaluates the trace form
with `matcore.form_trace` on a whole quadrature round of nodes at once: one
`path.samples`, one `path.derivatives` and one stacked `form_trace` call
per chunk of nodes whose (nodes, dim, dim) samples and derivatives hold at
most STACK_ELEMENTS entries together, each node exactly as a call on it
alone.  `sf_det` states the paper's determinant form:
the log-derivative of Det_p is Tr(U* U' (Id - U)^{p-1}), which is the alpha
integrand at n = p - 1, so `sf_det` is that alpha integral and not a
cross-check.

Every winding integral runs one quadrature, `_adaptive_gk21`: adaptive
Gauss-Kronrod-21 bisection with QUADPACK's qk21 error estimate, which
evaluates the complex integrand once per node and refines on the modulus of
its error.  The winding engines stop at a summed estimate of max(epsabs,
1.49e-8 |I|), I the un-normalised integral, and report that estimate as
`quad_error`: it bounds the error of the real and of the imaginary part
alike.  The flow is read off Im I, and |I| is close to |Im I|; Re I, zero in
theory, only feeds the report's imaginary-part warning.  Past QUAD_LIMIT
intervals, the one limit of every winding integral, the quadrature raises
IntegrationFailure.

For open paths, geodesic endpoint caps e^{tY} (principal log generators)
close the path, and the Theta/Xi endpoint integrals express the capped flow
as integral-over-the-path plus endpoint corrections.  A cap's crossing count
has a closed form in its generator's spectrum (`_generator_flow`);
Phillips' count is additive under concatenation, so the caps are added to
the count of the sampled path instead of being sampled themselves.  One
routine, `_capped_count`, closes an open path with caps from and back to Id
and counts it for `sf_open_path`, decomposing the path's two end samples
once for the caps and for Phillips' count; `_checked_caps` guards each
principal cap with CapMismatch, and `scatter.levinson` guards its caps with
it too, through `_cap_angles`.  The Levinson crossing counts sample no path:
a capped loop's flow is its det winding, which they read off end rows on an
absolute branch.  A capped count is the flow of the loop the principal caps
close, whatever the physics at the far end: the 1D sweep of the depth-400
well at k_max = 100 ends with arg T = 3.96 rad, past pi, and its capped
loop truly has flow -11, not -13.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CapMismatch,
    IntegrationFailure,
    InvalidOrder,
    NonConvergent,
    PartitionFailure,
    RouteDisagreement,
)
from .matcore import check_order, eig_unitary, form_trace, gamma_constant
from .upath import ENDPOINT_TOL

# winding quadrature: the caller's absolute tolerance (default below),
# quad's default relative floor on |integral|, and the number of intervals
# past which an integral that does not converge raises
DEFAULT_EPSABS = 1e-9
QUAD_EPSREL = 1.49e-8
QUAD_LIMIT = 500
# sf_phillips: initial uniform samples, largest matched eigenangle motion
# per step, sample budget, and least angular clearance of a counting arc
INITIAL_SAMPLES = 33
MOTION_BOUND = np.pi / 6
MAX_SAMPLES = 20000
MARGIN_MIN = 1e-9
# the most entries of a (steps, dim, dim) stack that sf_phillips samples,
# decomposes or certifies in one call, and of the sample and derivative
# (nodes, dim, dim) stacks that a winding integrand holds together
STACK_ELEMENTS = 16384


@dataclass
class PartitionCertificate:
    """Evidence that the Phillips arc counts were well defined.

    On each subinterval [t_{j-1}, t_j] the eigenvalues at the two ends are
    paired by `_match_motion`, no pair moves more than MOTION_BOUND, no
    eigenvector v at t_{j-1} has |(U(t_j) - U(t_{j-1})) v| above the chord
    2 sin(MOTION_BOUND / 2), and the rays at angles pi +/- eps_j lie
    outside every distance from -1 that a pair sweeps on its short arc,
    with clearance at least MARGIN_MIN.
    `margins[j]` is the least ||u| - eps_j| over the end eigenvalues, with
    u an eigenvalue's angular offset from -1; it is never below that
    clearance.  The evidence is the sampled, matched motion: an eigenvalue
    that leaves its short arc between two samples and returns is not seen.
    """

    breakpoints: list
    epsilons: list
    margins: list


@dataclass
class SpectralFlowReport:
    value: int
    raw: complex
    residual: float
    method: str
    parameters: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    certificate: PartitionCertificate = None

    def __repr__(self):
        return (f"SpectralFlowReport(value={self.value}, raw={self.raw:.6g}, "
                f"residual={self.residual:.2e}, method={self.method!r})")


def _finish(raw, method, parameters):
    warns = []
    raw = complex(raw)
    value = int(np.round(raw.real))
    residual = abs(raw - value)
    if residual >= 0.4:
        raise NonConvergent(
            f"{method}: raw value {raw:.6g} is {residual:.3f} away from any "
            f"integer (params {parameters})")
    if residual >= 0.1:
        warns.append(f"residual {residual:.3f} in the warn band [0.1, 0.4)")
    if abs(raw.imag) > 1e-6 * (1.0 + abs(raw)):
        warns.append(f"imaginary part {raw.imag:.3e} above tolerance")
    return SpectralFlowReport(value=value, raw=raw, residual=residual,
                              method=method, parameters=parameters,
                              warnings=warns)


# QUADPACK's qk21 rule: the 21-point Kronrod nodes on [0, 1] (the centre
# last), their weights, and the weights of the embedded 10-point Gauss
# rule, whose nodes are the Kronrod nodes of odd index
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525478226, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# all 21 nodes on [-1, 1], with their Kronrod and Gauss weights
GK21_NODES = np.concatenate([-_GK_X[:-1], _GK_X[::-1]])
GK21_KRONROD = np.concatenate([_GK_WK[:-1], _GK_WK[::-1]])
GK21_GAUSS = np.zeros(21)
GK21_GAUSS[1:10:2] = _GK_WG
GK21_GAUSS[11:20:2] = _GK_WG[::-1]


def _gk21(F, a, b):
    """QUADPACK's qk21 on each interval [a_i, b_i], with one call of the
    vectorized F on all 21 nodes of every interval.  Returns the Kronrod
    values and qk21's error estimates, with moduli of the complex values
    where QUADPACK takes absolute values."""
    half = 0.5 * (b - a)
    centre = 0.5 * (a + b)
    f = F((centre[:, None] + half[:, None] * GK21_NODES).ravel())
    f = f.reshape(len(a), 21)
    kronrod = f @ GK21_KRONROD
    gauss = f @ GK21_GAUSS
    mean = 0.5 * kronrod
    res_abs = np.abs(f) @ GK21_KRONROD * np.abs(half)
    res_asc = np.abs(f - mean[:, None]) @ GK21_KRONROD * np.abs(half)
    err = np.abs((kronrod - gauss) * half)
    scaled = (res_asc != 0.0) & (err != 0.0)
    err[scaled] = res_asc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / res_asc[scaled]) ** 1.5)
    eps = np.finfo(float).eps
    err = np.maximum(50.0 * eps * res_abs, err)
    return kronrod * half, err


def _adaptive_gk21(F, edges, epsabs, epsrel):
    """Integral of the vectorized complex F over [edges[0], edges[-1]] by
    adaptive Gauss-Kronrod-21 bisection, the one quadrature of every
    winding integral.

    The initial intervals run between consecutive edges (the interval and
    the breakpoints inside it), so no node falls on an edge.  Each round
    splits the intervals of largest error until those left unsplit carry
    at most half the tolerance max(epsabs, epsrel |I|), I the current
    integral, and evaluates F once on every node of the new halves; the
    error estimates are qk21's on the complex values, so one estimate, a
    bound on the error of the real and of the imaginary part, refines both.
    It stops when the summed estimate is at most the tolerance.  Raises
    IntegrationFailure unless epsabs is finite and > 0, on a non-finite
    estimate, and past QUAD_LIMIT intervals.  Returns (integral, error
    estimate).
    """
    if not (np.isfinite(epsabs) and epsabs > 0):
        raise IntegrationFailure(
            f"epsabs must be finite and > 0, got {epsabs}")
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk21(F, lo, hi)
    while True:
        total = err.sum()
        tol = max(epsabs, epsrel * abs(val.sum()))
        if total <= tol:
            return complex(val.sum()), float(total)
        if not np.isfinite(total):
            raise IntegrationFailure(
                f"quadrature error estimate is {total}")
        worst = np.argsort(err)[::-1]
        left = total - np.cumsum(err[worst])
        split = worst[:np.argmax(left <= 0.5 * tol) + 1]
        if len(lo) + len(split) > QUAD_LIMIT:
            raise IntegrationFailure(
                f"quadrature needs more than {QUAD_LIMIT} intervals; error "
                f"estimate {total:.2e} > {tol:.1e}")
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _gk21(F, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def _form(path, kind, order):
    """The checked order of a winding form and its normalisation.

    Kind "n" is the alpha form, admissible for integer n >= p - 1 and
    normalised by (-1)^n / (2 pi i); kind "r" is the beta form, admissible
    for real r >= (p - 1)/2 and normalised by -i C_r (1/2)^{2r+1}.
    """
    p = path.schatten_order
    if kind == "n":
        n = check_order("n", order, p - 1, integer=True)
        return n, lambda val: (-1) ** n * val / (2j * np.pi)
    r = check_order("r", order, (p - 1) / 2.0)
    const = -1j * gamma_constant(r) * 0.5 ** (2 * r + 1)
    return r, lambda val: const * val


def _chunk(path, stacks=1):
    """How many (dim, dim) members each of `stacks` stacks may hold for
    all of them together to fit in STACK_ELEMENTS."""
    return max(1, STACK_ELEMENTS // (stacks * path.dim ** 2))


def _winding(path, kind, order, epsabs):
    """Normalised integral of Tr(U* U' g(U - Id)) over the path interval,
    split at its breakpoints by `_adaptive_gk21`.

    The integrand takes a round's nodes in chunks whose samples and
    derivatives together hold at most STACK_ELEMENTS entries: one
    `path.samples`, one `path.derivatives` and one `form_trace` call per
    chunk, each node evaluated once and exactly as on its own.  (At dim
    64 that is two nodes; chunks of four made every chunk's temporaries
    large enough for the allocator to hand memory back and fault it in
    again.)  Returns (value, checked order, quadrature error estimate).
    """
    order, normalise = _form(path, kind, order)
    chunk = _chunk(path, 2)

    def integrand(ts):
        values = []
        for lo in range(0, len(ts), chunk):
            part = ts[lo:lo + chunk]
            U = path.samples(part)
            values.append(form_trace(U.conj().mT @ path.derivatives(part),
                                     U, kind, order))
        return np.concatenate(values)

    a, b = path.interval
    val, err = _adaptive_gk21(integrand, (a, *path.breakpoints, b), epsabs,
                              QUAD_EPSREL)
    return normalise(val), order, err


# ---------------------------------------------------------------------------
# integral engines


def sf_alpha(path, n, epsabs=DEFAULT_EPSABS):
    """Winding via (-1)^n (1/2 pi i) Integral Tr(U* U' (U - Id)^n) dt."""
    path.check_closed()
    raw, n, err = _winding(path, "n", n, epsabs)
    return _finish(raw, "alpha", {"n": n, "quad_error": err})


def sf_beta(path, r, epsabs=DEFAULT_EPSABS):
    """Winding via -i C_r (1/2)^{2r+1} Integral Tr(U* U' |U - Id|^{2r}) dt."""
    path.check_closed()
    raw, r, err = _winding(path, "r", r, epsabs)
    return _finish(raw, "beta", {"r": r, "quad_error": err})


def sf_det(path, p, epsabs=DEFAULT_EPSABS):
    """Winding of the regularized determinant Det_p along the loop.

    The integrand is the log-derivative d/dt Log Det_p(U_t) =
    Tr(U* U' (Id - U)^{p-1}) = (-1)^{p-1} Tr(U* U' (U - Id)^{p-1}), so the
    winding is the alpha integral at n = p - 1; p must be an integer no
    smaller than the path's Schatten order.  This is the paper's
    determinant statement, not a route independent of `sf_alpha`.
    """
    path.check_closed()
    p = check_order("p", p, path.schatten_order, integer=True)
    raw, _, err = _winding(path, "n", p - 1, epsabs)
    return _finish(raw, "det", {"p": p, "quad_error": err})


# ---------------------------------------------------------------------------
# endpoint corrections for open paths


def _cap_integral(angles, kind, order, epsabs):
    """Integral_0^1 Tr(Y g(e^{tY} - Id)) dt along the geodesic cap Id -> U.

    Y is the principal logarithm of U, whose snapped eigenangles theta are
    `angles`, and g(x) = x^n (kind "n") or |x|^{2r} (kind "r") with the
    order already checked; the trace is a sum over i theta
    g(e^{i t theta} - 1), with |e^{is} - 1|^2 = 4 sin^2(s/2), evaluated on
    all quadrature nodes at once as an outer product of t and theta.
    """
    iang = 1j * angles

    def integrand(ts):
        if kind == "n":
            return np.sum(iang * (np.exp(np.outer(ts, iang)) - 1.0) ** order,
                          axis=1)
        return np.sum(
            iang * (4.0 * np.sin(np.outer(ts, angles) / 2.0) ** 2) ** order,
            axis=1)

    return _adaptive_gk21(integrand, (0.0, 1.0), epsabs, QUAD_EPSREL)[0]


def theta_endpoint(U, n):
    """Theta(U) = (-1)^n (1/2 pi i) Integral_0^1 Tr(Y (e^{tY} - Id)^n) dt,

    where Y is the principal logarithm of U.  This is the alpha-integral of
    the geodesic cap from Id to U, to DEFAULT_EPSABS; Theta(Id) = 0.
    """
    n = check_order("n", n, 0, integer=True)
    angles = eig_unitary(U)[0]
    return ((-1) ** n * _cap_integral(angles, "n", n, DEFAULT_EPSABS)
            / (2j * np.pi))


def xi_endpoint(U, r):
    """Xi(U) = Integral_0^1 Tr(Y |e^{tY} - Id|^{2r}) dt, un-normalized, to
    DEFAULT_EPSABS.

    The caller applies the beta normalization -i C_r (1/2)^{2r+1}; this keeps
    the two endpoint integrals structurally parallel.
    """
    r = check_order("r", r, 0)
    return _cap_integral(eig_unitary(U)[0], "r", r, DEFAULT_EPSABS)


def _generator_flow(trace, end_angles):
    """Crossing count of t -> e^{tY}, t in [0, 1], from Id to E = e^Y, in
    closed form.

    `trace` is Tr(-iY), the sum of the angles phi_j of Y's eigenvalues
    i phi_j, and `end_angles` are the snapped `eig_unitary` angles a_j of
    the matrix E.  Eigenvalue j turns from angle 0 to phi_j: it passes -1
    (phi_j - a_j) / 2 pi times net, and under `sf_phillips`' arc convention
    it ends inside the counting arc exactly when a_j = pi.  The count is
    round((Tr(-iY) - sum_j a_j) / 2 pi) + #{a_j = pi}; the cap e^{(1-t)Y}
    out of E counts minus that.  Phillips' count is additive under
    concatenation, so with E the exact matrix on which an adjacent sampled
    segment starts (or ends), this count adds to `sf_phillips` on that
    segment as if the cap had been sampled with it.

    The flow of a path with fixed ends depends only on its homotopy class
    (Phillips, Canad. Math. Bull. 39, 1996), and a class of paths from Id
    to E is fixed by the winding of det along it, Tr(-iY) for e^{tY}.  So
    this also counts any path from Id to E whose det winds by `trace`, such
    as several caps joined end to end.
    """
    end_angles = np.asarray(end_angles)
    winds = np.round((trace - np.sum(end_angles)) / (2.0 * np.pi))
    return int(winds) + int(np.count_nonzero(end_angles == np.pi))


def _cap_angles(U):
    """The snapped `eig_unitary` angles of a (2, dim, dim) stack U of the
    matrices two caps end on, (start, end), decomposed as one stack (and
    checked once).  Each cap, rebuilt from its angles and eigenvectors,
    must end on its matrix (CapMismatch names the cap that misses)."""
    return _checked_caps(U, *eig_unitary(U))


def _checked_caps(U, angles, vecs):
    """`_cap_angles` on the decomposition (angles, vecs) of U."""
    cap_ends = (vecs * np.exp(1j * angles)[:, None, :]) @ vecs.conj().mT
    gaps = np.linalg.norm(cap_ends - U, ord=2, axis=(-2, -1))
    for which, gap in zip(("start", "end"), gaps):
        if gap > ENDPOINT_TOL:
            raise CapMismatch(f"{which} cap misses endpoint by {gap:.3e}")
    return angles


def _capped_count(path):
    """Crossing count of `path` closed by the principal caps e^{tY} from Id
    into path(a), Y = Log path(a), and e^{(1-t)Z} from path(b) back to Id,
    Z = Log path(b).

    `sf_phillips` counts the sampled path and the caps add their
    closed-form counts (`_generator_flow`), read off the eigenangles of
    the path's end samples (`_checked_caps`).  The two end samples are
    decomposed once, as one stack, and Phillips' count starts from that
    decomposition.  Returns the report, carrying the capped count as
    value and raw, and the (start, end) eigenangles.
    """
    U = path._evaluate(path.interval)
    angles, vecs = eig_unitary(U)
    start, end = _checked_caps(U, angles, vecs)
    caps = (_generator_flow(np.sum(start), start)
            - _generator_flow(np.sum(end), end))
    report = sf_phillips(
        path, _samples=dict(zip(path.interval, zip(angles, vecs.mT))))
    value = report.value + caps
    return replace(report, value=value, raw=complex(value)), (start, end)


def sf_open_path(path, n=None, r=None, epsabs=DEFAULT_EPSABS):
    """Spectral flow of an open path closed by geodesic endpoint caps.

    The caps are e^{tY} from Id to U_start and e^{(1-t)Z} from U_end to Id,
    with Y, Z the principal logarithms (an endpoint eigenvalue -1 is
    represented as e^{i pi}).  Two routes are computed and required to agree:

    * crossing counting, `_capped_count`: `sf_phillips` on the path
      itself, always sampled (also when the path is a generator path), plus
      the closed-form counts of the two caps, read off the eigenangles of
      the path's end samples; each cap must end on its sample (CapMismatch);
    * the winding integral over the open path plus endpoint corrections,
      Theta(U_start) - Theta(U_end) for the alpha form (n given), or the
      normalized Xi difference for the beta form (r given).

    The report carries the crossing count as `value`, the corrected
    integral as `raw`, and the certificate of the path's own partition.
    """
    if (n is None) == (r is None):
        raise InvalidOrder("pass exactly one of n (alpha form) or r (beta form)")
    kind, order = ("n", n) if r is None else ("r", r)
    order, normalise = _form(path, kind, order)
    phillips, ends = _capped_count(path)
    value = phillips.value

    body, _, err = _winding(path, kind, order, epsabs)
    # the endpoint integrals, Theta or the normalised Xi, on the angles
    # just decomposed
    correction = normalise(_cap_integral(ends[0], kind, order, epsabs)
                           - _cap_integral(ends[1], kind, order, epsabs))
    params = {kind: order, "quad_error": err, "body": body,
              "endpoint_correction": correction}
    raw = body + correction
    residual = abs(raw - value)
    if int(np.round(raw.real)) != value:
        raise RouteDisagreement(
            f"crossing count {value} vs corrected integral {raw:.6g}")
    warns = [f"open-path residual {residual:.3f}"] if residual >= 0.1 else []
    return SpectralFlowReport(value=value, raw=raw, residual=residual,
                              method="open_path", parameters=params,
                              warnings=warns, certificate=phillips.certificate)


# ---------------------------------------------------------------------------
# Phillips crossing counting


def _wrap(x):
    """Wrap to (-pi, pi]."""
    y = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
    y[y == -np.pi] = np.pi
    return y


def _around_minus_one(angles):
    """Signed angular offset from the point -1: u = wrap(theta - pi).

    u = 0 is the crossing point; u in (0, eps) is the interior of the
    counting arc [pi, pi + eps)."""
    return _wrap(np.asarray(angles) - np.pi)


def _motion_key(a0, a1, overlap):
    """Cost of pairing eigenangle a0[s, i] with a1[s, j] on each step s of
    a stack: their circular distance, nudged by the eigenvector overlap
    |<v0_i, v1_j>|^2 so that near-degenerate angles follow their own
    eigenvectors."""
    d = np.abs(_wrap(a1[:, None, :] - a0[:, :, None]))
    return d - 1e-6 * overlap


def _match_motion(a0, a1, overlap):
    """Greedy pairing of eigenangle sets at neighboring parameters, for a
    stack of steps: angles (steps, dim) and the eigenvector overlaps
    |<v0_i, v1_j>|^2 (steps, dim, dim).

    On each step, pairs a0[i] with a1[perm[i]] by taking the smallest
    remaining `_motion_key` entry, then the next among the rows and
    columns still free, and so on; ties go to the first entry in
    row-major order.  Each round pairs at once every entry that is the
    least of both its row and its column, which greedy would take anyway,
    and strikes its row and column with +inf, so a dim-64 step takes a
    few array passes instead of 64 scans of the whole key; steps leave
    the stack as they finish.  Returns the signed motions a1[perm] - a0
    wrapped to (-pi, pi], and perm, each (steps, dim).

    Greedy is kept over the assignment that minimises the summed key: when
    most eigenvalues turn the same way by more than their spacing, that
    optimum pairs each with the neighbour behind its true partner, its
    motions look small, and a step that should be refined is certified.
    """
    key = _motion_key(a0, a1, overlap)
    perm = np.empty(a0.shape, dtype=int)
    rows = np.arange(a0.shape[1])
    steps = np.arange(len(a0))
    free = np.ones(a0.shape, dtype=bool)
    while len(steps):
        best = key.argmin(axis=2)
        mutual = free & (np.take_along_axis(key.argmin(axis=1), best,
                                            axis=1) == rows)
        s, i = np.nonzero(mutual)
        perm[steps[s], i] = best[s, i]
        key[s, i, :] = np.inf
        key[s, :, best[s, i]] = np.inf
        free[s, i] = False
        going = free.any(axis=1)
        steps, key, free = steps[going], key[going], free[going]
    return _wrap(np.take_along_axis(a1, perm, axis=1) - a0), perm


def _free_arc(u0, u1, motion):
    """Half-width eps of the counting arc for each step of a stack, and
    its clearance.

    u0 and u1 (steps, dim) are the offsets from -1 of matched eigenvalues
    at the ends of each step and motion = u1 - u0 wrapped.  Each
    eigenvalue sweeps the distances from -1 between |u0| and |u1|, widened
    to 0 if it passes -1 and to pi if it passes +1.  eps is the midpoint
    of the widest gap of (0, pi) that no swept interval covers, so neither
    ray pi +/- eps lies between an eigenvalue's positions at the two ends
    of the step.
    """
    d0, d1 = np.abs(u0), np.abs(u1)
    lo = np.where(u0 * (u0 + motion) <= 0.0, 0.0, np.minimum(d0, d1))
    hi = np.where(np.abs(u0 + motion) >= np.pi, np.pi, np.maximum(d0, d1))
    order = np.argsort(lo, axis=1, kind="stable")
    edge = np.zeros((len(lo), 1))
    starts = np.concatenate([edge, np.maximum.accumulate(
        np.take_along_axis(hi, order, axis=1), axis=1)], axis=1)
    ends = np.concatenate([np.take_along_axis(lo, order, axis=1),
                           edge + np.pi], axis=1)
    gi = np.argmax(ends - starts, axis=1)[:, None]
    start = np.take_along_axis(starts, gi, axis=1)[:, 0]
    end = np.take_along_axis(ends, gi, axis=1)[:, 0]
    return 0.5 * (start + end), 0.5 * (end - start)


def _sample(path, ts, chunk, samples):
    """Enter eig_unitary of the path's samples at the parameters ts into
    `samples`, sampling and decomposing `chunk` of them per call; an entry
    holds the angles and the transposed vectors (one eigenvector a row).
    The samples are unchecked: `eig_unitary` checks them."""
    for lo in range(0, len(ts), chunk):
        part = ts[lo:lo + chunk]
        angles, vecs = eig_unitary(path._evaluate(part))
        samples.update(zip(part.tolist(),
                           zip(angles, vecs.mT)))


def _stack(samples, ts):
    """The angles (n, dim) and vectors (n, dim, dim) of the samples at ts,
    each matrix of vectors Fortran-ordered as eig_unitary returns it."""
    angles, rows = zip(*(samples[t] for t in ts.tolist()))
    return np.array(angles), np.array(rows).mT


def _certify(samples, t0, t1):
    """Phillips' verdict on each step [t0, t1] of a stack, from the
    samples at its two ends.

    Returns the largest matched motion of each step, whether it is
    certified, and its arc half-width eps, margin and arc-count
    difference (meaningful where certified).
    """
    a0, v0 = _stack(samples, t0)
    a1, v1 = _stack(samples, t1)
    overlap = np.abs(v0.conj().mT @ v1) ** 2
    motion, perm = _match_motion(a0, a1, overlap)
    step = np.max(np.abs(motion), axis=1)
    u0 = _around_minus_one(a0)
    u1 = np.take_along_axis(_around_minus_one(a1), perm, axis=1)
    eps, clearance = _free_arc(u0, u1, motion)
    # how far U1 moves each eigenvector v of U0, |(U1 - U0) v|^2 =
    # 2 - 2 Re(conj(z) v* U1 v) with z its eigenvalue: the chord of z's
    # turn when v stays put, and never more than |U1 - U0|^2.  Greedy
    # pairing of crowded angles can hand a turn larger than MOTION_BOUND
    # a near neighbour, which this sees
    seen = np.exp(-1j * a0) * (overlap @ np.exp(1j * a1)[..., None])[..., 0]
    moved = np.max(2.0 - 2.0 * seen.real, axis=1)
    ok = ((step <= MOTION_BOUND) & (clearance >= MARGIN_MIN)
          & (moved <= (2.0 * np.sin(MOTION_BOUND / 2.0)) ** 2))
    e = eps[:, None]
    margin = np.minimum(np.min(np.abs(np.abs(u0) - e), axis=1),
                        np.min(np.abs(np.abs(u1) - e), axis=1))
    arcs = (np.sum((u1 >= 0.0) & (u1 < e), axis=1)
            - np.sum((u0 >= 0.0) & (u0 < e), axis=1))
    return step, ok, eps, margin, arcs


def sf_phillips(path, *, _samples=None):
    """Spectral flow by eigenvalue-crossing counting.

    The interval is refined until the matched eigenangle motion between
    neighboring samples is at most MOTION_BOUND, no eigenvector of the
    first sample moves further than an eigenvalue turning by MOTION_BOUND
    would, and an arc half-width eps_j is found that no eigenvalue's
    matched motion sweeps across with clearance MARGIN_MIN or more
    (`_free_arc`).  No matched eigenvalue then touches a ray pi +/- eps_j
    inside the step, so the step's arc counts need no further samples (see
    `PartitionCertificate` for what this rests on).  The flow is the
    telescoped sum of arc-count differences k(t_j, eps_j) -
    k(t_{j-1}, eps_j); `raw` equals the integer exactly, so residual is 0.

    Refinement runs breadth-first in rounds.  A round takes the new
    parameters in `path._evaluate` calls and one stacked `eig_unitary` each,
    then certifies every pending step in stacked `_match_motion` and
    `_free_arc` calls, at most STACK_ELEMENTS entries of a (steps, dim,
    dim) stack per call; the steps that fail are bisected, and their
    midpoints are the next round's parameters.  A step's verdict depends
    only on the samples at its two ends, so the panels are those of any
    other refinement order.  PartitionFailure is raised before a round
    that would take more than MAX_SAMPLES samples, and when a midpoint
    falls on an end of its step.  The sample cache, a dict of the
    decompositions by parameter, is released on return.  `_samples` is
    internal: a cache that already holds the decompositions at some
    parameters, which are not sampled again (`_capped_count` passes the
    path's two ends).
    """
    samples = {} if _samples is None else _samples
    if not path.finite:
        raise PartitionFailure("compactify the path to a finite interval first")
    a, b = path.interval
    chunk = _chunk(path)

    grid = set(np.linspace(a, b, INITIAL_SAMPLES))
    grid.update(path.breakpoints)
    ts = np.array(sorted(grid))
    t0, t1 = ts[:-1], ts[1:]
    new = ts[[t not in samples for t in ts.tolist()]]

    # refine until each step moves little and leaves an arc free
    panels = []
    while True:
        _sample(path, new, chunk, samples)
        verdicts = [_certify(samples, t0[lo:lo + chunk], t1[lo:lo + chunk])
                    for lo in range(0, len(t0), chunk)]
        step, ok, eps, margin, arcs = (np.concatenate(v)
                                       for v in zip(*verdicts))
        panels.append((t0[ok], t1[ok], eps[ok], margin[ok], arcs[ok]))
        if ok.all():
            break
        t0, t1, step = t0[~ok], t1[~ok], step[~ok]
        if len(samples) + len(t0) > MAX_SAMPLES:
            worst = np.argmax(step)
            raise PartitionFailure(
                f"sample budget {MAX_SAMPLES} exhausted with eigenvalue "
                f"motion {step[worst]:.3f} on [{t0[worst]:.6g}, "
                f"{t1[worst]:.6g}]")
        new = 0.5 * (t0 + t1)
        stuck = (new <= t0) | (new >= t1)
        if stuck.any():
            raise PartitionFailure(
                f"cannot refine below floating-point resolution at "
                f"{t0[stuck][0]}")
        t0, t1 = np.concatenate([t0, new]), np.concatenate([new, t1])

    lo, hi, eps, margin, arcs = (np.concatenate(p) for p in zip(*panels))
    order = np.argsort(lo)
    total = int(np.sum(arcs))
    cert = PartitionCertificate(
        breakpoints=[lo[order[0]].item()] + hi[order].tolist(),
        epsilons=eps[order].tolist(),
        margins=margin[order].tolist())
    return SpectralFlowReport(value=total, raw=complex(total),
                              residual=0.0, method="phillips",
                              parameters={"samples": len(samples)},
                              warnings=[], certificate=cert)
