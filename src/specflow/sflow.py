"""Spectral flow of unitary paths through -1.

Three independent routes compute the flow:

* `sf_phillips` tracks eigenvalues and counts signed crossings of -1 using
  arc counts k(t, eps) at partition breakpoints; exact integer output with a
  checkable `PartitionCertificate`.
* `sf_alpha` integrates the winding one-form with integrand
  Tr(U* U' (U - Id)^n), admissible for n >= p - 1.
* `sf_beta` integrates the absolute-value form with integrand
  Tr(U* U' |U - Id|^{2r}), admissible for r >= (p - 1)/2.

Both integral routes go through `_winding`, which evaluates the trace form
with `matcore.form_trace`.  `sf_det` states the paper's determinant form:
the log-derivative of Det_p is Tr(U* U' (Id - U)^{p-1}), which is the alpha
integrand at n = p - 1, so `sf_det` is that alpha integral and not a
cross-check.

For open paths, geodesic endpoint caps e^{tY} (principal log generators)
close the path, and the Theta/Xi endpoint integrals express the capped flow
as integral-over-the-path plus endpoint corrections.  A cap's crossing
count has a closed form in its generator's spectrum (`_generator_flow`);
Phillips' count is additive under concatenation, so the caps are added to
the count of the sampled path instead of being sampled themselves.
"""

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import (
    CapMismatch,
    IntegrationFailure,
    InvalidOrder,
    NonConvergent,
    PartitionFailure,
    RouteDisagreement,
)
from .matcore import (_unitary_angles, check_order, check_unitary,
                      eig_unitary, form_trace, gamma_constant)
from .upath import ENDPOINT_TOL, _spectral_path

DEFAULT_EPSABS = 1e-9
QUAD_LIMIT = 10000
# sf_phillips: initial uniform samples, largest matched eigenangle motion
# per step, sample budget, and least angular clearance of a counting arc
INITIAL_SAMPLES = 33
MOTION_BOUND = np.pi / 6
MAX_SAMPLES = 20000
MARGIN_MIN = 1e-9


@dataclass
class PartitionCertificate:
    """Evidence that the Phillips arc counts were well defined.

    On each subinterval [t_{j-1}, t_j] the eigenvalues at the two ends are
    paired by `_match_motion`, no pair moves more than MOTION_BOUND, and
    the rays at angles pi +/- eps_j lie outside every distance from -1 that
    a pair sweeps on its short arc, with clearance at least MARGIN_MIN.
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


def _finish(raw, method, parameters, warns):
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


def _quad_once(f, a, b, epsabs, points=None):
    """quad(complex_func=True) of f over [a, b], one evaluation per node.

    quad integrates the real and the imaginary part in two passes over the
    same Gauss-Kronrod nodes; f is memoised by node for this call, so the
    second pass reuses the first pass's values and the nodes, sums and
    error estimate are those of quad itself.  epsabs must be finite and
    > 0, else IntegrationFailure.
    """
    if not (np.isfinite(epsabs) and epsabs > 0):
        raise IntegrationFailure(
            f"epsabs must be finite and > 0, got {epsabs}")
    values = {}

    def once(t):
        if t not in values:
            values[t] = f(t)
        return values[t]

    return quad(once, a, b, complex_func=True, epsabs=epsabs,
                limit=QUAD_LIMIT, points=points)


def _integrate_path(f, path, epsabs):
    """Adaptive Gauss-Kronrod over the path interval, split at breakpoints."""
    a, b = path.interval
    pts = list(path.breakpoints) or None
    warns = []
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always", IntegrationWarning)
        val, err = _quad_once(f, a, b, epsabs, pts)
    for w in caught:
        if issubclass(w.category, IntegrationWarning):
            warns.append(f"quadrature: {w.message}")
    return val, float(np.real(err)), warns


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


def _winding(path, kind, order, epsabs):
    """Normalised integral of Tr(U* U' g(U - Id)) over the path.

    Returns (value, checked order, quadrature error, warnings).
    """
    order, normalise = _form(path, kind, order)

    def integrand(t):
        U = path(t)
        return form_trace(U.conj().T @ path.derivative(t), U, kind, order)

    val, err, warns = _integrate_path(integrand, path, epsabs)
    return normalise(val), order, err, warns


# ---------------------------------------------------------------------------
# integral engines


def sf_alpha(path, n, epsabs=DEFAULT_EPSABS):
    """Winding via (-1)^n (1/2 pi i) Integral Tr(U* U' (U - Id)^n) dt."""
    path.check_closed()
    raw, n, err, warns = _winding(path, "n", n, epsabs)
    return _finish(raw, "alpha", {"n": n, "quad_error": err}, warns)


def sf_beta(path, r, epsabs=DEFAULT_EPSABS):
    """Winding via -i C_r (1/2)^{2r+1} Integral Tr(U* U' |U - Id|^{2r}) dt."""
    path.check_closed()
    raw, r, err, warns = _winding(path, "r", r, epsabs)
    return _finish(raw, "beta", {"r": r, "quad_error": err}, warns)


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
    raw, _, err, warns = _winding(path, "n", p - 1, epsabs)
    return _finish(raw, "det", {"p": p, "quad_error": err}, warns)


# ---------------------------------------------------------------------------
# endpoint corrections for open paths


def _cap_integral(U, kind, order, epsabs):
    """Integral_0^1 Tr(Y g(e^{tY} - Id)) dt along the geodesic cap Id -> U.

    Y is the principal logarithm of U and g(x) = x^n (kind "n") or |x|^{2r}
    (kind "r"); on the eigenangles theta of U the trace is a sum over
    i theta g(e^{i t theta} - 1), with |e^{is} - 1|^2 = 4 sin^2(s/2).
    """
    order = check_order(kind, order, 0, integer=kind == "n")
    angles = _unitary_angles(check_unitary(U))
    iang = 1j * angles

    def integrand(t):
        if kind == "n":
            return np.sum(iang * (np.exp(t * iang) - 1.0) ** order)
        return np.sum(iang * (4.0 * np.sin(t * angles / 2.0) ** 2) ** order)

    val, _ = _quad_once(integrand, 0.0, 1.0, epsabs)
    return order, val


def theta_endpoint(U, n, epsabs=DEFAULT_EPSABS):
    """Theta(U) = (-1)^n (1/2 pi i) Integral_0^1 Tr(Y (e^{tY} - Id)^n) dt,

    where Y is the principal logarithm of U.  This is the alpha-integral of
    the geodesic cap from Id to U; Theta(Id) = 0.
    """
    n, val = _cap_integral(U, "n", n, epsabs)
    return (-1) ** n * val / (2j * np.pi)


def xi_endpoint(U, r, epsabs=DEFAULT_EPSABS):
    """Xi(U) = Integral_0^1 Tr(Y |e^{tY} - Id|^{2r}) dt, un-normalized.

    The caller applies the beta normalization -i C_r (1/2)^{2r+1}; this keeps
    the two endpoint integrals structurally parallel.
    """
    return _cap_integral(U, "r", r, epsabs)[1]


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
    """
    end_angles = np.asarray(end_angles)
    winds = np.round((trace - np.sum(end_angles)) / (2.0 * np.pi))
    return int(winds) + int(np.count_nonzero(end_angles == np.pi))


def sf_open_path(path, n=None, r=None, epsabs=DEFAULT_EPSABS):
    """Spectral flow of an open path closed by geodesic endpoint caps.

    The caps are e^{tY} from Id to U_start and e^{(1-t)Z} from U_end to Id,
    with Y, Z the principal logarithms (an endpoint eigenvalue -1 is
    represented as e^{i pi}).  Two routes are computed and required to agree:

    * crossing counting: `sf_phillips` on the path itself, always sampled
      (also when the path is a generator path), plus the closed-form counts
      of the two caps (`_generator_flow`), read off the eigenangles of the
      path's end samples; each cap must end on its sample (CapMismatch);
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
    a, b = path.interval
    U0, U1 = path(a), path(b)
    caps = 0
    for U, sign, which in ((U0, 1, "start"), (U1, -1, "end")):
        angles, vecs = eig_unitary(U)
        gap = np.linalg.norm(_spectral_path(angles, vecs)(1.0) - U, ord=2)
        if gap > ENDPOINT_TOL:
            raise CapMismatch(f"{which} cap misses endpoint by {gap:.3e}")
        caps += sign * _generator_flow(np.sum(angles), angles)

    phillips = sf_phillips(path)
    value = phillips.value + caps

    body, _, err, warns = _winding(path, kind, order, epsabs)
    if kind == "n":
        correction = (theta_endpoint(U0, order, epsabs)
                      - theta_endpoint(U1, order, epsabs))
    else:
        correction = normalise(xi_endpoint(U0, order, epsabs)
                               - xi_endpoint(U1, order, epsabs))
    params = {kind: order, "quad_error": err, "body": body,
              "endpoint_correction": correction}
    raw = body + correction
    residual = abs(raw - value)
    if int(np.round(raw.real)) != value:
        raise RouteDisagreement(
            f"crossing count {value} vs corrected integral {raw:.6g}")
    if residual >= 0.1:
        warns.append(f"open-path residual {residual:.3f}")
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


def _motion_key(a0, v0, a1, v1):
    """Cost of pairing eigenangle a0[i] with a1[j]: their circular
    distance, nudged by eigenvector overlap so that near-degenerate angles
    follow their own eigenvectors."""
    d = np.abs(_wrap(a1[None, :] - a0[:, None]))
    return d - 1e-6 * np.abs(v0.conj().T @ v1) ** 2


def _match_motion(a0, v0, a1, v1):
    """Greedy pairing of eigenangle sets at neighboring parameters.

    Pairs a0[i] with a1[perm[i]] by taking the smallest remaining
    `_motion_key` entry, then the next among the rows and columns still
    free, and so on; ties go to the first entry in row-major order.  Each
    round pairs at once every entry that is the least of both its row and
    its column, which greedy would take anyway, so a dim-64 step takes a
    few array passes instead of 64 scans of the whole key.  Returns the
    signed motions a1[perm] - a0 wrapped to (-pi, pi], and perm.

    Greedy is kept over the assignment that minimises the summed key: when
    most eigenvalues turn the same way by more than their spacing, that
    optimum pairs each with the neighbour behind its true partner, its
    motions look small, and a step that should be refined is certified.
    """
    key = _motion_key(a0, v0, a1, v1)
    perm = np.empty(len(a0), dtype=int)
    rows = cols = np.arange(len(a0))
    while True:
        best = key.argmin(axis=1)
        mutual = key.argmin(axis=0)[best] == np.arange(len(rows))
        perm[rows[mutual]] = cols[best[mutual]]
        if mutual.all():
            return _wrap(a1[perm] - a0), perm
        free = np.ones(len(cols), dtype=bool)
        free[best[mutual]] = False
        rows, cols = rows[~mutual], cols[free]
        key = key[~mutual][:, free]


class _Samples(dict):
    """eig_unitary of the path's samples, keyed by parameter and computed
    on first lookup."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, t):
        self[t] = eig_unitary(self.path(t))
        return self[t]


def _free_arc(u0, u1, motion):
    """Half-width eps of the counting arc for one step, and its clearance.

    u0 and u1 are the offsets from -1 of matched eigenvalues at the ends
    of the step and motion = u1 - u0 wrapped.  Each eigenvalue sweeps the
    distances from -1 between |u0| and |u1|, widened to 0 if it passes -1
    and to pi if it passes +1.  eps is the midpoint of the widest gap of
    (0, pi) that no swept interval covers, so neither ray pi +/- eps lies
    between an eigenvalue's positions at the two ends of the step.
    """
    d0, d1 = np.abs(u0), np.abs(u1)
    lo = np.where(u0 * (u0 + motion) <= 0.0, 0.0, np.minimum(d0, d1))
    hi = np.where(np.abs(u0 + motion) >= np.pi, np.pi, np.maximum(d0, d1))
    order = np.argsort(lo, kind="stable")
    starts = np.concatenate([[0.0], np.maximum.accumulate(hi[order])])
    ends = np.concatenate([lo[order], [np.pi]])
    gi = int(np.argmax(ends - starts))
    return 0.5 * (starts[gi] + ends[gi]), 0.5 * (ends[gi] - starts[gi])


def sf_phillips(path):
    """Spectral flow by eigenvalue-crossing counting.

    The interval is refined until the matched eigenangle motion between
    neighboring samples is at most MOTION_BOUND and an arc half-width
    eps_j is found that no eigenvalue's matched motion sweeps across with
    clearance MARGIN_MIN or more (`_free_arc`).  No matched eigenvalue then
    touches a ray pi +/- eps_j inside the step, so the step's arc counts
    need no further samples (see `PartitionCertificate` for what this
    rests on).  The flow is the telescoped sum of arc-count differences
    k(t_j, eps_j) - k(t_{j-1}, eps_j); `raw` equals the integer exactly, so
    residual is 0.  The sample cache holds no reference cycle and is
    released on return.
    """
    if not path.finite:
        raise PartitionFailure("compactify the path to a finite interval first")
    a, b = path.interval
    samples = _Samples(path)

    grid = set(np.linspace(a, b, INITIAL_SAMPLES))
    grid.update(path.breakpoints)
    grid = sorted(grid)

    # refine until each step moves little and leaves an arc free
    work = list(zip(grid[:-1], grid[1:]))
    panels = []
    while work:
        t0, t1 = work.pop()
        a0, v0 = samples[t0]
        a1, v1 = samples[t1]
        motion, perm = _match_motion(a0, v0, a1, v1)
        step = np.max(np.abs(motion))
        if step <= MOTION_BOUND:
            u0 = _around_minus_one(a0)
            u1 = _around_minus_one(a1)[perm]
            eps, clearance = _free_arc(u0, u1, motion)
            if clearance >= MARGIN_MIN:
                margin = min(np.min(np.abs(np.abs(u0) - eps)),
                             np.min(np.abs(np.abs(u1) - eps)))
                arcs = (int(np.sum((u1 >= 0.0) & (u1 < eps)))
                        - int(np.sum((u0 >= 0.0) & (u0 < eps))))
                panels.append((t0, t1, eps, float(margin), arcs))
                continue
        if len(samples) >= MAX_SAMPLES:
            raise PartitionFailure(
                f"sample budget {MAX_SAMPLES} exhausted with eigenvalue "
                f"motion {step:.3f} on [{t0:.6g}, {t1:.6g}]")
        tm = 0.5 * (t0 + t1)
        if tm <= t0 or tm >= t1:
            raise PartitionFailure(
                f"cannot refine below floating-point resolution at {t0}")
        work.append((t0, tm))
        work.append((tm, t1))
    panels.sort()

    total = sum(panel[4] for panel in panels)
    cert = PartitionCertificate(
        breakpoints=[panels[0][0]] + [panel[1] for panel in panels],
        epsilons=[panel[2] for panel in panels],
        margins=[panel[3] for panel in panels])
    return SpectralFlowReport(value=int(total), raw=complex(total),
                              residual=0.0, method="phillips",
                              parameters={"samples": len(samples)},
                              warnings=[], certificate=cert)
