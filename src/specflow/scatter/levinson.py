"""Levinson-theorem verification: scattering data versus bound-state counts.

Routes to the spectral flow of the energy-parametrized scattering-matrix
path are computed and compared:

  (a) the eigenvalue-crossing count of the sweep closed by caps, read in
      closed form off the end rows, the start cap fixed by the
      zero-energy scattering matrix;
  (b) the regularized winding integral with the (S - Id)^{d-1} insertion;
  (c) in d = 3, the plain winding integral with the high-energy polynomial
      derivative subtracted, plus the endpoint corrections that relate it
      to (b).

All must agree with -N, the bound-state count, after the appropriate
threshold corrections.  Route integrals run in the wavenumber variable
k = sqrt(lambda); the head below k_min is a rectangle estimate.

Both dimensions count crossings the same way (`_phillips`): a channel of
weight w and phase 2 phi(k), continuous in k, closed by a start cap that
turns by s and the principal geodesic out of its last value, which turns
back by e, is a scalar loop whose flow through -1 is its winding number,
(s + 2 (phi(k_max) - phi(k_min)) - e) / 2 pi.  In d = 3 the channels are
the partial waves, of weight 2l + 1 and phase 2 delta_l; in d = 1 there is
one channel of weight 1, since det S = T / conj(T) = e^{2i arg T}
(Birman-Krein), and its phase is 2 arg T.  No path is sampled.  The
principal closing cap is right only where the phase has settled by k_max:
on the 1D wells of half-width 1 and depth 400 and 1000, arg T(100) is
3.96 and 9.76 rad, past pi, so at the default k_max = 100 the closing
cap takes the wrong branch and the count reads -11 and -17, the true
flows of that capped loop, against the winding route's -13 and -21.

One pipeline (`_levinson`) builds every report.  Each dimension gives it
one record (`_evidence_1d`, `_evidence_3d`): the channels' bound-state
counts and the classification from the zero-energy row of its carry, the
rows phi(k_min) and phi(k_max) on the absolute branch, phi(inf) = 0, the
exact slope d phi / dk at k_min, the caps' angles and the threshold
counterterms.  The shared code then runs the crossing count, the route
formulas (`_table_routes`: a rectangle below k_min from the slope, the
body, the tail beyond k_max) and the assembly, which checks each
channel's flow against its count and sums N = sum_l (2l + 1) N_l.  Both
dimensions classify the threshold by one rule (`_classify`), d = 1 its
resonance statistic as channel 0.  The routes read the
rows and slopes at k = 0, k_min and k_max alone; in d = 1 the sampled
check of the rows' branch reads more wavenumbers between them.  The
phase table (`ChannelData`, for the CLI's --csv and
`regularization_necessity`) holds no interpolant either: its rows, and
its shifts and slopes at any wavenumber, are sweeps of the same carry.

In d = 1 one carry (`onedim._carry_1d`) at k = 0 and a geometric grid
from k_min to k_max gives the bound-state count and the resonance
statistic from its zero-energy row, and arg T on the absolute branch from
the node count of its real part.  One `smatrix_1d` call on the grid, with
the exact derivative, gives the matrices the caps end on, S(k_min) and
S(k_max), each checked to rebuild its matrix (`sflow._cap_angles`,
CapMismatch), and the slope d arg T / dk = Tr(S* S') / 2i at k_min.  The
d = 1 zero-energy cap: without a resonance the scattering matrix tends to
S0 = [[0,-1],[-1,0]] = exp(-i pi Q) with Q the rank-one averaging
projection, and closing the path through exp(-i pi t Q) reproduces the
crossing count -N; the matching integral correction is -1/2, the
half-unit carried by the cap's winding.
The cap and the principal geodesic from S0 into S(k_min) turn by -pi +
sum_j theta_j, the theta_j the principal angles of S0* S(k_min).  The
opposite orientation (+1/2) is also reported, as alt_convention_sf,
since both bookkeepings appear in the literature.

The d = 1 winding integrand (1/2 pi i) Tr(S* S') = (1/pi) d arg T / dk
is an exact differential, so its body on [k_min, k_max] is (arg T(k_max)
- arg T(k_min)) / pi, read off the carry's rows once a sampled check of
their branch accepts it (`_branch_check`), the one piece of evidence in
either dimension not taken from the carry alone.  Every sample's stack
of S must be unitary and have det S = e^{2i arg T}; each step between
samples must turn the phase 2 arg T by at most pi / 2 and by its cubic
Hermite integral from the exact slopes Im Tr(S* S') at its ends, else it
is bisected.  A row off its branch by pi fails every step next to it, so
the check raises instead of passing a wrong count.  Each round of the
check makes one carry call and one `smatrix_1d` call on its new
wavenumbers.  The tail beyond k_max is the first high-energy term,
c_1 / k_max with c_1 = integral V / 2 pi.  The d = 1 polynomial is zero
(P_1 = 0, so P0 = 0) and the regularizing insertion is (S - Id)^0 = Id,
so the subtracted route would equal the regularized value exactly: d = 1
reports two routes, the crossing count and the regularized integral.
`_sweep_1d`, t -> S(k(t)) on a geometric wavenumber range with the exact
derivative S'(k) dk/dt, is the path `sf-path --path scattering:FILE`
counts.

In d = 3 the S-matrix is diagonal in the partial waves and both integrands
are exact k-derivatives of functions of the phase shifts: the subtracted
one of sum_l w_l delta_l / pi + moment k, the regularized one of
sum_l w_l G(delta_l) / pi with G(x) = e^{4ix}/(4i) - e^{2ix}/i + x.  Each
route is thus a difference of primitives and reads three things: the row
at k_min, the row at k_max and the slope d delta / dk at k_min, which the
heads below k_min use.  No phase table is built.  One choose_lmax sweep
at k_min and k_max (`radial._cutoff_rows`) gives both rows, the channel
range and the slope, in closed form from the same shell carry: the
energy derivative of the variable phase is the integral of u^2 over the
support against the free solution's (`radial._sweep_rows`).  Every row is
on the absolute branch, delta_l(inf) = 0, from the node count of its own
sweep, so the regularized route, body and exact tail together,
telescopes to the k_min row alone: sum_l w_l (G(0) - G(delta_l(k_min))) /
pi plus its head.  The subtracted route's tail is the first high-energy
term left after P_3, c_3 / k_max with c_3 = -integral V^2 / 16 pi^2, so
that route tests the k_max row against the potential's moments.  This
leaves less independence in d = 3 than the three routes suggest: every
route reads the carry's rows.  The independent checks are each channel's
flow against its zero-energy bound-state count, which the pipeline makes
in both dimensions once the routes agree, and the subtracted route's
k_max row against the moments of the potential.
"""

import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    Inconclusive,
    IntegrationFailure,
    InvalidGrid,
    OracleDisagreement,
    RouteDisagreement,
    UnsupportedDimension,
)
from ..matcore import _branch_angles, check_unitary
from ..rdet import counterterm_series
from ..sflow import SpectralFlowReport, _cap_angles
from ..upath import UnitaryPath
from .onedim import (
    _bound_state_count,
    _carry_1d,
    _resonance_statistic,
    resonance_statistic_1d,
    smatrix_1d,
)
from .radial import (
    CHANNEL_TOL,
    THRESHOLD_LMAX,
    _bound_channels,
    _cutoff_rows,
    _sweep_rows,
    _threshold_statistics,
    choose_lmax,
    phase_shift_rows,
    threshold_statistics_radial,
)

RES_TOL = 1e-6
DEFAULT_K_MIN = 1e-2
DEFAULT_K_MAX = 100.0
DEFAULT_POINTS = 400
RESIDUAL_TOL = 0.05
# the sampled check of the d = 1 rows (`_branch_check`): the first round's
# geometric wavenumbers per decade, the tolerance in rad on det S against
# e^{2i arg T} at each sample and on each step's phase increment against
# its Hermite prediction, and the sample budget
BODY_PER_DECADE = 2
BODY_DET_TOL = 1e-8
BODY_STEP_TOL = 0.1
BODY_SAMPLES = 4096
# upper wavenumber edges of the bands of a phase table that share one
# angular cutoff (the top of the grid closes the last band); each band
# costs one batched radial sweep, whose fixed cost outweighs the cut
# beyond a few bands
K_BANDS = (2.0, 20.0)
# the energy beyond which regularization_necessity takes the subtracted tail
NECESSITY_LAMBDA = 1e3


# ---------------------------------------------------------------------------
# The space dimension


def _dimension(V, d):
    """The space dimension V states (its class constant `dimension`), once
    the caller's d is checked against it: every entry point that takes a d
    goes through here, and a mismatch raises UnsupportedDimension naming
    both."""
    dim = getattr(V, "dimension", None)
    if isinstance(d, bool) or d != dim:
        raise UnsupportedDimension(
            f"d = {d!r} does not match the {type(V).__name__} "
            f"(dimension {dim})")
    return dim


# ---------------------------------------------------------------------------
# High-energy polynomials


@dataclass
class HighEnergyPoly:
    """P_d and the first high-energy term it leaves, from the moments of V.

    coefficients maps the monomial tag "sqrt" to the complex coefficient of
    lambda^{1/2}; it is empty in d = 1, where P_1 = 0.  inv_sqrt is the
    coefficient c_d of the k^-2 decay of the winding integrand in k once
    P_d is subtracted, so that the integral beyond k is c_d / k, the
    lambda^{-1/2} term.
    """
    dimension: int
    coefficients: dict
    inv_sqrt: float
    # neither P_1 nor P_3 has a constant term
    P0 = 0.0

    def P(self, lam):
        return self.coefficients.get("sqrt", 0.0) * np.sqrt(lam)

    def tail(self, k):
        """The integral of the subtracted winding integrand beyond k."""
        return self.inv_sqrt / k


def high_energy_poly(d, V):
    """What is subtracted at high energy, built from the moments of the
    potential.  P_1 = 0 and P_3 = -(i / 2 pi) lambda^{1/2} integral of V;
    the derivative of P_d renders the winding integrand integrable.  The
    first term left is c_1 = integral V / 2 pi, the Born phase, and
    c_3 = -integral V^2 / 16 pi^2, from the heat-trace coefficient
    (t^2 / 2) integral V^2 through the Birman-Krein formula.  In d = 1 the
    next term adds integral V^2 / (8 pi k^3) to the tail."""
    if _dimension(V, d) == 1:
        return HighEnergyPoly(1, {}, V.integral() / (2.0 * np.pi))
    return HighEnergyPoly(3, {"sqrt": -0.5j * V.integral() / np.pi},
                          -V.integral_sq() / (16.0 * np.pi ** 2))


# ---------------------------------------------------------------------------
# Resonance classification


def resonance_detect(V, d):
    """Classify the zero-energy threshold behavior of -Delta + V.

    Returns "none", "s_resonance" (bounded non-normalizable zero-energy
    solution), or "threshold_eigenvalue" (l >= 1 channel exactly at
    threshold, d = 3 only).  Raises Inconclusive when a statistic falls in
    the band [RES_TOL/2, 2 RES_TOL] where the answer would depend on grid
    details.
    """
    if _dimension(V, d) == 1:
        return _classify(resonance_statistic_1d(V))
    return _classify(threshold_statistics_radial(V))


def _classify(sig):
    """resonance_detect's verdict from the threshold statistics of channels
    0..len(sig) - 1: d = 3 reads channels 0..THRESHOLD_LMAX, and d = 1 its
    resonance statistic, a scalar, as channel 0."""
    sig = np.atleast_1d(sig)
    in_band = (sig >= RES_TOL / 2.0) & (sig <= 2.0 * RES_TOL)
    if np.any(in_band):
        ls = np.where(in_band)[0].tolist()
        stats = ", ".join(f"{x:.3e}" for x in sig[ls])
        raise Inconclusive(
            f"threshold statistic {stats} in the band "
            f"[{RES_TOL / 2:.1e}, {2 * RES_TOL:.1e}] for l = {ls}")
    if sig[0] < RES_TOL / 2.0:
        return "s_resonance"
    if np.any(sig[1:] < RES_TOL / 2.0):
        return "threshold_eigenvalue"
    return "none"


# ---------------------------------------------------------------------------
# Report type


@dataclass
class LevinsonReport:
    dimension: int
    N: int
    N_res: float
    sf_regularized: SpectralFlowReport
    raw_integral: float
    polynomial_terms: dict
    # "pass": a failed check raises, so no other verdict is returned
    verdict: str
    routes: dict
    residual: float
    classification: str
    threshold_correction: float
    alt_convention_sf: float = None
    per_wave: dict = None
    data: object = field(default=None, repr=False)

    @property
    def sf(self):
        return int(self.sf_regularized.value)

    def to_dict(self):
        return {
            "dimension": self.dimension,
            "N": self.N,
            "N_res": self.N_res,
            "sf": self.sf,
            "raw_integral": self.raw_integral,
            "polynomial_terms": {k: [v.real, v.imag] if
                                 isinstance(v, complex) else v
                                 for k, v in self.polynomial_terms.items()},
            "verdict": self.verdict,
            "routes": {k: float(np.real(v)) for k, v in self.routes.items()},
            "residual": self.residual,
            "classification": self.classification,
            "threshold_correction": self.threshold_correction,
            "alt_convention_sf": self.alt_convention_sf,
            "per_wave": self.per_wave,
        }


# What a verify reads of one potential, the same record in both dimensions.
# Channel l weighs 2l + 1 and has phase 2 phi_l (d = 3: the partial waves,
# phi_l = delta_l; d = 1: one channel, phi_0 = arg T).  lo, hi and slope
# are phi(k_min), phi(k_max) and d phi / dk at k_min, the rows on the
# absolute branch, phi(inf) = 0; start and end are the angles through which
# each channel's caps turn.  counts are the channels' bound-state counts,
# which their flows must match, and N = sum_l (2l + 1) counts_l.
# correction is the threshold correction of every winding route and
# counterterm the zero-energy term of the regularized one.
_Evidence = namedtuple(
    "_Evidence", "counts classification lo hi slope start end correction "
    "data counterterm per_wave", defaults=(0.0, None))


# ---------------------------------------------------------------------------
# Crossing counts of capped channels


def _phillips(lo, hi, start, end):
    """Per-channel crossing counts of capped scalar loops, read off each
    channel's end rows lo and hi, its phase being 2 lo at k_min and 2 hi at
    k_max on one continuous branch, and the angles start and end through
    which its caps turn (arrays over the channels, or scalars for one).

    Channel l's capped loop runs from 1 to e^{2i lo_l} along its start cap
    (turning by start_l), along the sweep (by 2 (hi_l - lo_l)), and back
    to 1 along the principal geodesic into e^{2i hi_l} run backwards
    (cap_outof, by -end_l, the principal angle on the branch of
    principal_log_unitary, where -1 maps to +pi: a closing cap that starts
    at -1 turns by -pi).  A scalar loop's flow through -1 is its winding
    number, (start_l + 2 (hi_l - lo_l) - end_l) / 2 pi, whose numerator
    is a multiple of 2 pi by construction: no channel needs sampling.
    Channel l weighs 2l + 1: in d = 1 the one channel, of weight 1, has
    phase 2 arg T.
    """
    flows = np.atleast_1d(np.round((start + 2.0 * (hi - lo) - end)
                                   / (2.0 * np.pi)).astype(int))
    channels = {l: int(f) for l, f in enumerate(flows) if f}
    total = int((2 * np.arange(len(flows)) + 1) @ flows)
    return SpectralFlowReport(
        value=total, raw=float(total), residual=0.0, method="phillips",
        parameters={"channels": channels, "weights": "2l+1"},
        warnings=[], certificate=None)


# ---------------------------------------------------------------------------
# d = 1

def _sweep_1d(V, k_min=DEFAULT_K_MIN, k_max=DEFAULT_K_MAX):
    """The 1D scattering sweep t -> S(k(t)), t in [0, 1], over the
    geometric wavenumbers k(t) = k_min (k_max / k_min)^t, with the exact
    derivative S'(k) dk/dt, dk/dt = k ln(k_max / k_min).  Both take every
    parameter of an array in one `smatrix_1d` call."""
    ratio = np.log(k_max / k_min)

    def array_sampler(ts):
        k = k_min * np.exp(ratio * ts)
        return smatrix_1d(V, k * k)

    def array_derivative(ts):
        k = k_min * np.exp(ratio * ts)
        dS = smatrix_1d(V, k * k, derivative=True)[1]
        return dS * (k * ratio)[:, None, None]

    return UnitaryPath(array_sampler=array_sampler,
                       array_derivative=array_derivative, dim=2)


def _checked_rows(V, ks, arg_t):
    """S at the wavenumbers ks with the exact slope of its phase, d (2 arg
    T) / dk = Im Tr(S* S'), from one `smatrix_1d` call.  The stack of S
    must be unitary, and det S = e^{2i arg T} for the carry's rows arg_t,
    within BODY_DET_TOL rad at each k (RouteDisagreement names the first
    k that misses)."""
    S, dS = smatrix_1d(V, ks * ks, derivative=True)
    check_unitary(S)
    det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    miss = np.abs(np.angle(det * np.exp(-2j * arg_t)))
    bad = np.flatnonzero(~(miss <= BODY_DET_TOL))
    if len(bad):
        raise RouteDisagreement(
            f"det S misses e^(2i arg T) of the carry by {miss[bad[0]]:.3e} "
            f"rad at k = {ks[bad[0]]:.6g}")
    return S, np.sum(S.conj() * dS, axis=(1, 2)).imag


def _branch_check(V, ks, arg_t, slope):
    """The sampled check of the carry's rows between k_min = ks[0] and
    k_max = ks[-1], from the rows arg_t and phase slopes at the increasing
    wavenumbers ks; returns the number of samples taken, the given ones
    included.

    A step [k0, k1] between neighbouring samples is accepted when the
    rows' increment of the phase, 2 (arg T(k1) - arg T(k0)), is the cubic
    Hermite integral of its exact end slopes s0 and s1, h (s0 + s1) / 2 +
    h^2 (s0 - s1) / 12, within BODY_STEP_TOL, and that prediction is at
    most pi / 2: a row off its branch by pi, or a turn that the slopes
    miss, fails the step.  Each round samples the geometric midpoints of
    the failing steps in one carry call and one `_checked_rows` call.
    Past BODY_SAMPLES samples, or at a midpoint that falls on an end of
    its step, IntegrationFailure names the worst step."""
    while True:
        h = np.diff(ks)
        predicted = h * (slope[:-1] + slope[1:]) / 2.0 \
            + h * h * (slope[:-1] - slope[1:]) / 12.0
        miss = np.abs(2.0 * np.diff(arg_t) - predicted)
        bad = ~((miss <= BODY_STEP_TOL) & (np.abs(predicted) <= np.pi / 2))
        if not bad.any():
            return len(ks)
        k0, k1 = ks[:-1][bad], ks[1:][bad]
        mid = np.sqrt(k0 * k1)
        if len(ks) + len(mid) > BODY_SAMPLES or np.any(
                (mid <= k0) | (mid >= k1)):
            worst = np.argmax(miss[bad])
            raise IntegrationFailure(
                f"the carry's rows miss the slopes' prediction by "
                f"{miss[bad][worst]:.3e} rad on [{k0[worst]:.9g}, "
                f"{k1[worst]:.9g}] after {len(ks)} samples")
        am = _carry_1d(V, mid)[3]
        order = np.argsort(np.concatenate([ks, mid]))
        ks, arg_t, slope = (np.concatenate(pair)[order] for pair in (
            (ks, mid), (arg_t, am), (slope, _checked_rows(V, mid, am)[1])))


def _evidence_1d(V, k_min, k_max):
    """The d = 1 record: one channel of weight 1 and phase 2 arg T.

    The first round samples a geometric grid from k_min to k_max,
    BODY_PER_DECADE wavenumbers per decade.  One carry at k = 0 and the
    grid gives the bound-state count and the resonance statistic from its
    zero-energy row, and arg T on the absolute branch at every sample;
    one `smatrix_1d` call on the grid gives the matrices the caps end on,
    S(k_min) and S(k_max), and the slope d arg T / dk = Tr(S* S') / 2i at
    every sample, k_min's for the head.  The closing cap is the principal
    geodesic into S(k_max) run backwards, and with a resonance the start
    cap is the principal geodesic into S(k_min).  Without one it is the
    zero cap exp(-i pi t Q) into S0 (trace -pi) followed by the principal
    geodesic from S0 = S0* into S(k_min), which turns by the angles of S0
    S(k_min).  Each cap's angles must rebuild the matrix it ends on
    (`sflow._cap_angles`).  The body, (arg T(k_max) - arg T(k_min)) / pi,
    is read off the rows once `_branch_check` has accepted every step
    between them, the one piece of evidence not taken from the carry
    alone."""
    ks = np.geomspace(k_min, k_max, 1 + int(np.ceil(
        BODY_PER_DECADE * np.log10(k_max / k_min))))
    carry = _carry_1d(V, np.concatenate([[0.0], ks]))
    counts = np.array([_bound_state_count(V, carry)])
    classification = _classify(_resonance_statistic(V, carry))
    arg_t = carry[3][1:]
    S, slope = _checked_rows(V, ks, arg_t)
    samples = _branch_check(V, ks, arg_t, slope)
    ends, turn = S[[0, -1]], 0.0
    if classification == "none":
        S0 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        ends, turn = np.stack([S0 @ S[0], S[-1]]), -np.pi
    start, end = _cap_angles(ends)
    return _Evidence(
        counts=counts, classification=classification,
        lo=arg_t[:1], hi=arg_t[-1:], slope=slope[:1] / 2.0,
        start=turn + np.sum(start), end=np.sum(end),
        correction=-0.5 if classification == "none" else 0.0,
        data={"samples": samples})


# ---------------------------------------------------------------------------
# d = 3


def _band_rows(V, ks, cutoff, lmax):
    """Phase-shift rows over channels 0..lmax at the wavenumbers ks, swept
    over channels 0..cutoff only and 0.0 above.  A top swept channel that
    reaches CHANNEL_TOL at any of the ks shows the cutoff too low, and the
    sweep is redone over all channels."""
    lams = np.square(ks)
    if cutoff < lmax:
        kept = phase_shift_rows(V, lams, cutoff)
        if np.all(np.abs(kept[:, -1]) < CHANNEL_TOL):
            rows = np.zeros((len(ks), lmax + 1))
            rows[:, :cutoff + 1] = kept
            return rows
    return phase_shift_rows(V, lams, lmax)


class ChannelData:
    """The phase-shift table: shifts delta_l(k), l = 0..lmax, on the
    geometric grid of `points` wavenumbers from k_min to k_max, and the
    shifts and slopes d delta_l / dk at any wavenumber, each exact.

    Every row is on the absolute branch, delta_l(inf) = 0, fixed by node
    counting (phase_shift_rows), so the table needs no unwinding and each
    row stands alone.  The grid is split into the wavenumber bands closed
    by K_BANDS, and each band is swept once, in one batched radial
    sweep over the channels up to its own cutoff, choose_lmax at the
    band's top energy; the table holds 0.0 above it.  One choose_lmax
    sweep over the top energies of the bands that meet the grid gives
    every cutoff, and lmax is the cutoff at the top of the grid.  `delta`
    and `ddelta_dk` interpolate nothing: each is one sweep over channels
    0..lmax at the wavenumbers asked for, the shell carry and its
    closed-form slope that the verify reads (`radial._sweep_rows`).
    """

    def __init__(self, V, k_min, k_max, points):
        tops = [k for k in K_BANDS if k_min <= k < k_max] + [k_max]
        cuts = choose_lmax(V, np.square(tops))
        self.V = V
        self.lmax = int(cuts[-1])
        self.weights = 2.0 * np.arange(self.lmax + 1) + 1.0
        self.ks = np.geomspace(k_min, k_max, points)
        band = np.searchsorted(tops, self.ks)
        # the band closed by the top of the grid runs over all channels
        self.deltas = np.concatenate([
            _band_rows(V, self.ks[band == b], min(int(cuts[b]), self.lmax),
                       self.lmax)
            for b in np.unique(band).tolist()])

    def delta(self, k):
        """delta_l at k: one row per wavenumber for an array k."""
        return np.reshape(phase_shift_rows(self.V, np.square(np.ravel(k)),
                                           self.lmax), np.shape(k) + (-1,))

    def ddelta_dk(self, k):
        """d delta_l / dk at k: one row per wavenumber for an array k."""
        return np.reshape(_sweep_rows(self.V, np.square(np.ravel(k)),
                                      self.lmax)[2], np.shape(k) + (-1,))

    def to_csv(self, path):
        """Write the table as CSV: lambda = k^2, then delta_0..delta_lmax."""
        header = "lambda," + ",".join(f"delta_{l}" for l in
                                      range(self.lmax + 1))
        np.savetxt(path, np.column_stack([self.ks ** 2, self.deltas]),
                   delimiter=",", header=header, comments="")


def _reg_primitive(x):
    """G(x) = e^{4ix}/(4i) - e^{2ix}/i + x, so that d G(delta) / dk =
    delta' (e^{2i delta} - 1)^2."""
    return np.exp(4j * x) / 4j - np.exp(2j * x) / 1j + x


def _table_routes(lo, hi, slope, weights, k_min, k_max, moment, tail):
    """The subtracted and regularized winding integrals over k > 0 from
    the phase shifts' evidence: the rows lo = delta(k_min) and hi =
    delta(k_max), on the absolute branch, and the slope d delta / dk at
    k_min.

    Below k_min each integrand is a rectangle read at k_min.  The
    subtracted route adds its body, the difference of sum_l w_l delta_l /
    pi + moment k between the grid ends, and the given tail; the
    regularized body and its exact tail telescope to sum_l w_l (G(0) -
    G(delta_l(k_min))) / pi."""
    head_sub = (slope @ weights / np.pi + moment) * k_min
    body = float(weights @ (hi - lo)) / np.pi + moment * (k_max - k_min)
    head_reg = (weights @ (slope * (np.exp(2j * lo) - 1.0) ** 2)) \
        / np.pi * k_min
    drop = complex(weights @ (_reg_primitive(0.0) - _reg_primitive(lo)))
    return head_sub + body + tail, head_reg + drop / np.pi


def _evidence_3d(V, k_min, k_max):
    """The d = 3 record: the partial waves, channel l of weight 2l + 1 and
    phase 2 delta_l.

    One choose_lmax sweep at k_min and k_max (`radial._cutoff_rows`)
    gives both rows as one array, each 0.0 above its own cutoff, the
    exact slopes at k_min from the same carry, 0.0 above lo's cutoff, and
    the channel range, hi's cutoff, to which the rows and the slopes are
    sliced.  One zero-energy sweep over the channels the potential can
    bind (`radial._bound_channels`) gives the bound-state counts, padded
    with zeros to the rows' channels, and the threshold statistics of
    channels 0..THRESHOLD_LMAX.
    Each channel's caps are the principal geodesics into e^{2i
    delta_l(k_min)} and e^{2i delta_l(k_max)}, and the l = 0
    s-resonance's start cap first turns by pi through -1."""
    cut, rows, slopes = _cutoff_rows(V, np.square([k_min, k_max]))
    lmax = int(cut[1])
    lo, hi = rows[:, :lmax + 1]
    slope = slopes[0, :lmax + 1]
    counts, zero = _bound_channels(V)
    if np.any(counts[lmax:]):
        raise OracleDisagreement(
            f"bound states persist beyond the rows' cutoff l = {lmax}")
    counts = np.pad(counts, (0, max(0, lmax + 1 - len(counts))))
    classification = _classify(
        _threshold_statistics(V, zero)[:THRESHOLD_LMAX + 1])
    s_rank = 1 if classification == "s_resonance" else 0

    start = _branch_angles(np.exp(2j * lo))[0]
    if s_rank:
        # exp(i pi t) turns channel 0 from 1 to -1 before its geodesic
        start[0] = np.pi + _branch_angles(-np.exp(2j * lo[:1]))[0][0]
    # Per-wave statement compares the zero- and infinite-energy limits.
    # delta_0(0+) comes from linear extrapolation in k (the shift is
    # analytic in k at threshold, slope = minus the scattering length);
    # delta_0(inf) is 0 on the absolute branch.
    per_wave = {"delta0_drop": float(lo[0] - k_min * slope[0]),
                "delta0_at_grid_edges": [float(lo[0]), float(hi[0])],
                "expected_drop": float(np.pi * (counts[0] + 0.5 * s_rank)),
                # N_l through l = 8, bound_state_channels' default, and on
                # to the first empty channel
                "channel_counts":
                    counts[:max(9, np.count_nonzero(counts) + 1)].tolist()}
    return _Evidence(
        counts=counts, classification=classification, lo=lo, hi=hi,
        slope=slope, start=start, end=_branch_angles(np.exp(2j * hi))[0],
        correction=0.5 * s_rank, data={"lo": lo, "hi": hi, "slope": slope},
        # the zero-energy scattering matrix is -1 in an s-resonant channel
        # 0, of weight 1, and 1 in every other
        counterterm=complex(counterterm_series(-2.0 * s_rank, 3))
        / (2j * np.pi), per_wave=per_wave)


# ---------------------------------------------------------------------------
# Assembly and the public entry point


def _levinson(V, d, k_min, k_max):
    """The one verify pipeline: the crossing count (`_phillips`) and the
    winding routes (`_table_routes`) from the record of either dimension,
    assembled into the report.

    The subtracted integrand is the plain one less d P_d(k^2) / dk / 2 pi
    i, and P_d is linear in k, so the moment it adds is -P_d(1) / 2 pi i;
    P_d(0) = 0.  In d = 1 the regularized integrand is the plain one,
    (S - Id)^0 = Id, and P_1 = 0, so the route is the subtracted formula,
    its body (arg T(k_max) - arg T(k_min)) / pi; d = 3 reports both
    integrals, the regularized one with its zero-energy counterterm."""
    ev = (_evidence_1d if d == 1 else _evidence_3d)(V, k_min, k_max)
    poly = high_energy_poly(d, V)
    phillips = _phillips(ev.lo, ev.hi, ev.start, ev.end)
    I_sub, I_reg = _table_routes(
        ev.lo, ev.hi, ev.slope, 2.0 * np.arange(len(ev.lo)) + 1.0, k_min,
        k_max, np.real(poly.P(1.0) / (-2j * np.pi)), poly.tail(k_max))
    if d == 1:
        raw, integrals = I_sub, {"regularized": I_sub}
    else:
        raw, integrals = I_reg, {"regularized": I_reg + ev.counterterm,
                                 "subtracted": I_sub}
    routes = {"phillips": complex(phillips.value),
              **{name: I + ev.correction for name, I in integrals.items()}}
    return _assemble(d=d, ev=ev, phillips=phillips, routes=routes,
                     raw_integral=float(np.real(raw)), poly=poly)


def _assemble(d, ev, phillips, routes, raw_integral, poly):
    """The report, once the routes agree after rounding and within
    RESIDUAL_TOL and each channel's flow is minus its zero-energy
    bound-state count, a channel without a flow having flow 0."""
    resid = 0.0
    rounded = {}
    for name, val in routes.items():
        r = int(np.round(np.real(val)))
        rounded[name] = r
        # stray imaginary parts count against the residual budget too
        resid = max(resid, abs(np.real(val) - r), abs(np.imag(val)))
    if len(set(rounded.values())) != 1:
        raise RouteDisagreement(
            f"routes disagree after rounding: " +
            ", ".join(f"{n}={np.real(v):+.6f}" for n, v in routes.items()))
    if resid > RESIDUAL_TOL:
        raise RouteDisagreement(
            f"route residual {resid:.3f} exceeds {RESIDUAL_TOL}")
    flows = np.zeros(len(ev.counts), dtype=int)
    channels = phillips.parameters["channels"]
    flows[list(channels)] = list(channels.values())
    bad = np.flatnonzero(flows + ev.counts)
    if len(bad):
        raise OracleDisagreement(
            f"channel flows {flows[bad].tolist()} against bound-state "
            f"counts {ev.counts[bad].tolist()} at l = {bad.tolist()}")
    # only the d = 1 zero-energy cap corrects by a negative amount, the
    # half-unit it carries, and the opposite orientation is reported too
    half = ev.correction < 0.0
    return LevinsonReport(
        dimension=d, N=int((2 * np.arange(len(ev.counts)) + 1) @ ev.counts),
        N_res=0.5 if half else 0.0,
        sf_regularized=phillips, raw_integral=raw_integral,
        polynomial_terms={**poly.coefficients, "P0": poly.P0,
                          "inv_sqrt": poly.inv_sqrt},
        verdict="pass", routes=routes, residual=resid,
        classification=ev.classification, threshold_correction=ev.correction,
        alt_convention_sf=raw_integral + 0.5 if half else None,
        per_wave=ev.per_wave, data=ev.data)


def _check_grid(k_min, k_max, points):
    """InvalidGrid unless k_min and k_max are finite with 0 < k_min < k_max
    and points is an integer >= 2."""
    for name, k in (("k_min", k_min), ("k_max", k_max)):
        if isinstance(k, bool) or not isinstance(k, numbers.Real) \
                or not np.isfinite(k):
            raise InvalidGrid(f"{name} must be a finite number, got {k!r}")
    if not 0.0 < k_min < k_max:
        raise InvalidGrid(f"need 0 < k_min < k_max, got k_min = {k_min!r} "
                          f"and k_max = {k_max!r}")
    if isinstance(points, bool) or not isinstance(points, numbers.Integral) \
            or points < 2:
        raise InvalidGrid(f"points must be an integer >= 2, got {points!r}")


def _grid_options(d, grid):
    """The wavenumber grid of a verify in d dimensions from its grid
    argument (see levinson_verify), defaults filled in and checked: a dict
    of k_min, k_max and points."""
    opts = {"k_min": DEFAULT_K_MIN, "k_max": DEFAULT_K_MAX,
            "points": DEFAULT_POINTS}
    if isinstance(grid, numbers.Integral):
        grid = {"points": grid}
    elif grid is None:
        grid = {}
    elif not isinstance(grid, dict):
        raise TypeError(f"grid must be None, int, or dict, got {grid!r}")
    unknown = sorted(set(grid) - set(opts))
    if unknown:
        raise InvalidGrid(f"unknown grid keys {unknown}; expected any of "
                          f"{sorted(opts)}")
    if d == 1 and "points" in grid:
        raise InvalidGrid("the d = 1 route chooses its own samples and "
                          "takes no number of grid points; pass k_min or "
                          "k_max")
    opts.update(grid)
    _check_grid(**opts)
    return opts


def levinson_verify(V, d, grid=None):
    """Verify the bound-state/spectral-flow relation for -Delta + V.

    grid may be None (defaults), an integer (number of wavenumber nodes),
    or a dict with any of k_min, k_max, points.  The verify reads only
    k_min and k_max.  In d = 3 points is checked here and then ignored:
    it shapes only the phase table (`ChannelData`, the CLI's --csv), and
    the report does not depend on it.  The d = 1 route chooses its own
    samples between k_min and k_max and has no node count, so a number of
    points (as an integer or a dict entry) raises InvalidGrid there, as
    does an unknown key.
    So do wavenumber bounds that are not finite with 0 < k_min < k_max,
    and a number of points that is not an integer >= 2.  A d other than
    the potential's own dimension (1 for Potential1D, 3 for
    RadialPotential) raises UnsupportedDimension.
    """
    d = _dimension(V, d)
    opts = _grid_options(d, grid)
    return _levinson(V, d, opts["k_min"], opts["k_max"])


# ---------------------------------------------------------------------------
# Property studies


def regularization_necessity(V):
    """Quantifies why the plain winding integrand needs subtraction (d=3).

    Returns the fitted growth exponent of the partial integrals of
    |Tr(S* S')| in the upper energy decades (ideally 1/2) and the ratio of
    the subtracted integrand's tail beyond NECESSITY_LAMBDA (reported as
    "Lambda") to the unsubtracted partial integral over the whole grid.
    Both read the rows of the phase table on the default grid of
    `levinson_verify`, whose DEFAULT_POINTS wavenumbers are each swept
    once, and no slope: |Tr(S* S')| = 2 |sum_l w_l delta_l'|, so over each
    grid interval its integral is 2 |Delta sum_l w_l delta_l| where the sum
    is monotone there and at least that otherwise.  The partial integrals
    are the running sums of these lower bounds, and the subtracted tail
    telescopes the same way, 2 pi |Delta sum_l w_l delta_l / pi + moment
    Delta k| per interval.  So "partial_final" and "tail_subtracted" are
    lower bounds of the integrals they stand for, and "tail_ratio" is a
    ratio of two lower bounds, not an estimate of the tail: near k_max the
    grid spacing nears the period pi / R of each delta_l' in k.
    """
    poly = high_energy_poly(3, V)
    data = ChannelData(V, DEFAULT_K_MIN, DEFAULT_K_MAX, DEFAULT_POINTS)
    ks, phase = data.ks, data.deltas @ data.weights
    partial = np.concatenate([[0.0], np.cumsum(2.0 * np.abs(np.diff(phase)))])
    lam = ks ** 2

    sel = lam >= lam[-1] / 100.0
    slope, _ = np.polyfit(np.log(lam[sel]), np.log(partial[sel]), 1)

    # the subtracted integrand's moment term, -P_3(1) / 2 pi i
    moment = V.integral() / (4.0 * np.pi ** 2)
    mask = ks >= np.sqrt(NECESSITY_LAMBDA)
    tail_grid = 2.0 * np.pi * np.sum(np.abs(
        np.diff(phase[mask]) / np.pi + moment * np.diff(ks[mask])))
    tail = tail_grid + 2.0 * np.pi * abs(poly.tail(ks[-1]))
    return {
        "growth_exponent": float(slope),
        "tail_ratio": float(tail / partial[-1]),
        "Lambda": float(NECESSITY_LAMBDA),
        "partial_final": float(partial[-1]),
        "tail_subtracted": float(tail),
    }


def schatten_decay_exponent(V, d):
    """Fitted log-log slope of ||S(lambda) - Id||_1 over 25 energies from
    1e2 to 1e4, to be compared with -1/2 + (d - 1)/2."""
    lams = np.geomspace(1e2, 1e4, 25)
    if _dimension(V, d) == 1:
        S = smatrix_1d(V, lams)
        norms = np.sum(np.linalg.svd(S - np.eye(2), compute_uv=False),
                       axis=1)
    else:
        lmax = choose_lmax(V, float(np.max(lams)))
        w = 2.0 * np.arange(lmax + 1) + 1.0
        delta = phase_shift_rows(V, lams, lmax)
        norms = np.sum(w * np.abs(np.exp(2j * delta) - 1.0), axis=1)
    slope, _ = np.polyfit(np.log(lams), np.log(norms), 1)
    return {"exponent": float(slope),
            "expected": -0.5 + (d - 1) / 2.0,
            "lams": lams, "norms": norms}


__all__ = [
    "ChannelData",
    "HighEnergyPoly",
    "LevinsonReport",
    "high_energy_poly",
    "levinson_verify",
    "regularization_necessity",
    "resonance_detect",
    "schatten_decay_exponent",
]
