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

In d = 1 one carry (`onedim._carry_1d`) at k = 0, k_min and k_max gives
the bound-state count and the resonance statistic from its zero-energy
row, and arg T(k_min) and arg T(k_max) on the absolute branch, arg T(inf)
= 0, from the node count of its real part, with no energy grid.  The caps'
angles are those of S(k_min) and S(k_max) from one `smatrix_1d` call, each
checked to rebuild its matrix (`sflow._cap_angles`, CapMismatch).  The
d = 1 zero-energy cap: without a resonance the scattering matrix tends to
S0 = [[0,-1],[-1,0]] = exp(-i pi Q) with Q the rank-one averaging
projection, and closing the path through exp(-i pi t Q) reproduces the
crossing count -N; the matching integral correction is -1/2, the
half-unit carried by the cap's winding.  The cap and the principal
geodesic from S0 into S(k_min) turn by -pi + sum_j theta_j, the theta_j
the principal angles of S0* S(k_min).  The opposite orientation (+1/2) is
also reported, as alt_convention_sf, since both bookkeepings appear in the
literature.

The d = 1 winding integrand (1/2 pi i) Tr(S* S') takes the exact
k-derivative of S, and the body on [k_min, k_max] runs the one winding
quadrature of the package, `sflow._adaptive_gk21` (adaptive
Gauss-Kronrod-21 with QUADPACK's qk21 error estimate), to an absolute
K_QUAD_TOL with no relative floor; it calls the vectorized integrand once
per round, on every node of every interval the round refines, and checks
that round's stack of S for unitarity once.  The tail beyond k_max is the
first high-energy term, c_1 / k_max with c_1 = integral V / 2 pi.  This
sampled route and the end rows are the two kinds of evidence the d = 1
verify compares.  The d = 1 polynomial is zero (P_1 = 0, so P0 = 0), so
the subtracted route would equal the regularized value exactly: d = 1
reports two routes, the crossing count and the regularized integral.
`_sweep_1d`, t -> S(k(t)) on a geometric wavenumber range with the exact
derivative S'(k) dk/dt, is the path `sf-path --path scattering:FILE`
counts.

In d = 3 the S-matrix is diagonal in the partial waves and both integrands
are exact k-derivatives of functions of the phase shifts: the subtracted
one of sum_l w_l delta_l / pi + moment k, the regularized one of
sum_l w_l G(delta_l) / pi with G(x) = e^{4ix}/(4i) - e^{2ix}/i + x.  Each
route is thus a difference of primitives and reads three things, taken
once for both (`_end_rows`, `_table_routes`): the row at k_min, the row at
k_max and the slope d delta / dk at k_min, which the heads below k_min use.
No phase table is built.  The k_max row is the one choose_lmax sweeps to
fix the channel range, and the slope is that of a spline through the first
SLOPE_ROWS rows of the geometric grid, swept up to the cutoff the same
choose_lmax sweep finds at the top of them.  Every row is on the absolute
branch, delta_l(inf) = 0, from the node count of its own sweep (radial),
so the regularized route, body and exact tail together, telescopes to the
k_min row alone: sum_l w_l (G(0) - G(delta_l(k_min))) / pi plus its head.
The subtracted route's tail is the first high-energy term left after P_3,
c_3 / k_max with c_3 = -integral V^2 / 16 pi^2, so that route tests the
k_max row against the potential's moments.  This leaves less independence
in d = 3 than the three routes suggest: the regularized route and the
crossing count are both functions of the end rows.  The independent
checks are each channel's flow against its zero-energy bound-state count,
which the 3D pipeline makes once the routes agree, and the subtracted
route's k_max row against the moments of the potential.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from ..errors import (
    Inconclusive,
    InvalidGrid,
    OracleDisagreement,
    RouteDisagreement,
    UnsupportedDimension,
)
from ..matcore import _branch_angles, check_unitary
from ..rdet import counterterm_series
from ..sflow import SpectralFlowReport, _adaptive_gk21, _cap_angles
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
    _channel_counts,
    _cutoff_rows,
    _threshold_statistics,
    _zero_energy_radial,
    choose_lmax,
    phase_shift_rows,
    threshold_statistics_radial,
)

RES_TOL = 1e-6
DEFAULT_K_MIN = 1e-2
DEFAULT_K_MAX = 100.0
DEFAULT_POINTS = 400
RESIDUAL_TOL = 0.05
# upper wavenumber edges of the bands of a phase table that share one
# angular cutoff (the top of the grid closes the last band); each band
# costs one batched radial sweep, whose fixed cost outweighs the cut
# beyond a few bands
K_BANDS = (2.0, 20.0)
# the rows at the bottom of the wavenumber grid that fix the slope at k_min
SLOPE_ROWS = 16
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
        return _classify_1d(resonance_statistic_1d(V))
    return _classify_3d(threshold_statistics_radial(V))


def _classify_1d(s):
    """resonance_detect's d = 1 verdict from the resonance statistic."""
    if RES_TOL / 2.0 <= s <= 2.0 * RES_TOL:
        raise Inconclusive(
            f"1D resonance statistic {s:.3e} in the band "
            f"[{RES_TOL / 2:.1e}, {2 * RES_TOL:.1e}]")
    return "s_resonance" if s < RES_TOL / 2.0 else "none"


def _classify_3d(sig):
    """resonance_detect's d = 3 verdict from the threshold statistics of
    channels 0..THRESHOLD_LMAX."""
    in_band = (sig >= RES_TOL / 2.0) & (sig <= 2.0 * RES_TOL)
    if np.any(in_band):
        ls = np.where(in_band)[0].tolist()
        raise Inconclusive(
            f"threshold statistic in the band for l = {ls}")
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


# the body's absolute tolerance on the summed error estimates
K_QUAD_TOL = 1e-9


def _k_integral(F, k_min, k_max, tail):
    """Integral of the complex, vectorized F over k > 0: adaptive
    Gauss-Kronrod quadrature on [k_min, k_max], a rectangle estimate of
    the head below k_min and the given tail beyond k_max.  Returns
    (integral, quad_error)."""
    body, err = _adaptive_gk21(F, (k_min, k_max), K_QUAD_TOL, 0.0)
    head = F(np.array([k_min]))[0] * k_min
    return body + head + tail, err


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

def _winding_1d(V):
    """The d = 1 winding integrand in k, (1/2 pi i) Tr(S* dS/dk), as a
    function of an array of wavenumbers: one kernel call with the exact
    dS/dk serves them all."""
    def F(ks):
        S, dS = smatrix_1d(V, ks * ks, derivative=True)
        check_unitary(S)
        return np.sum(S.conj() * dS, axis=(1, 2)) / (2j * np.pi)
    return F


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


def _levinson_1d(V, k_min, k_max):
    # one carry at k = 0, k_min and k_max serves the bound-state count, the
    # resonance statistic and the rows arg T(k_min) and arg T(k_max)
    carry = _carry_1d(V, np.array([0.0, k_min, k_max]))
    N = _bound_state_count(V, carry)
    classification = _classify_1d(_resonance_statistic(V, carry))
    poly = high_energy_poly(1, V)

    arg_t = carry[3]
    phillips = _phillips_1d(arg_t[1], arg_t[2],
                            smatrix_1d(V, np.square([k_min, k_max])),
                            classification)

    integral, err = _k_integral(_winding_1d(V), k_min, k_max,
                                poly.tail(k_max))
    correction = -0.5 if classification == "none" else 0.0

    # P_1 = 0, so a subtracted route would repeat the regularized one
    routes = {
        "phillips": complex(phillips.value),
        "regularized": integral + correction,
    }
    return _assemble(
        dimension=1, N=N, classification=classification,
        phillips=phillips, routes=routes, raw_integral=float(integral.real),
        poly=poly, correction=correction,
        alt_convention_sf=float((integral + 0.5).real)
        if classification == "none" else None,
        data={"quad_error": err},
    )


def _phillips_1d(lo, hi, ends, classification):
    """_phillips for the one channel of d = 1, of phase 2 arg T: lo and hi
    are arg T(k_min) and arg T(k_max) on one branch, and ends the stack of
    S(k_min) and S(k_max), on which the caps end.

    The closing cap is the principal geodesic into S(k_max) run backwards,
    and with a resonance the start cap is the principal geodesic into
    S(k_min).  Without one it is the zero cap exp(-i pi t Q) into S0
    (trace -pi) followed by the principal geodesic from S0 = S0* into
    S(k_min), which turns by the angles of S0 S(k_min).  Each cap's angles
    must rebuild the matrix it ends on (`sflow._cap_angles`)."""
    turn = 0.0
    if classification == "none":
        S0 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        ends = np.stack([S0 @ ends[0], ends[1]])
        turn = -np.pi
    start, end = _cap_angles(ends)
    return _phillips(lo, hi, turn + np.sum(start), np.sum(end))


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
    geometric grid of `points` wavenumbers from k_min to k_max, with a
    log-k cubic spline per channel.

    Every row is on the absolute branch, delta_l(inf) = 0, fixed by node
    counting (phase_shift_rows), so the table needs no unwinding and each
    row stands alone.  The grid is split into the wavenumber bands closed
    by K_BANDS, and each band is swept once, in one batched radial
    sweep over the channels up to its own cutoff, choose_lmax at the
    band's top energy; the table holds 0.0 above it.  One choose_lmax
    sweep over the top energies of the bands that meet the grid gives
    every cutoff, and lmax is the cutoff at the top of the grid.
    """

    def __init__(self, V, k_min, k_max, points):
        tops = [k for k in K_BANDS if k_min <= k < k_max] + [k_max]
        cuts = choose_lmax(V, np.square(tops))
        self.lmax = int(cuts[-1])
        self.weights = 2.0 * np.arange(self.lmax + 1) + 1.0
        self.ks = np.geomspace(k_min, k_max, points)
        band = np.searchsorted(tops, self.ks)
        # the band closed by the top of the grid runs over all channels
        self.deltas = np.concatenate([
            _band_rows(V, self.ks[band == b], min(int(cuts[b]), self.lmax),
                       self.lmax)
            for b in np.unique(band).tolist()])
        self._spline = CubicSpline(np.log(self.ks), self.deltas)
        self._dspline = self._spline.derivative()

    def delta(self, k):
        return self._spline(np.log(k))

    def ddelta_dk(self, k):
        """d delta_l / dk at k: one row per wavenumber for an array k."""
        return self._dspline(np.log(k)) / np.asarray(k)[..., None]

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
    """The subtracted and regularized 3D winding integrals over k > 0 from
    the phase shifts' evidence: the rows lo = delta(k_min) and hi =
    delta(k_max), on the absolute branch, and the slope d delta / dk at
    k_min.

    Below k_min each integrand is a rectangle read at k_min.  The
    subtracted route adds its body, the difference of sum_l w_l delta_l /
    pi + moment k between the grid ends, and the given tail; the
    regularized body and its exact tail telescope to sum_l w_l (G(0) -
    G(delta_l(k_min))) / pi."""
    head_sub = (slope @ weights / np.pi + moment) * k_min
    body_sub = float(weights @ (hi - lo)) / np.pi + moment * (k_max - k_min)
    head_reg = (weights @ (slope * (np.exp(2j * lo) - 1.0) ** 2)) \
        / np.pi * k_min
    drop = complex(weights @ (_reg_primitive(0.0) - _reg_primitive(lo)))
    return head_sub + body_sub + tail, head_reg + drop / np.pi


def _end_rows(V, k_min, k_max, points):
    """What the 3D routes read of the phase shifts, each row on the
    absolute branch: (lo, hi, slope), the rows at k_min and k_max and
    d delta / dk at k_min.

    The slope is that of a not-a-knot cubic spline in log k through the
    first SLOPE_ROWS rows of the geometric grid of the given points; lo is
    the first.  One choose_lmax sweep at the top of those rows and at k_max
    gives both cutoffs and hi, the row it sweeps at k_max, whose cutoff is
    lmax.  The low rows are then swept in one batch up to their own
    cutoff, as `_band_rows` sweeps a band of the table."""
    ks = np.geomspace(k_min, k_max, points)[:SLOPE_ROWS]
    cut, ends = _cutoff_rows(V, np.square([ks[-1], k_max]))
    low = _band_rows(V, ks, int(cut[0]), int(cut[1]))
    slope = CubicSpline(np.log(ks), low)(np.log(k_min), 1) / k_min
    return low[0], ends[1], slope


def _levinson_3d(V, k_min, k_max, points):
    lo, hi, slope = _end_rows(V, k_min, k_max, points)
    lmax = len(hi) - 1
    w = 2.0 * np.arange(lmax + 1) + 1.0
    # one zero-energy sweep serves the bound-state count, over every
    # channel of the rows, and the threshold statistics of channels
    # 0..THRESHOLD_LMAX
    zero = _zero_energy_radial(V, max(lmax, THRESHOLD_LMAX))
    counts = _channel_counts(V, zero)
    if counts[-1]:
        raise OracleDisagreement(
            f"bound states persist beyond the rows' cutoff l = "
            f"{len(counts) - 1}")
    mult = 2 * np.arange(len(counts)) + 1
    N = int(np.sum(mult * counts))
    classification = _classify_3d(
        _threshold_statistics(V, zero)[:THRESHOLD_LMAX + 1])
    poly = high_energy_poly(3, V)

    I_sub, I_reg = _table_routes(lo, hi, slope, w, k_min, k_max,
                                 V.integral() / (4.0 * np.pi ** 2),
                                 poly.tail(k_max))

    # zero-energy scattering matrix on the channel diagonal
    s_rank = 1 if classification == "s_resonance" else 0
    S0_diag = np.ones(lmax + 1, dtype=complex)
    if s_rank:
        S0_diag[0] = -1.0
    H0 = complex(np.sum(w * counterterm_series(S0_diag - 1.0, 3)))
    correction = 0.5 * s_rank

    sf_reg = I_reg + H0 / (2j * np.pi) + correction
    sf_sub = I_sub - poly.P(0.0) / (2j * np.pi) + correction

    phillips = _phillips_3d(lo, hi, classification)

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

    routes = {
        "phillips": complex(phillips.value),
        "regularized": sf_reg,
        "subtracted": sf_sub,
    }
    report = _assemble(
        dimension=3, N=N, classification=classification,
        phillips=phillips, routes=routes, raw_integral=float(np.real(I_reg)),
        poly=poly, correction=correction, per_wave=per_wave,
        data={"lo": lo, "hi": hi, "slope": slope},
    )
    # once the routes agree, each channel's flow must be minus its
    # zero-energy bound-state count; a channel without a flow has flow 0
    flows = np.zeros(len(counts), dtype=int)
    for l, f in phillips.parameters["channels"].items():
        flows[l] = f
    bad = np.flatnonzero(flows + counts)
    if len(bad):
        raise OracleDisagreement(
            f"channel flows {flows[bad].tolist()} against bound-state counts "
            f"{counts[bad].tolist()} at l = {bad.tolist()}")
    return report


def _phillips_3d(lo, hi, classification):
    """_phillips over the phase-shift rows lo = delta(k_min) and hi =
    delta(k_max): each channel's caps are the principal geodesics into
    e^{2i delta_l(k_min)} and e^{2i delta_l(k_max)}, and the l = 0
    s-resonance's start cap first turns by pi through -1."""
    start = _branch_angles(np.exp(2j * lo))[0]
    if classification == "s_resonance":
        # exp(i pi t) turns channel 0 from 1 to -1 before its geodesic
        start[0] = np.pi + _branch_angles(-np.exp(2j * lo[:1]))[0][0]
    return _phillips(lo, hi, start, _branch_angles(np.exp(2j * hi))[0])


# ---------------------------------------------------------------------------
# Assembly and the public entry point


def _assemble(dimension, N, classification, phillips, routes, raw_integral,
              poly, correction, data, alt_convention_sf=None, per_wave=None):
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
    sf = rounded["phillips"]
    # only the d = 1 zero-energy cap corrects by a negative amount, the
    # half-unit it carries
    n_res = 0.5 if correction < 0.0 else 0.0
    verdict = "pass" if sf + N == 0 else "fail"
    return LevinsonReport(
        dimension=dimension, N=N, N_res=n_res, sf_regularized=phillips,
        raw_integral=raw_integral,
        polynomial_terms={**poly.coefficients, "P0": poly.P0,
                          "inv_sqrt": poly.inv_sqrt},
        verdict=verdict, routes=routes, residual=resid,
        classification=classification, threshold_correction=correction,
        alt_convention_sf=alt_convention_sf, per_wave=per_wave, data=data)


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
        raise InvalidGrid("the d = 1 route integrates adaptively and takes "
                          "no number of grid points; pass k_min or k_max")
    opts.update(grid)
    _check_grid(**opts)
    return opts


def levinson_verify(V, d, grid=None):
    """Verify the bound-state/spectral-flow relation for -Delta + V.

    grid may be None (defaults), an integer (number of wavenumber nodes),
    or a dict with any of k_min, k_max, points.  The d = 1 route integrates
    adaptively and has no node count, so a number of points (as an integer
    or a dict entry) raises InvalidGrid there, as does an unknown key.
    So do wavenumber bounds that are not finite with 0 < k_min < k_max,
    and a number of points that is not an integer >= 2.  A d other than
    the potential's own dimension (1 for Potential1D, 3 for
    RadialPotential) raises UnsupportedDimension.
    """
    d = _dimension(V, d)
    opts = _grid_options(d, grid)
    if d == 1:
        return _levinson_1d(V, opts["k_min"], opts["k_max"])
    return _levinson_3d(V, opts["k_min"], opts["k_max"], opts["points"])


# ---------------------------------------------------------------------------
# Property studies


def regularization_necessity(V):
    """Quantifies why the plain winding integrand needs subtraction (d=3).

    Returns the fitted growth exponent of the partial integrals of
    |Tr(S* S')| in the upper energy decades (ideally 1/2) and the ratio of
    the subtracted integrand's tail beyond NECESSITY_LAMBDA (reported as
    "Lambda") to the unsubtracted partial integral over the whole grid.
    Both integrands are read off the spline of the phase table on the
    default grid of `levinson_verify`, whose DEFAULT_POINTS wavenumbers
    are each swept once.
    """
    poly = high_energy_poly(3, V)
    data = ChannelData(V, DEFAULT_K_MIN, DEFAULT_K_MAX, DEFAULT_POINTS)
    ks = np.geomspace(data.ks[0], data.ks[-1], 2000)
    dsum = data.ddelta_dk(ks) @ data.weights
    unreg = 2.0 * np.abs(dsum)                       # |Tr(S*S')| d lambda
    partial = cumulative_trapezoid(unreg, ks, initial=0.0)
    lam = ks ** 2

    sel = lam >= lam[-1] / 100.0
    slope, _ = np.polyfit(np.log(lam[sel]), np.log(partial[sel]), 1)

    moment = V.integral() / (4.0 * np.pi ** 2)
    sub = 2.0 * np.pi * np.abs(dsum / np.pi + moment)
    k_cut = np.sqrt(NECESSITY_LAMBDA)
    mask = ks >= k_cut
    tail_grid = np.trapezoid(sub[mask], ks[mask])
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
