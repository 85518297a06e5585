"""Levinson-theorem verification: scattering data versus bound-state counts.

Three routes to the spectral flow of the energy-parametrized
scattering-matrix path are computed and compared:

  (a) the eigenvalue-crossing count on the compactified path, with the
      geodesic cap fixed by the zero-energy scattering matrix;
  (b) the regularized winding integral with the (S - Id)^{d-1} insertion;
  (c) the plain winding integral with the high-energy polynomial derivative
      subtracted, plus the endpoint corrections that relate it to (b).

All three must agree with -N, the bound-state count, after the appropriate
threshold corrections.  Route integrals run in the wavenumber variable
k = sqrt(lambda); the head below k_min is a rectangle estimate.  In d = 1
the body on [k_min, k_max] is adaptive quadrature and the tail beyond k_max
a fitted power law, and the crossing count is `sf_phillips` on the sweep
plus the closed-form counts of the caps that close it.  The d = 1
polynomial is zero (P_1 = 0, so P0 = 0), which makes the subtracted route
the regularized value: d = 1 has two routes, not three.

In d = 3 the S-matrix is diagonal in the partial waves and both integrands
are exact k-derivatives of functions of the phase table: the subtracted one
of sum_l w_l delta_l / pi + moment k, the regularized one of
sum_l w_l G(delta_l) / pi with G(x) = e^{4ix}/(4i) - e^{2ix}/i + x.  Both
bodies are therefore differences of table values at the grid ends.  The
table's branch is anchored at the top of the grid, so delta_l(inf) = 0 and
the regularized tail is exact as well; the subtracted route keeps a fitted
tail, which tests the high-energy polynomial against the table.  The
crossing count is a closed form too: each channel's capped loop is a scalar
loop, whose flow through -1 is its winding number, fixed by the table's
first and last rows and the principal angles of the two caps.  This leaves
less independence in d = 3 than the three routes suggest: the regularized
route and the crossing count are both functions of the table's end rows.
The independent checks are the table's endpoints against the zero-energy
bound-state count, and the subtracted route's high-energy tail.

The d = 1 zero-energy cap: without a resonance the scattering matrix tends
to [[0,-1],[-1,0]] = exp(-i pi Q) with Q the rank-one averaging projection,
and closing the path through exp(-i pi t Q) reproduces the crossing count
-N; the matching integral correction is -1/2, the half-unit carried by the
cap's winding.  The opposite orientation (+1/2) is also reported, as
alt_convention_sf, since both bookkeepings appear in the literature.
"""

import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad
from scipy.interpolate import CubicSpline

from ..errors import (
    Inconclusive,
    IntegrationFailure,
    InvalidGrid,
    OracleDisagreement,
    RouteDisagreement,
    TailNotConverged,
    UnsupportedDimension,
)
from ..matcore import _branch_angles, eig_unitary
from ..rdet import counterterm_exponent, counterterm_series
from ..sflow import SpectralFlowReport, _generator_flow, sf_phillips
from ..upath import UnitaryPath, concatenate, geodesic_between
from .onedim import bound_states_1d, resonance_statistic_1d, smatrix_1d
from .radial import (
    CHANNEL_TOL,
    _channel_counts,
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
# a power-law tail fit is rejected above this log-misfit or at or below
# this decay exponent
MAX_MISFIT = 0.2
MIN_EXPONENT = 1.2
# upper wavenumber edges of the bands of a phase table that share one
# angular cutoff (the top of the grid closes the last band); each band
# costs a radial recursion per refinement round, whose per-node overhead
# outweighs the cut beyond a few bands
K_BANDS = (2.0, 20.0)


# ---------------------------------------------------------------------------
# High-energy polynomials


@dataclass
class HighEnergyPoly:
    """P_d and its derivative p_d, as closures over moments of V.

    coefficients maps monomial tags ("const", "sqrt", "lin") to the complex
    coefficients of 1, lambda^{1/2}, lambda.
    """
    dimension: int
    coefficients: dict

    def P(self, lam):
        c = self.coefficients
        return (c.get("const", 0.0) + c.get("sqrt", 0.0) * np.sqrt(lam)
                + c.get("lin", 0.0) * lam)

    def p(self, lam):
        c = self.coefficients
        return (0.5 * c.get("sqrt", 0.0) / np.sqrt(lam)
                + c.get("lin", 0.0))

    @property
    def P0(self):
        return self.coefficients.get("const", 0.0)


def high_energy_poly(d, V):
    """The subtraction polynomial P_d (1 <= d <= 4) built from the moments
    of the potential; its derivative p_d is what renders the winding
    integrand integrable at high energy."""
    if d not in (1, 2, 3, 4):
        raise UnsupportedDimension(
            f"high-energy polynomial only available for d <= 4, got {d}")
    if d == 1:
        return HighEnergyPoly(1, {})
    m1 = V.integral()
    if d == 2:
        return HighEnergyPoly(2, {"const": -0.5j * m1})
    if d == 3:
        return HighEnergyPoly(3, {"sqrt": -0.5j * m1 / np.pi})
    m2 = V.integral_sq()
    return HighEnergyPoly(4, {"lin": -0.125j * m1 / np.pi,
                              "const": 0.0625j * m2 / np.pi})


def h_correction(S, d):
    """sum_{l=1}^{d-1} ((-1)^l / l) Tr((S - Id)^l), the endpoint sum that
    converts between the regularized and subtracted winding integrals."""
    return counterterm_exponent(np.asarray(S, dtype=complex), int(d))


# ---------------------------------------------------------------------------
# Resonance classification


def resonance_detect(V, d, tol=RES_TOL):
    """Classify the zero-energy threshold behavior of -Delta + V.

    Returns "none", "s_resonance" (bounded non-normalizable zero-energy
    solution), or "threshold_eigenvalue" (l >= 1 channel exactly at
    threshold, d = 3 only).  Raises Inconclusive when a statistic falls in
    the band [tol/2, 2 tol] where the answer would depend on grid details.
    """
    if d == 1:
        s = resonance_statistic_1d(V)
        if tol / 2.0 <= s <= 2.0 * tol:
            raise Inconclusive(
                f"1D resonance statistic {s:.3e} in the band "
                f"[{tol / 2:.1e}, {2 * tol:.1e}]")
        return "s_resonance" if s < tol / 2.0 else "none"
    if d == 3:
        return _classify_3d(threshold_statistics_radial(V, lmax=3), tol)
    raise UnsupportedDimension(f"resonance detection needs d in (1, 3), "
                               f"got {d}")


def _classify_3d(sig, tol):
    """resonance_detect's d = 3 verdict from the threshold statistics of
    channels 0..3."""
    in_band = (sig >= tol / 2.0) & (sig <= 2.0 * tol)
    if np.any(in_band):
        ls = np.where(in_band)[0].tolist()
        raise Inconclusive(
            f"threshold statistic in the band for l = {ls}")
    if sig[0] < tol / 2.0:
        return "s_resonance"
    if np.any(sig[1:] < tol / 2.0):
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


# ---------------------------------------------------------------------------
# Tail extrapolation


def _tail_estimate(ks, values):
    """Power-law tail of a complex integrand sampled on the last octave.

    Fits |f| ~ c k^{-q} in log-log; the tail integral beyond ks[-1] is
    c k^{-(q-1)}/(q-1) carried with the phase of the final sample.  A flat
    or badly fit tail raises TailNotConverged.  Samples at the numerical
    noise floor (phase-shift roundoff amplified by the spline derivative
    sits near 1e-7) carry no usable decay information and are treated as
    an exactly integrable tail; a vanished top octave bounds the true
    contribution by ~1e-4, far below the route tolerances.
    """
    mag = np.abs(values)
    if np.max(mag) < 1e-6:
        return 0.0 + 0j, None
    x = np.log(ks)
    y = np.log(np.maximum(mag, 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    misfit = np.max(np.abs(np.polyval([slope, intercept], x) - y))
    q = -slope
    if misfit > MAX_MISFIT:
        raise TailNotConverged(
            f"tail is not a clean power law (log-misfit {misfit:.2f})")
    if q <= MIN_EXPONENT:
        raise TailNotConverged(
            f"tail decays like k^{slope:.2f}, too slowly to extrapolate")
    k_end = ks[-1]
    mag_tail = np.exp(intercept) * k_end ** (1.0 - q) / (q - 1.0)
    phase = values[-1] / abs(values[-1])
    return phase * mag_tail, q


def _octave_tail(F, k_end):
    """_tail_estimate of F sampled on the top octave [k_end / 2, k_end]."""
    ks = np.geomspace(k_end / 2.0, k_end, 25)
    return _tail_estimate(ks, np.array([F(k) for k in ks]))


def _k_integral(F, k_min, k_max):
    """Integral of the complex F over k > 0: adaptive quadrature on
    [k_min, k_max], a rectangle estimate of the head below k_min and the
    fitted power-law tail beyond k_max.  Returns (integral, quad_error,
    tail_exponent)."""
    body, err = quad(F, k_min, k_max, complex_func=True,
                     epsabs=1e-9, limit=500)
    tail, q = _octave_tail(F, k_max)
    return body + F(k_min) * k_min + tail, err, q


def _geom(k_min, k_max):
    ratio = np.log(k_max / k_min)
    return lambda t: k_min * np.exp(ratio * t)


def _capped_flow(S_of_t, zero_cap=None):
    """Crossing count of the sweep t -> S_of_t(t), t in [0, 1], closed into
    a loop: a geodesic from Id (or, with zero_cap = (Y, S0), the path
    exp(tY) from Id to the zero-energy matrix S0 and a geodesic from S0)
    into S_of_t(0), the sweep, and the principal cap exp((1 - t) Z),
    Z = Log S_of_t(1), back to Id.  That cap is the geodesic from S_of_t(1)
    to Id unless S_of_t(1) has an eigenvalue at -1, which it takes back
    clockwise, as `sf_open_path`'s end cap does.

    The caps from and back to Id are counted in closed form
    (`_generator_flow`) against the first and last samples of what
    `sf_phillips` counts: the sweep, preceded by the geodesic from S0
    when there is a zero-energy cap."""
    sweep = UnitaryPath(S_of_t)
    if zero_cap is None:
        body = sweep
        start = eig_unitary(sweep(0.0))[0]
        caps = _generator_flow(np.sum(start), start)
    else:
        Y, S0 = zero_cap
        body = concatenate(geodesic_between(S0, sweep(0.0)), sweep)
        caps = _generator_flow(np.trace(-1j * Y).real,
                               eig_unitary(body(0.0))[0])
    end = eig_unitary(sweep(1.0))[0]
    caps -= _generator_flow(np.sum(end), end)
    report = sf_phillips(body)
    value = report.value + caps
    return replace(report, value=value, raw=complex(value))


# ---------------------------------------------------------------------------
# d = 1


def _levinson_1d(V, k_min, k_max):
    N = bound_states_1d(V)
    classification = resonance_detect(V, 1)
    poly = high_energy_poly(1, V)

    def S_at(k):
        return smatrix_1d(V, k * k)

    def F(k):
        # (1/2 pi i) Tr(S* dS/dk), the winding integrand in k; S at the
        # three stencil wavenumbers comes from one stacked call
        hk = 1e-6 * (1.0 + k)
        ks = np.array([k - hk, k, k + hk])
        S_lo, S, S_hi = smatrix_1d(V, ks * ks)
        dS = (S_hi - S_lo) / (2.0 * hk)
        return np.trace(S.conj().T @ dS) / (2j * np.pi)

    integral, err, tail_q = _k_integral(F, k_min, k_max)
    correction = -0.5 if classification == "none" else 0.0
    sf_int = integral + correction

    # crossing-count route on the capped path
    kfun = _geom(k_min, k_max)
    zero_cap = None
    if classification == "none":
        Q = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        S0 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        zero_cap = (-1j * np.pi * Q, S0)
    phillips = _capped_flow(lambda t: S_at(kfun(t)), zero_cap)

    routes = {
        "phillips": complex(phillips.value),
        "regularized": sf_int,
        "subtracted": sf_int - poly.P0 / (2j * np.pi),
    }
    return _assemble(
        dimension=1, N=N, classification=classification,
        phillips=phillips, routes=routes, raw_integral=float(integral.real),
        poly=poly, correction=correction,
        alt_convention_sf=float((integral + 0.5).real)
        if classification == "none" else None,
        data={"tail_exponent": tail_q, "quad_error": err},
    )


# ---------------------------------------------------------------------------
# d = 3


def _band_rows(V, ks, cutoff, lmax):
    """Phase-shift rows over channels 0..lmax at the wavenumbers ks, swept
    over channels 0..cutoff only and 0.0 above.  A top swept channel that
    reaches CHANNEL_TOL at any of the ks shows the cutoff too low, and the
    sweep is redone over all channels.  Returns (rows, cutoff used)."""
    lams = np.square(ks)
    if cutoff < lmax:
        kept = phase_shift_rows(V, lams, cutoff)
        if np.all(np.abs(kept[:, -1]) < CHANNEL_TOL):
            rows = np.zeros((len(ks), lmax + 1))
            rows[:, :cutoff + 1] = kept
            return rows, cutoff
    return phase_shift_rows(V, lams, lmax), lmax


class ChannelData:
    """The phase-shift table: shifts delta_l(k), l = 0..lmax, on a refined
    geometric wavenumber grid, with a log-k cubic spline per channel.

    Each refinement round sweeps only its new wavenumbers.  They are split
    into the wavenumber bands closed by K_BANDS, and each band is swept in
    one batched radial recursion over the channels up to its own cutoff,
    choose_lmax at the band's top energy (at most lmax); the table holds
    0.0 above it.  One choose_lmax sweep over the top energies of the
    bands that meet the grid gives every cutoff, and lmax itself when it
    is not given.  deltas[i, l] is unwound in energy, anchored at the top
    of the grid where the principal branch is correct.
    """

    def __init__(self, V, k_min, k_max, points, lmax=None):
        self.V = V
        tops = [k for k in K_BANDS if k_min <= k < k_max] + [k_max]
        cuts = choose_lmax(V, np.square(tops if lmax is None else tops[:-1]))
        self.lmax = int(cuts[-1]) if lmax is None else lmax
        self.weights = 2.0 * np.arange(self.lmax + 1) + 1.0
        # the band closed by the top of the grid runs over all channels
        cutoffs = np.minimum(cuts[:len(tops) - 1], self.lmax).tolist()
        cutoffs.append(self.lmax)
        cache = {}
        ks = list(np.geomspace(k_min, k_max, points))
        for _ in range(12):
            ks.sort()
            new = np.array([k for k in ks if k not in cache])
            band = np.searchsorted(tops, new)
            for b in np.unique(band).tolist():
                sel = new[band == b]
                rows, cutoffs[b] = _band_rows(V, sel, cutoffs[b], self.lmax)
                cache.update(zip(sel, rows))
            rows = np.array([cache[k] for k in ks])
            unwound = np.unwrap(rows[::-1], axis=0, period=np.pi)[::-1]
            jumps = np.max(np.abs(np.diff(unwound, axis=0)), axis=1)
            bad = np.where(jumps > 0.2)[0]
            if len(bad) == 0:
                break
            for i in bad:
                ks.append(np.sqrt(ks[i] * ks[i + 1]))
        else:
            raise IntegrationFailure(
                "phase-shift grid refinement did not flatten all jumps "
                "below 0.2; sharpest remaining step "
                f"{np.max(jumps):.3f}")
        self.ks = np.array(ks)
        self.deltas = unwound
        self._spline = CubicSpline(np.log(self.ks), self.deltas)
        self._dspline = self._spline.derivative()

    def delta(self, k):
        return self._spline(np.log(k))

    def ddelta_dk(self, k):
        """d delta_l / dk at k: one row per wavenumber for an array k."""
        return self._dspline(np.log(k)) / np.asarray(k)[..., None]

    def weighted_dsum(self, k):
        return float(self.weights @ self.ddelta_dk(k))

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


def _route_integrands(data, moment):
    """The two 3D winding integrands in k, F_sub (minus the polynomial
    derivative) and F_reg (with the (S - Id)^2 insertion)."""
    w = data.weights

    def F_sub(k):
        return data.weighted_dsum(k) / np.pi + moment

    def F_reg(k):
        d = data.ddelta_dk(k)
        ph = np.exp(2j * data.delta(k))
        return (w @ (d * (ph - 1.0) ** 2)) / np.pi

    return F_sub, F_reg


def _route_bodies(data, moment):
    """The integrals of F_sub and F_reg over the table's wavenumber range,
    as differences of their primitives sum_l w_l delta_l / pi + moment k
    and sum_l w_l G(delta_l) / pi at the grid ends."""
    lo, hi = data.deltas[0], data.deltas[-1]
    w = data.weights
    body_sub = (float(w @ (hi - lo)) / np.pi
                + moment * (data.ks[-1] - data.ks[0]))
    body_reg = complex(w @ (_reg_primitive(hi) - _reg_primitive(lo))) / np.pi
    return body_sub, body_reg


def _levinson_3d(V, k_min, k_max, points):
    data = ChannelData(V, k_min, k_max, points)
    w = data.weights
    lmax = data.lmax
    # one zero-energy sweep serves the bound-state count, over every
    # channel of the table, and the threshold statistics of channels 0..3
    zero = _zero_energy_radial(V, max(lmax, 3))
    counts = _channel_counts(V, zero)
    if counts[-1]:
        raise OracleDisagreement(
            f"bound states persist beyond the table's cutoff l = "
            f"{len(counts) - 1}")
    mult = 2 * np.arange(len(counts)) + 1
    N = int(np.sum(mult * counts))
    classification = _classify_3d(_threshold_statistics(V, zero)[:4],
                                  RES_TOL)
    poly = high_energy_poly(3, V)

    moment = V.integral() / (4.0 * np.pi ** 2)
    F_sub, F_reg = _route_integrands(data, moment)
    body_sub, body_reg = _route_bodies(data, moment)
    tail_sub, q_sub = _octave_tail(F_sub, k_max)
    I_sub = F_sub(k_min) * k_min + body_sub + tail_sub
    # delta_l(inf) = 0 on the branch anchored at the top of the grid
    tail_reg = complex(w @ (_reg_primitive(0.0)
                            - _reg_primitive(data.deltas[-1]))) / np.pi
    I_reg = F_reg(k_min) * k_min + body_reg + tail_reg

    # zero-energy scattering matrix on the channel diagonal
    s_rank = 1 if classification == "s_resonance" else 0
    S0_diag = np.ones(lmax + 1, dtype=complex)
    if s_rank:
        S0_diag[0] = -1.0
    H0 = complex(np.sum(w * counterterm_series(S0_diag - 1.0, 3)))
    correction = 0.5 * s_rank

    sf_reg = I_reg + H0 / (2j * np.pi) + correction
    sf_sub = I_sub - poly.P(0.0) / (2j * np.pi) + correction

    phillips = _phillips_3d(data, classification)
    # the regularized tail is exact: no fit, no exponent
    data.tail_exponents = {"subtracted": q_sub, "regularized": None}

    # Per-wave statement compares the zero- and infinite-energy limits.
    # delta_0(0+) comes from linear extrapolation in k (the shift is
    # analytic in k at threshold, slope = minus the scattering length);
    # delta_0(inf) is 0 in the branch anchored at the top of the grid.
    d0_zero = float(data.delta(k_min)[0] - k_min * data.ddelta_dk(k_min)[0])
    per_wave = {"delta0_drop": d0_zero,
                "delta0_at_grid_edges": [float(data.deltas[0, 0]),
                                         float(data.deltas[-1, 0])],
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
    return _assemble(
        dimension=3, N=N, classification=classification,
        phillips=phillips, routes=routes, raw_integral=float(np.real(I_reg)),
        poly=poly, correction=correction, per_wave=per_wave, data=data,
    )


def _phillips_3d(data, classification):
    """Per-channel crossing counts, read off the table's end rows.

    Channel l's capped loop runs from 1 to e^{2i delta_l(k_min)} along the
    principal geodesic (through -1 first for the l = 0 s-resonance), along
    the sweep e^{2i delta_l(k)}, and back to 1 along the principal geodesic.
    A scalar loop's flow through -1 is its winding number, so the flow of
    channel l is (theta_start + 2 (delta_l(k_max) - delta_l(k_min))
    + theta_close) / 2 pi, with the principal angles on the branch of
    principal_log_unitary (-1 maps to +pi).  The sum is a multiple of 2 pi
    by construction, and no channel needs sampling.
    """
    lo, hi = data.deltas[0], data.deltas[-1]
    start = np.exp(2j * lo)
    angle = 2.0 * (hi - lo) + _branch_angles(np.exp(-2j * hi))[0]
    if classification == "s_resonance":
        # exp(i pi t) turns channel 0 from 1 to -1 before its geodesic
        start[0] = -start[0]
        angle[0] += np.pi
    angle += _branch_angles(start)[0]
    flows = np.round(angle / (2.0 * np.pi)).astype(int)
    channels = {l: int(f) for l, f in enumerate(flows) if f}
    total = int(data.weights @ flows)
    return SpectralFlowReport(
        value=total, raw=float(total), residual=0.0, method="phillips",
        parameters={"channels": channels, "weights": "2l+1"},
        warnings=[], certificate=None)


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
    n_res = 0.5 if (dimension == 1 and classification == "none") else 0.0
    verdict = "pass" if sf + N == 0 else "fail"
    return LevinsonReport(
        dimension=dimension, N=N, N_res=n_res, sf_regularized=phillips,
        raw_integral=raw_integral,
        polynomial_terms={**poly.coefficients, "P0": poly.P0},
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


def levinson_verify(V, d, grid=None):
    """Verify the bound-state/spectral-flow relation for -Delta + V.

    grid may be None (defaults), an integer (number of wavenumber nodes),
    or a dict with any of k_min, k_max, points.  The d = 1 route integrates
    adaptively and has no node count, so a number of points (as an integer
    or a dict entry) raises InvalidGrid there, as does an unknown key.
    So do wavenumber bounds that are not finite with 0 < k_min < k_max,
    and a number of points that is not an integer >= 2.
    """
    opts = {"k_min": DEFAULT_K_MIN, "k_max": DEFAULT_K_MAX,
            "points": DEFAULT_POINTS}
    if isinstance(grid, int):
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
    if d == 1:
        return _levinson_1d(V, opts["k_min"], opts["k_max"])
    if d == 3:
        return _levinson_3d(V, opts["k_min"], opts["k_max"], opts["points"])
    raise UnsupportedDimension(
        f"end-to-end verification covers d in (1, 3), got {d}")


# ---------------------------------------------------------------------------
# Property studies


def regularization_necessity(V, data=None, Lambda=1e3):
    """Quantifies why the plain winding integrand needs subtraction (d=3).

    Returns the fitted growth exponent of the partial integrals of
    |Tr(S* S')| in the upper energy decades (ideally 1/2) and the ratio of
    the subtracted integrand's tail beyond `Lambda` to the unsubtracted
    partial integral over the whole grid.  Without `data` the phase table
    is built on the default grid of `levinson_verify`.
    """
    if data is None:
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
    k_cut = np.sqrt(Lambda)
    mask = ks >= k_cut
    tail_grid = np.trapezoid(sub[mask], ks[mask])
    try:
        tail_fit, _ = _octave_tail(
            lambda k: data.weighted_dsum(k) / np.pi + moment, ks[-1])
        tail_beyond = 2.0 * np.pi * abs(tail_fit)
    except TailNotConverged:
        tail_beyond = 0.0
    tail = tail_grid + tail_beyond
    return {
        "growth_exponent": float(slope),
        "tail_ratio": float(tail / partial[-1]),
        "Lambda": float(Lambda),
        "partial_final": float(partial[-1]),
        "tail_subtracted": float(tail),
    }


def schatten_decay_exponent(V, d):
    """Fitted log-log slope of ||S(lambda) - Id||_1 over 25 energies from
    1e2 to 1e4, to be compared with -1/2 + (d - 1)/2."""
    lams = np.geomspace(1e2, 1e4, 25)
    norms = np.empty_like(lams)
    if d == 1:
        S = smatrix_1d(V, lams)
        norms[:] = np.sum(np.linalg.svd(S - np.eye(2), compute_uv=False),
                          axis=1)
    elif d == 3:
        lmax = choose_lmax(V, float(np.max(lams)))
        w = 2.0 * np.arange(lmax + 1) + 1.0
        delta = phase_shift_rows(V, lams, lmax)
        norms[:] = np.sum(w * np.abs(np.exp(2j * delta) - 1.0), axis=1)
    else:
        raise UnsupportedDimension(f"trace-norm sweep needs d in (1, 3), "
                                   f"got {d}")
    slope, _ = np.polyfit(np.log(lams), np.log(norms), 1)
    return {"exponent": float(slope),
            "expected": -0.5 + (d - 1) / 2.0,
            "lams": lams, "norms": norms}


__all__ = [
    "ChannelData",
    "HighEnergyPoly",
    "LevinsonReport",
    "h_correction",
    "high_energy_poly",
    "levinson_verify",
    "regularization_necessity",
    "resonance_detect",
    "schatten_decay_exponent",
]
