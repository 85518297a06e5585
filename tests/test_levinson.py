import json
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline

from specflow.errors import (
    CapMismatch,
    Inconclusive,
    IntegrationFailure,
    InvalidGrid,
    OracleDisagreement,
    RouteDisagreement,
    TailNotConverged,
    UnsupportedDimension,
)
from specflow.scatter import (
    ChannelData,
    Potential1D,
    RadialPotential,
    high_energy_poly,
    levinson_verify,
    regularization_necessity,
    resonance_detect,
    resonance_statistic_1d,
    schatten_decay_exponent,
)
from specflow.scatter import levinson
from specflow.scatter.levinson import (
    _band_rows,
    _route_bodies,
    _route_integrands,
    _tail_estimate,
)
from specflow import sflow
from specflow.sflow import sf_phillips
from specflow.upath import (
    UnitaryPath,
    cap_outof,
    concatenate,
    generator_path,
    geodesic_between,
)
from specflow.scatter.radial import (
    CHANNEL_TOL,
    _zero_energy_radial,
    choose_lmax,
    phase_shift_rows,
    threshold_statistics_radial,
)

WELL1 = Potential1D.square_well(5.0)
WELL3 = RadialPotential.square_well(3.0)
DOUBLE_WELL = Potential1D(segments=((-3.0, -1.0, -6.0), (-1.0, 1.0, 2.0),
                                    (1.0, 3.0, -6.0)))
GAUSSIAN_WELL = Potential1D.from_callable(lambda x: -8.0 * np.exp(-x * x),
                                          (-4.0, 4.0), n_segments=200)


@pytest.fixture(scope="module")
def well3_data():
    return ChannelData(WELL3, 1e-2, 100.0, 400)


# ---------------------------------------------------------------------------
# building blocks


def test_high_energy_poly_coefficients():
    # moments of the depth-3 radius-1 well: m1 = -4 pi, m2 = 12 pi
    assert high_energy_poly(1, WELL3).coefficients == {}
    assert high_energy_poly(1, WELL3).P(5.0) == 0.0
    p2 = high_energy_poly(2, WELL3)
    assert abs(p2.P(7.0) - 2j * np.pi) < 1e-12
    assert p2.p(7.0) == 0.0
    p3 = high_energy_poly(3, WELL3)
    assert abs(p3.P(4.0) - 4j) < 1e-12
    assert abs(p3.p(4.0) - 0.5j) < 1e-12
    assert p3.P(0.0) == 0.0
    p4 = high_energy_poly(4, WELL3)
    assert abs(p4.P(2.0) - 1.75j) < 1e-12
    assert abs(p4.p(2.0) - 0.5j) < 1e-12
    assert abs(p4.P0 - 0.75j) < 1e-12
    with pytest.raises(UnsupportedDimension):
        high_energy_poly(5, WELL3)


def test_tail_estimate_power_law():
    ks = np.geomspace(50.0, 100.0, 25)
    tail, q = _tail_estimate(ks, 7.0 * ks ** -2.0)
    assert abs(q - 2.0) < 1e-8
    assert abs(tail - 0.07) < 1e-8
    # a constant phase rides along unchanged
    tail, _ = _tail_estimate(ks, 7.0 * ks ** -2.0 * np.exp(0.3j))
    assert abs(tail - 0.07 * np.exp(0.3j)) < 1e-8


def test_tail_estimate_noise_floor():
    ks = np.geomspace(50.0, 100.0, 25)
    noise = 1e-8 * np.cos(np.arange(25.0))
    tail, q = _tail_estimate(ks, noise)
    assert tail == 0.0
    assert q is None


def test_tail_estimate_rejections():
    ks = np.geomspace(50.0, 100.0, 25)
    with pytest.raises(TailNotConverged):
        _tail_estimate(ks, np.full(25, 0.5))  # flat
    with pytest.raises(TailNotConverged):
        _tail_estimate(ks, 2.0 / ks)  # too slow to extrapolate
    with pytest.raises(TailNotConverged):
        _tail_estimate(ks, ks ** -2.0 * (1.0 + 0.8 * np.sin(6.0 * np.log(ks))))


def test_resonance_detect_1d():
    assert resonance_detect(WELL1, 1) == "none"
    zero = Potential1D(segments=((-1.0, 1.0, 0.0),))
    assert resonance_detect(zero, 1) == "s_resonance"
    s = resonance_statistic_1d(WELL1)
    with pytest.raises(Inconclusive):
        resonance_detect(WELL1, 1, tol=s)
    with pytest.raises(UnsupportedDimension):
        resonance_detect(WELL1, 2)


def test_resonance_detect_3d():
    assert resonance_detect(WELL3, 3) == "none"
    assert resonance_detect(
        RadialPotential.square_well(np.pi ** 2 / 4.0), 3) == "s_resonance"
    assert resonance_detect(
        RadialPotential.square_well(np.pi ** 2), 3) == "threshold_eigenvalue"
    sigma0 = threshold_statistics_radial(WELL3)[0]
    with pytest.raises(Inconclusive):
        resonance_detect(WELL3, 3, tol=sigma0)


# ---------------------------------------------------------------------------
# d = 1 verification


def test_levinson_1d_single_well():
    rep = levinson_verify(Potential1D.square_well(2.0), 1)
    assert rep.dimension == 1
    assert rep.N == 1
    assert rep.sf == -1
    assert rep.verdict == "pass"
    assert rep.classification == "none"
    assert rep.N_res == 0.5
    assert rep.threshold_correction == -0.5
    assert rep.residual <= 0.05
    # P_1 = 0: a subtracted route would repeat the regularized one exactly
    assert set(rep.routes) == {"phillips", "regularized"}
    for val in rep.routes.values():
        assert abs(np.real(val) + 1.0) < 1e-3
    # half-bound convention: the bare integral rounds to -(N - 1)
    assert abs(rep.alt_convention_sf - 0.0) < 1e-3
    assert 1.5 < rep.data["tail_exponent"] < 2.5
    # routes pinned at 1e-12: restructuring the pipeline must not move them
    pinned = {"phillips": -1.0,
              "regularized": -1.0000172092336068 - 1.1408443650569377e-17j}
    for name, want in pinned.items():
        assert abs(rep.routes[name] - want) < 1e-12
    json.dumps(rep.to_dict())


@pytest.mark.parametrize("V, pinned, tail_exponent, quad_error", [
    (DOUBLE_WELL,
     {"phillips": -4.0,
      "regularized": -4.000151808140283 + 5.135723857992535e-16j},
     1.9954302887314324, 4.450292470290396e-10),
    (GAUSSIAN_WELL,
     {"phillips": -2.0,
      "regularized": -2.0000967490703436 + 7.1038889124498475e-15j},
     1.9982030147645786, 1.6844572383764503e-12),
], ids=["double_well", "gaussian_200_segments"])
def test_levinson_1d_multi_segment_pins(V, pinned, tail_exponent,
                                        quad_error):
    # several segments, folded in a fixed order; the winding integrand takes
    # the exact dS/dk, so rounding in S reaches the routes unamplified, and
    # a change in the fold or in the quadrature's refinement shows here
    rep = levinson_verify(V, 1)
    assert rep.verdict == "pass"
    assert set(rep.routes) == set(pinned)
    for name, want in pinned.items():
        assert abs(rep.routes[name] - want) < 1e-12
    assert abs(rep.data["tail_exponent"] - tail_exponent) < 1e-12
    assert abs(rep.data["quad_error"] - quad_error) < 1e-12


def test_levinson_1d_winding_route_is_batched(monkeypatch):
    # the winding integrand evaluates whole quadrature rounds per kernel
    # call: head, tail and every GK21 round of a depth-20 verify take at
    # most 40 calls, where scalar quadrature made about 1,400
    calls = []
    smatrix = levinson.smatrix_1d

    def counting(V, lam, derivative=False):
        if derivative:
            calls.append(len(lam))
        return smatrix(V, lam, derivative)

    monkeypatch.setattr(levinson, "smatrix_1d", counting)
    rep = levinson_verify(Potential1D.square_well(20.0), 1)
    assert rep.verdict == "pass" and rep.N == 3
    assert len(calls) <= 40
    assert sum(calls) >= 21 + 25 + 1


def test_sweep_1d(monkeypatch):
    # the one 1D sweep: S at the geometric wavenumbers k_min (k_max /
    # k_min)^t, the exact S'(k) dk/dt, and no sample taken to learn its
    # dimension
    calls = []
    smatrix = levinson.smatrix_1d

    def counting(V, lam, derivative=False):
        calls.append(derivative)
        return smatrix(V, lam, derivative)

    monkeypatch.setattr(levinson, "smatrix_1d", counting)
    path = levinson._sweep_1d(WELL1, 0.5, 8.0)
    assert calls == []
    assert path.dim == 2 and path.interval == (0.0, 1.0)
    # k(1/2) = 2
    S, dS = smatrix(WELL1, 4.0, derivative=True)
    assert np.allclose(path(0.5), S, rtol=0, atol=1e-12)
    assert np.allclose(path.derivative(0.5), dS * 2.0 * np.log(16.0),
                       rtol=0, atol=1e-11)
    assert calls == [False, True]
    default = levinson._sweep_1d(WELL1)
    for t, lam in ((0.0, 1e-4), (1.0, 1e4)):
        assert np.allclose(default(t), smatrix(WELL1, lam), rtol=0,
                           atol=1e-12)


@pytest.mark.parametrize("depth, count", [(100.0, 7), (400.0, None),
                                          (1000.0, None)])
def test_levinson_1d_deep_wells(depth, count):
    # the default k_max = 100 is too small past depth 100: the crossing
    # count aliases on the sweep and the routes disagree, loudly
    V = Potential1D.square_well(depth)
    if count is None:
        with pytest.raises(RouteDisagreement):
            levinson_verify(V, 1)
        return
    rep = levinson_verify(V, 1)
    assert rep.verdict == "pass"
    assert rep.N == count and rep.sf == -count


def _k_quad(F, a, b):
    # the shared winding quadrature as the d = 1 body runs it
    return sflow._adaptive_gk21(F, (a, b), levinson.K_QUAD_TOL, 0.0)


def test_gk21_rule():
    # the embedded Gauss rule is the 10-point Gauss-Legendre rule, and the
    # Kronrod rule integrates polynomials of degree 31 exactly
    x, w = np.polynomial.legendre.leggauss(10)
    gauss = sflow.GK21_GAUSS > 0
    assert np.allclose(sflow.GK21_NODES[gauss], x, rtol=0, atol=1e-15)
    assert np.allclose(sflow.GK21_GAUSS[gauss], w, rtol=0, atol=1e-15)
    for degree in range(32):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        got = sflow.GK21_KRONROD @ sflow.GK21_NODES ** degree
        assert abs(got - exact) < 1e-14


def test_adaptive_gk21():
    # levinson's body quadrature is the shared one
    assert levinson._adaptive_gk21 is sflow._adaptive_gk21
    calls = []

    def f(k):
        return np.exp(1j * 40.0 * k) / np.sqrt(k)

    def F(ks):
        calls.append(len(ks))
        return f(ks)

    body, err = _k_quad(F, 1e-2, 10.0)
    exact, _ = quad(f, 1e-2, 10.0, complex_func=True, epsabs=1e-13,
                    epsrel=1e-13, limit=1000)
    assert err <= levinson.K_QUAD_TOL
    assert abs(body - exact) <= err
    assert all(n % 21 == 0 for n in calls)


def test_adaptive_gk21_gives_up():
    rng = np.random.default_rng(3)
    with pytest.raises(IntegrationFailure):
        _k_quad(lambda ks: rng.normal(size=ks.shape), 0.0, 1.0)


def test_adaptive_gk21_rejects_nan():
    # a NaN error estimate raises instead of returning a NaN integral
    with pytest.raises(IntegrationFailure):
        _k_quad(lambda ks: np.full(ks.shape, np.nan), 0.0, 1.0)


def test_levinson_1d_free_resonant():
    zero = Potential1D(segments=((-1.0, 1.0, 0.0),))
    rep = levinson_verify(zero, 1)
    assert rep.N == 0
    assert rep.sf == 0
    assert rep.verdict == "pass"
    assert rep.classification == "s_resonance"
    assert rep.threshold_correction == 0.0
    assert rep.alt_convention_sf is None
    assert rep.residual <= 1e-6


def test_levinson_1d_exact_threshold_refuses():
    # a half-bound state makes the bound-state count ambiguous, and the two
    # counting oracles are allowed to split over it
    with pytest.raises(OracleDisagreement):
        levinson_verify(Potential1D.square_well((np.pi / 2.0) ** 2), 1)


def test_levinson_grid_and_dimension_validation():
    with pytest.raises(UnsupportedDimension):
        levinson_verify(WELL3, 2)
    with pytest.raises(UnsupportedDimension):
        levinson_verify(WELL3, 5)
    with pytest.raises(TypeError):
        levinson_verify(WELL1, 1, grid="fine")
    # the adaptive d = 1 route has no node count to set
    with pytest.raises(InvalidGrid):
        levinson_verify(WELL1, 1, grid=200)
    with pytest.raises(InvalidGrid):
        levinson_verify(WELL1, 1, grid={"points": 200})
    with pytest.raises(InvalidGrid):
        levinson_verify(WELL3, 3, grid={"kmax": 50.0})
    rep = levinson_verify(Potential1D.square_well(2.0), 1,
                          grid={"k_max": 80.0})
    assert rep.verdict == "pass"


@pytest.mark.parametrize("V, d, grid", [
    (WELL1, 1, {"k_min": -1}),
    (WELL1, 1, {"k_min": float("nan")}),
    (WELL1, 1, {"k_max": float("inf")}),
    (WELL1, 1, {"k_max": 0.005}),
    (WELL1, 1, {"k_min": 0.0}),
    (WELL1, 1, {"k_min": "0.1"}),
    (WELL3, 3, {"k_min": -1}),
    (WELL3, 3, 1),
    (WELL3, 3, True),
    (WELL3, 3, {"points": 2.5}),
    (WELL3, 3, {"k_min": 2.0, "k_max": 2.0}),
])
def test_levinson_invalid_grid(V, d, grid, capfd):
    with pytest.raises(InvalidGrid):
        levinson_verify(V, d, grid=grid)
    # refused before any solver runs: LAPACK prints nothing
    assert capfd.readouterr().err == ""


# ---------------------------------------------------------------------------
# d = 3 verification


def test_levinson_3d_single_well():
    rep = levinson_verify(WELL3, 3)
    assert rep.dimension == 3
    assert rep.N == 1
    assert rep.sf == -1
    assert rep.verdict == "pass"
    assert rep.classification == "none"
    assert rep.threshold_correction == 0.0
    assert rep.N_res == 0.0
    assert rep.residual <= 0.05
    for val in rep.routes.values():
        assert abs(np.real(val) + 1.0) < 5e-3
    pw = rep.per_wave
    assert abs(pw["delta0_drop"] - pw["expected_drop"]) < 1e-2 * np.pi
    assert pw["expected_drop"] == np.pi
    assert pw["channel_counts"][0] == 1
    assert sum(pw["channel_counts"][1:]) == 0
    assert set(rep.data.tail_exponents) == {"subtracted", "regularized"}
    # the regularized route's tail is exact, not fitted
    assert rep.data.tail_exponents["regularized"] is None
    # routes pinned at 1e-12: restructuring the pipeline must not move them
    pinned = {"phillips": -1.0,
              "regularized": -0.9999207730483154 - 8.135406400662623e-06j,
              "subtracted": -0.9999423305181321}
    for name, want in pinned.items():
        assert abs(rep.routes[name] - want) < 1e-12
    json.dumps(rep.to_dict())


@pytest.mark.parametrize("depth", [3.0, 12.0])
def test_route_bodies_match_quadrature(depth):
    # quad gets the table's knots as breakpoints: the spline is smooth only
    # between them, and without them quad's error estimate on the depth-12
    # regularized body (3.3e-5) falls short of its actual error (3.6e-5)
    V = RadialPotential.square_well(depth)
    data = ChannelData(V, 1e-2, 100.0, 400)
    moment = V.integral() / (4.0 * np.pi ** 2)
    F_sub, F_reg = _route_integrands(data, moment)
    body_sub, body_reg = _route_bodies(data, moment)
    opts = {"points": data.ks[1:-1], "limit": 2000, "epsabs": 1e-12}
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        q_sub, err_sub = quad(F_sub, 1e-2, 100.0, **opts)
        q_reg, err_reg = quad(F_reg, 1e-2, 100.0, complex_func=True, **opts)
    # quad's estimate covers its own discretisation; 1e-13 allows for the
    # rounding of the closed forms, sums of ~117 terms of order one
    assert abs(body_sub - q_sub) <= err_sub + 1e-13
    assert abs(body_reg.real - q_reg.real) <= err_reg.real + 1e-13
    assert abs(body_reg.imag - q_reg.imag) <= err_reg.imag + 1e-13


def test_levinson_3d_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the 3D routes must not call the quadrature")

    monkeypatch.setattr(levinson, "_adaptive_gk21", refuse)
    rep = levinson_verify(WELL3, 3, grid=200)
    assert rep.verdict == "pass"


def test_levinson_3d_one_zero_energy_sweep(monkeypatch):
    # the bound-state count and the threshold statistics read one sweep
    calls = []

    def counting(V, lmax):
        calls.append(lmax)
        return _zero_energy_radial(V, lmax)

    monkeypatch.setattr(levinson, "_zero_energy_radial", counting)
    rep = levinson_verify(WELL3, 3, grid=200)
    assert calls == [rep.data.lmax]
    assert rep.classification == "none"
    # the statistics of channels 0..3 do not depend on the sweep's cutoff
    assert np.array_equal(
        levinson._threshold_statistics(WELL3, _zero_energy_radial(
            WELL3, rep.data.lmax))[:4],
        threshold_statistics_radial(WELL3))


def test_levinson_3d_counts_every_bound_channel(monkeypatch):
    # 205 states at depth 200, 40 of them in channels 9..10, beyond the old
    # fixed cutoff l = 8; the routes may still disagree on this well, so
    # the count is read where the report is assembled
    seen = {}

    class Assembled(Exception):
        pass

    def assemble(**kwargs):
        seen.update(kwargs)
        raise Assembled

    monkeypatch.setattr(levinson, "_assemble", assemble)
    with pytest.raises(Assembled):
        levinson_verify(RadialPotential.square_well(200.0), 3)
    assert seen["N"] == 205
    assert seen["per_wave"]["channel_counts"] == [5, 4, 4, 3, 3, 2, 2, 1, 1,
                                                  1, 1, 0]


def test_levinson_3d_resonant_well():
    rep = levinson_verify(RadialPotential.square_well(np.pi ** 2 / 4.0), 3)
    assert rep.N == 0
    assert rep.sf == 0
    assert rep.verdict == "pass"
    assert rep.classification == "s_resonance"
    assert rep.threshold_correction == 0.5
    for val in rep.routes.values():
        assert abs(np.real(val)) < 5e-3
    pw = rep.per_wave
    assert pw["expected_drop"] == np.pi / 2.0
    assert abs(pw["delta0_drop"] - np.pi / 2.0) < 1e-2 * np.pi


@pytest.mark.parametrize("depth,N,channels", [
    (20.0, 4, {0: -1, 1: -1}),
    (30.0, 10, {0: -2, 1: -1, 2: -1}),
])
def test_levinson_3d_resonance_leaving_and_returning(depth, N, channels):
    # a near-threshold resonance (l = 2 at depth 20, l = 3 at depth 30)
    # brings e^{2i delta_l} close to -1 and back without crossing; a
    # sampled crossing count read it as crossings and disagreed with the
    # integral routes
    rep = levinson_verify(RadialPotential.square_well(depth), 3)
    assert rep.N == N
    assert rep.sf == -N
    assert rep.verdict == "pass"
    assert rep.sf_regularized.parameters["channels"] == channels


@pytest.mark.parametrize("depth", [3.0, 12.0, np.pi ** 2 / 4.0])
def test_channel_flows_match_capped_phillips(depth):
    # reference: sf_phillips on each channel's capped loop, the sweep
    # e^{2i delta_l(k)} sampled from a spline of the channel's column
    rep = levinson_verify(RadialPotential.square_well(depth), 3)
    data = rep.data
    log_ks = np.log(data.ks)
    flows = rep.sf_regularized.parameters["channels"]
    total = 0
    for ell in range(data.lmax + 1):
        spline = CubicSpline(log_ks, data.deltas[:, ell])

        def sampler(t):
            # log k runs linearly in t over the table's wavenumbers
            log_k = log_ks[0] + t * (log_ks[-1] - log_ks[0])
            return np.array([[np.exp(2j * float(spline(log_k)))]])

        zero_cap = None
        if rep.classification == "s_resonance" and ell == 0:
            zero_cap = (1j * np.pi * np.eye(1), -np.eye(1, dtype=complex))
        want = _capped_count(UnitaryPath(sampler), zero_cap).value
        assert flows.get(ell, 0) == want, ell
        total += (2 * ell + 1) * want
    assert rep.sf == total


def _capped_count(sweep, zero_cap=None):
    # sflow._capped_count on the sweep; with zero_cap = (Y, S0), on the
    # geodesic from S0 into the sweep and the sweep, the cap exp(tY) from
    # Id to S0 counted through its trace
    if zero_cap is None:
        return sflow._capped_count(sweep)[0]
    Y, S0 = zero_cap
    body = concatenate(geodesic_between(S0, sweep(0.0)), sweep)
    return sflow._capped_count(body, np.trace(-1j * Y).real)[0]


def _sampled_capped_flow(S_of_t, zero_cap=None):
    # every cap sampled: sf_phillips on the whole closed loop
    start = S_of_t(0.0)
    eye = np.eye(start.shape[0], dtype=complex)
    if zero_cap is None:
        segs = [geodesic_between(eye, start)]
    else:
        Y, S0 = zero_cap
        segs = [generator_path(Y), geodesic_between(S0, start)]
    segs += [UnitaryPath(S_of_t), cap_outof(S_of_t(1.0))]
    loop = segs[0]
    for seg in segs[1:]:
        loop = concatenate(loop, seg)
    return sf_phillips(loop).value


def test_capped_flow_closed_form_caps_match_sampled_caps():
    # sweeps S(t) = B W diag(e^{i phi(t)}) W* over 2x2 unitaries, some
    # starting or ending with an eigenvalue at -1, against the loop with
    # every cap sampled; the 1D zero-energy cap closes those from S0
    rng = np.random.default_rng(11)
    S0 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
    Q = 0.5 * np.ones((2, 2), dtype=complex)
    zero_cap = (-1j * np.pi * Q, S0)
    cases = []
    for i in range(12):
        W = np.linalg.qr(rng.normal(size=(2, 2))
                         + 1j * rng.normal(size=(2, 2)))[0]
        phi0 = rng.uniform(-np.pi, np.pi, size=2)
        dphi = rng.uniform(-9.0, 9.0, size=2)
        if i % 3 == 0:
            phi0[0] = np.pi
        if i % 3 == 1:
            dphi[1] = np.pi * rng.choice([-3, -1, 1, 3]) - phi0[1]
        cases.append((W, phi0, dphi, None))
        cases.append((W, np.zeros(2), dphi, zero_cap))
    for W, phi0, dphi, cap in cases:
        B = np.eye(2) if cap is None else S0

        def S_of_t(t, W=W, phi0=phi0, dphi=dphi, B=B):
            return B @ (W * np.exp(1j * (phi0 + dphi * t))) @ W.conj().T

        want = _sampled_capped_flow(S_of_t, cap)
        assert _capped_count(UnitaryPath(S_of_t), cap).value == want


def test_capped_count_raises_when_a_cap_misses_its_sample(monkeypatch):
    # eigenangles off by 1e-6 rebuild a matrix 1e-6 away from the sample:
    # the open path and the 1D crossing count both refuse to count
    eig_unitary = sflow.eig_unitary

    def shifted(U):
        angles, vecs = eig_unitary(U)
        return angles + 1e-6, vecs

    monkeypatch.setattr(sflow, "eig_unitary", shifted)
    message = "start cap misses endpoint by 1.000e-06"
    path = geodesic_between(np.eye(2, dtype=complex),
                            np.diag([1j, -1j]).astype(complex))
    with pytest.raises(CapMismatch, match=message):
        sflow.sf_open_path(path, n=1)
    with pytest.raises(CapMismatch, match=message):
        levinson_verify(Potential1D.square_well(2.0), 1)


def test_capped_count_names_the_end_cap_that_misses(monkeypatch):
    # the two end samples are decomposed as one stack: eigenangles off on
    # its last member only make the end cap miss, and the error says so
    eig_unitary = sflow.eig_unitary

    def shifted(U):
        angles, vecs = eig_unitary(U)
        angles[-1] += 1e-6
        return angles, vecs

    monkeypatch.setattr(sflow, "eig_unitary", shifted)
    path = geodesic_between(np.eye(2, dtype=complex),
                            np.diag([1j, -1j]).astype(complex))
    with pytest.raises(CapMismatch,
                       match="end cap misses endpoint by 1.000e-06"):
        sflow.sf_open_path(path, n=1)


# ---------------------------------------------------------------------------
# phase-shift cache and property studies


def test_channel_data_refines_through_resonance():
    # the depth-30 well has a sharp l = 3 shape resonance near lambda = 2.1;
    # grid refinement must keep unwound steps small instead of desyncing
    data = ChannelData(RadialPotential.square_well(30.0), 1e-2, 100.0, 400,
                       lmax=8)
    assert len(data.ks) == data.deltas.shape[0]
    assert np.max(np.abs(np.diff(data.deltas, axis=0))) <= 0.2
    assert abs(float(data.delta(1e-2)[0]) - 2.0 * np.pi) < 0.05


def test_channel_data_spline_consistency(well3_data):
    data = well3_data
    k = 2.3
    h = 1e-5 * k
    fd = (data.delta(k + h) - data.delta(k - h)) / (2.0 * h)
    assert np.allclose(data.ddelta_dk(k), fd, atol=1e-6)


@pytest.mark.parametrize("depth", [3.0, 12.0, 30.0])
def test_channel_cut_keeps_grid_and_entries(depth, monkeypatch):
    # every row the table is built from, by wavenumber (the last sweep of
    # a wavenumber wins, as in the table)
    rows = {}

    def recording(V, lams, lmax):
        out = phase_shift_rows(V, lams, lmax)
        rows.update(zip(np.sqrt(lams), out))
        return out

    V = RadialPotential.square_well(depth)
    monkeypatch.setattr(levinson, "phase_shift_rows", recording)
    cut = ChannelData(V, 1e-2, 100.0, 400)
    cut_rows = dict(rows)
    rows.clear()
    monkeypatch.setattr(levinson, "K_BANDS", ())
    full = ChannelData(V, 1e-2, 100.0, 400)
    assert full.lmax == cut.lmax
    assert np.array_equal(cut.ks, full.ks)
    dropped = 0
    for k in cut.ks:
        kept, whole = cut_rows[k], rows[k]
        assert len(whole) == full.lmax + 1
        assert np.array_equal(kept, whole[:len(kept)])
        assert np.all(np.abs(whole[len(kept):]) < CHANNEL_TOL)
        dropped += len(whole) - len(kept)
    # most of the low-energy channels are cut
    assert dropped > 0.5 * len(cut.ks) * (cut.lmax + 1)
    assert np.all(cut.deltas[0, 20:] == 0.0)


def test_channel_cut_guard_falls_back(monkeypatch):
    ks = np.geomspace(0.5, 1.5, 7)
    full = phase_shift_rows(WELL3, ks ** 2, 8)
    # channel 0 is far above the threshold: the sweep reruns at lmax
    rows, cutoff = _band_rows(WELL3, ks, 0, 8)
    assert cutoff == 8
    assert np.array_equal(rows, full)
    # a cutoff with its top channel below the threshold is kept
    rows, cutoff = _band_rows(WELL3, ks, 6, 8)
    assert cutoff == 6
    assert np.array_equal(rows[:, :7], full[:, :7])
    assert np.all(rows[:, 7:] == 0.0)
    # every band cutoff too low: each band falls back to the full lmax and
    # the table is the uncut one
    monkeypatch.setattr(levinson, "choose_lmax",
                        lambda V, lams: np.zeros(len(lams), dtype=int))
    low = ChannelData(WELL3, 1e-2, 30.0, 100, lmax=12)
    monkeypatch.setattr(levinson, "K_BANDS", ())
    full = ChannelData(WELL3, 1e-2, 30.0, 100, lmax=12)
    assert np.array_equal(low.ks, full.ks)
    assert np.array_equal(low.deltas, full.deltas)


def test_channel_cutoffs_from_one_sweep(monkeypatch):
    # lmax and every band cutoff come from one choose_lmax call at the
    # bands' top energies
    calls = []

    def recording(V, lams):
        calls.append(np.sqrt(lams).tolist())
        return choose_lmax(V, lams)

    monkeypatch.setattr(levinson, "choose_lmax", recording)
    data = ChannelData(WELL3, 1e-2, 30.0, 60)
    assert calls == [[2.0, 20.0, 30.0]]
    assert data.lmax == choose_lmax(WELL3, 900.0)
    calls.clear()
    ChannelData(WELL3, 5.0, 30.0, 60, lmax=12)
    assert calls == [[20.0]]


def test_ddelta_dk_rows(well3_data):
    data = well3_data
    ks = np.geomspace(data.ks[0], data.ks[-1], 2000)
    vec = data.ddelta_dk(ks) @ data.weights
    one = np.array([data.weights @ data.ddelta_dk(k) for k in ks])
    assert np.all(np.abs(vec - one) <= 1e-12 * np.abs(one))


def test_regularization_necessity(well3_data):
    out = regularization_necessity(WELL3, data=well3_data)
    assert abs(out["growth_exponent"] - 0.5) < 0.1
    assert out["tail_ratio"] < 1e-3
    assert out["Lambda"] == 1e3
    assert out["partial_final"] > 0.0
    assert out["tail_subtracted"] >= 0.0


def test_schatten_decay_exponents():
    d1 = schatten_decay_exponent(WELL1, 1)
    assert abs(d1["exponent"] - d1["expected"]) < 0.1
    assert d1["expected"] == -0.5
    d3 = schatten_decay_exponent(WELL3, 3)
    assert abs(d3["exponent"] - d3["expected"]) < 0.1
    assert d3["expected"] == 0.5
    with pytest.raises(UnsupportedDimension):
        schatten_decay_exponent(WELL3, 2)
