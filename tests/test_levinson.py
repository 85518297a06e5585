import json
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from specflow.errors import (
    CapMismatch,
    Inconclusive,
    IntegrationFailure,
    InvalidGrid,
    NonUnitary,
    OracleDisagreement,
    RouteDisagreement,
    SpecflowError,
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
    smatrix_1d,
)
from specflow.scatter import levinson, onedim, radial
from specflow.scatter.levinson import (
    _band_rows,
    _table_routes,
)
from specflow import sflow
from specflow.matcore import _branch_angles, eig_unitary
from specflow.sflow import sf_phillips
from specflow.upath import (
    UnitaryPath,
    cap_into,
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
GENERATED = Potential1D(segments=(
    (-0.505929804916728, 0.5367005537667371, 25.226970101828872),
    (0.5367005537667371, 0.552140554611146, -76.11646900155822),
    (0.552140554611146, 1.1516938620684343, -6.833421070640126),
    (1.1516938620684343, 2.4172869310468856, 14.764350844651647),
    (2.4172869310468856, 2.435807697492514, 13.808684778713117)))


@pytest.fixture(scope="module")
def well3_data():
    return ChannelData(WELL3, 1e-2, 100.0, 400)


# ---------------------------------------------------------------------------
# building blocks


def test_high_energy_poly_coefficients():
    p1 = high_energy_poly(1, WELL1)
    assert p1.coefficients == {}
    assert p1.P(5.0) == 0.0
    assert p1.P0 == 0.0
    # the depth-3 radius-1 well has integral -4 pi, so P_3 = 2i sqrt(lambda)
    p3 = high_energy_poly(3, WELL3)
    assert abs(p3.P(4.0) - 4j) < 1e-12
    assert p3.P(0.0) == 0.0
    assert p3.P0 == 0.0
    # the first terms left: integral V / 2 pi in d = 1 (the depth-5 well
    # has integral -10) and -integral V^2 / 16 pi^2 in d = 3 (12 pi)
    assert abs(p1.inv_sqrt + 5.0 / np.pi) < 1e-12
    assert abs(p1.tail(100.0) + 0.05 / np.pi) < 1e-12
    assert abs(p3.inv_sqrt + 0.75 / np.pi) < 1e-12
    with pytest.raises(UnsupportedDimension):
        high_energy_poly(3, WELL1)


# every entry point that takes d; regularization_necessity takes none and
# is checked as d = 3
DIMENSION_ENTRY_POINTS = {
    "levinson_verify": lambda V, d: levinson_verify(V, d),
    "resonance_detect": resonance_detect,
    "schatten_decay_exponent": schatten_decay_exponent,
    "high_energy_poly": lambda V, d: high_energy_poly(d, V),
    "regularization_necessity": lambda V, d: regularization_necessity(V),
}
DIMENSION_MISMATCHES = [
    (entry, V, d) for entry in sorted(DIMENSION_ENTRY_POINTS)
    for V, d in ((WELL1, 3), (WELL3, 1))
    if not (entry == "regularization_necessity" and d == 1)]


@pytest.mark.parametrize(
    "entry, V, d", DIMENSION_MISMATCHES,
    ids=[f"{e}-{type(V).__name__}-d{d}" for e, V, d in DIMENSION_MISMATCHES])
def test_dimension_mismatch_is_loud(entry, V, d):
    # a potential used under another dimension raises a typed error that
    # names both sides, never an AttributeError from the wrong pipeline
    with pytest.raises(UnsupportedDimension) as info:
        DIMENSION_ENTRY_POINTS[entry](V, d)
    message = str(info.value)
    assert f"d = {d}" in message
    assert type(V).__name__ in message


def test_resonance_detect_1d(monkeypatch):
    assert resonance_detect(WELL1, 1) == "none"
    zero = Potential1D(segments=((-1.0, 1.0, 0.0),))
    assert resonance_detect(zero, 1) == "s_resonance"
    with pytest.raises(UnsupportedDimension):
        resonance_detect(WELL1, 2)
    # a statistic at RES_TOL sits in the band
    monkeypatch.setattr(levinson, "RES_TOL", resonance_statistic_1d(WELL1))
    with pytest.raises(Inconclusive):
        resonance_detect(WELL1, 1)


def test_resonance_detect_3d(monkeypatch):
    assert resonance_detect(WELL3, 3) == "none"
    assert resonance_detect(
        RadialPotential.square_well(np.pi ** 2 / 4.0), 3) == "s_resonance"
    assert resonance_detect(
        RadialPotential.square_well(np.pi ** 2), 3) == "threshold_eigenvalue"
    sigma0 = threshold_statistics_radial(WELL3)[0]
    monkeypatch.setattr(levinson, "RES_TOL", sigma0)
    with pytest.raises(Inconclusive):
        resonance_detect(WELL3, 3)


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
    # routes pinned at 1e-12: restructuring the pipeline must not move them
    pinned = {"phillips": -1.0,
              "regularized": -1.0000133476381077 + 6.652137711592486e-17j}
    for name, want in pinned.items():
        assert abs(rep.routes[name] - want) < 1e-12
    json.dumps(rep.to_dict())


@pytest.mark.parametrize("V, pinned, samples", [
    (DOUBLE_WELL,
     {"phillips": -4.0,
      "regularized": -4.000005751097031 + 2.4940673978155744e-17j}, 39),
    (GAUSSIAN_WELL,
     {"phillips": -2.0,
      "regularized": -2.000062817459451 + 3.2779416775792827e-16j}, 23),
    # a generated potential, N = 0, on whose sampled sweep a capped
    # Phillips count aliases to -1
    (GENERATED,
     {"phillips": 0.0,
      "regularized": -4.2004641930493136e-05 - 1.0861684076938605e-16j},
     75),
], ids=["double_well", "gaussian_200_segments", "generated_five_segments"])
def test_levinson_1d_multi_segment_pins(V, pinned, samples):
    # several segments, multiplied in a fixed pairwise tree; the routes
    # read the carry's rows and the exact dS/dk at k_min, so rounding in S
    # reaches them unamplified, and a change in the tree, the carry or the
    # sampled check's acceptance of a step shows here: the routes are
    # pinned at 1e-12 and the sampled check's count of samples exactly
    rep = levinson_verify(V, 1)
    assert rep.verdict == "pass"
    assert set(rep.routes) == set(pinned)
    for name, want in pinned.items():
        assert abs(rep.routes[name] - want) < 1e-12
    assert rep.data["samples"] == samples


def test_levinson_1d_samples_no_path(monkeypatch):
    # the crossing count is closed-form in the end rows: with Phillips'
    # engine replaced by one that raises, the bench's five 1D verifies
    # still pass
    def refuse(path):
        raise AssertionError("sf_phillips sampled a path")

    monkeypatch.setattr(sflow, "sf_phillips", refuse)
    for V, count in ((Potential1D.square_well(2.0), 1), (WELL1, 2),
                     (Potential1D.square_well(20.0), 3), (DOUBLE_WELL, 4),
                     (GAUSSIAN_WELL, 2)):
        rep = levinson_verify(V, 1)
        assert rep.verdict == "pass" and rep.N == count and rep.sf == -count


def test_levinson_1d_overflowed_transfer_product_is_non_unitary():
    # across the width-2 barrier of height 4e5 (kappa w about 1265) the
    # transfer product overflows: S is refused as NonUnitary, naming the
    # product, with no floating-point warning on the way
    V = Potential1D(segments=((-1.0, 1.0, 4e5),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonUnitary, match="transfer matrix product"):
            levinson_verify(V, 1)
        with pytest.raises(NonUnitary, match="overflowed at k = 1,"):
            smatrix_1d(V, 1.0)
        with pytest.raises(NonUnitary, match="overflowed at k = 2,"):
            smatrix_1d(V, np.array([4.0, 9.0]), derivative=True)


def test_levinson_1d_winding_route_is_batched(monkeypatch):
    # the sampled check of the rows takes each round in one carry call and
    # one smatrix_1d call, with the exact dS/dk, on the same new
    # wavenumbers: the first round's carry call also carries k = 0, and
    # the first round's S also gives the caps and the slope at k_min
    calls = []
    smatrix, carry = levinson.smatrix_1d, levinson._carry_1d

    def counting_smatrix(V, lam, derivative=False):
        calls.append(("smatrix", derivative, np.sqrt(lam).tolist()))
        return smatrix(V, lam, derivative)

    def counting_carry(V, ks):
        calls.append(("carry", None, ks.tolist()))
        return carry(V, ks)

    monkeypatch.setattr(levinson, "smatrix_1d", counting_smatrix)
    monkeypatch.setattr(levinson, "_carry_1d", counting_carry)
    rep = levinson_verify(Potential1D.square_well(20.0), 1)
    assert rep.verdict == "pass" and rep.N == 3
    kinds = [kind for kind, _, _ in calls]
    rounds = len(calls) // 2
    assert rounds >= 2 and kinds == ["carry", "smatrix"] * rounds
    assert all(derivative for kind, derivative, _ in calls[1::2])
    assert calls[0][2][0] == 0.0
    grid = np.geomspace(levinson.DEFAULT_K_MIN, levinson.DEFAULT_K_MAX, 9)
    assert np.array_equal(calls[0][2][1:], grid)
    for (_, _, ks), (_, _, smatrix_ks) in zip(calls[::2], calls[1::2]):
        assert np.allclose(smatrix_ks, ks[len(ks) - len(smatrix_ks):],
                           rtol=1e-15, atol=0)
    assert sum(len(ks) for _, _, ks in calls[1::2]) == rep.data["samples"]


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


@pytest.mark.parametrize("depth, count, grid", [
    pytest.param(100.0, 7, None, id="100.0-7"),
    pytest.param(400.0, None, None, id="400.0-None"),
    pytest.param(1000.0, None, None, id="1000.0-None"),
    pytest.param(1000.0, 21, {"k_max": 1000.0}, id="1000.0-21-k_max_1000"),
])
def test_levinson_1d_deep_wells(depth, count, grid):
    # the default k_max = 100 is too small past depth 100: arg T(100) is
    # 3.96 and 9.76 rad at depths 400 and 1000, so the principal cap that
    # closes the sweep takes the wrong branch and the crossing count reads
    # the capped loop's true flow, -11 and -17, while the winding route
    # reads -13 and -21; the routes disagree, loudly.  At k_max = 1000
    # arg T is near the Born phase, 1 rad at depth 1000, and both routes
    # read the count
    V = Potential1D.square_well(depth)
    if count is None:
        with pytest.raises(RouteDisagreement):
            levinson_verify(V, 1, grid)
        return
    rep = levinson_verify(V, 1, grid)
    assert rep.verdict == "pass"
    assert rep.N == count and rep.sf == -count


def _assembled(monkeypatch, V, d, grid=None):
    # the keyword arguments of _assemble, read before it checks the routes
    seen = {}

    class Assembled(Exception):
        pass

    def assemble(**kwargs):
        seen.update(kwargs)
        raise Assembled

    monkeypatch.setattr(levinson, "_assemble", assemble)
    with pytest.raises(Assembled):
        levinson_verify(V, d, grid)
    return seen


def test_levinson_1d_depth_400_route_reads_the_count(monkeypatch):
    # 13 states: with the explicit tail integral V / (2 pi k_max) the
    # winding route reads -13.012 on the default grid, while the verify
    # still raises: arg T(100) = 3.96 rad lies past pi, so the principal
    # closing cap takes the wrong branch and the crossing count reads -11
    routes = _assembled(monkeypatch, Potential1D.square_well(400.0),
                        1)["routes"]
    assert abs(routes["regularized"] + 13.0) < levinson.RESIDUAL_TOL


@pytest.mark.parametrize("k_max", [200.0, 400.0, 1000.0])
def test_levinson_1d_double_well_past_default_k_max(k_max):
    # the closed-form crossing count against Phillips' count of the sweep
    # as sf-path samples it, closed by the closed-form counts of the
    # zero-energy cap with its geodesic into the sweep, and of the
    # principal closing cap.  At k_max = 1000 the winding quadrature the
    # body used to run needed more than QUAD_LIMIT intervals
    rep = levinson_verify(DOUBLE_WELL, 1, grid={"k_max": k_max})
    assert rep.verdict == "pass"
    assert rep.N == 4 and rep.sf == -4
    sweep = levinson._sweep_1d(DOUBLE_WELL, levinson.DEFAULT_K_MIN, k_max)
    S0 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
    trace = -np.pi + np.sum(eig_unitary(S0 @ sweep(0.0))[0])
    start, end = (eig_unitary(sweep(t))[0] for t in (0.0, 1.0))
    sampled = (sf_phillips(sweep).value
               + sflow._generator_flow(trace, start)
               - sflow._generator_flow(np.sum(end), end))
    assert rep.sf == sampled


def _generated_1d(draws):
    # the generated 1D potentials: numpy default_rng(0), and per draw
    # n = integers(1, 6) segments, edges = sort(uniform(-3, 3, n + 1)),
    # U = uniform(0, 2.5) and values = uniform(-1, 0.3, n) 10^U
    rng = np.random.default_rng(0)
    out = {}
    for i in range(max(draws) + 1):
        n = rng.integers(1, 6)
        edges = np.sort(rng.uniform(-3.0, 3.0, n + 1))
        scale = 10.0 ** rng.uniform(0.0, 2.5)
        values = rng.uniform(-1.0, 0.3, n) * scale
        if i in draws:
            out[i] = Potential1D(segments=tuple(zip(
                edges[:-1].tolist(), edges[1:].tolist(), values.tolist())))
    return out


@pytest.mark.parametrize("draw, count", [(9, 21), (96, 19), (131, 15),
                                         (136, 18)])
def test_levinson_1d_generated_past_default_k_max(draw, count):
    # arg T(100) lies past pi on these four, so on the default grid the
    # principal closing cap takes the wrong branch and the verify raises;
    # at k_max = 1000 it passes, where the winding quadrature the body used
    # to run needed more than QUAD_LIMIT intervals
    V = _generated_1d({draw})[draw]
    with pytest.raises(RouteDisagreement):
        levinson_verify(V, 1)
    rep = levinson_verify(V, 1, grid={"k_max": 1000.0})
    assert rep.verdict == "pass"
    assert rep.N == count and rep.sf == -count


def _zero_energy_count(mp, segments):
    """The 30-digit bound-state count of the 1D potential with these
    (x0, x1, v) segments: the zeros of the zero-energy solution u = 1,
    u' = 0 left of the support, advanced in closed form across each
    segment, and one more beyond it where u and u' oppose.  Where v < 0
    the Pruefer angle of (q u, u'), q^2 = -v, advances by q d and each
    multiple of pi it passes is a zero; elsewhere u (cosh/sinh, or linear
    where v = 0) has a zero iff it changes sign."""
    with mp.workdps(30):
        u, du, zeros = mp.mpf(1), mp.mpf(0), 0
        for x0, x1, v in segments:
            d, v = mp.mpf(x1) - mp.mpf(x0), mp.mpf(v)
            if v < 0:
                q = mp.sqrt(-v)
                angle = mp.atan2(q * u, du)
                zeros += int(mp.floor((angle + q * d) / mp.pi)
                             - mp.floor(angle / mp.pi))
                cs, sn = mp.cos(q * d), mp.sin(q * d)
                u, du = u * cs + du * sn / q, du * cs - q * u * sn
                continue
            if v > 0:
                kappa = mp.sqrt(v)
                ch, sh = mp.cosh(kappa * d), mp.sinh(kappa * d)
                new = u * ch + du * sh / kappa, du * ch + kappa * u * sh
            else:
                new = u + du * d, du
            zeros += 1 if u * new[0] < 0 else 0
            u, du = new
        return zeros + (1 if u * du < 0 else 0)


def test_generated_1d_set_counts_or_raises():
    # all 200 draws of the generated law: each passes with the 30-digit
    # zero-energy count or raises a typed error; none reports a wrong N.
    # The tally of outcomes is printed (pytest -s), and not pinned
    mp = pytest.importorskip("mpmath")
    tally = {}
    for draw, V in _generated_1d(set(range(200))).items():
        try:
            rep = levinson_verify(V, 1)
        except SpecflowError as exc:
            outcome = type(exc).__name__
        else:
            N = _zero_energy_count(mp, V.segments)
            assert (rep.verdict, rep.N, rep.sf) == ("pass", N, -N), draw
            outcome = "pass"
        tally[outcome] = tally.get(outcome, 0) + 1
    print(f"\ngenerated 1D set, 200 draws: {dict(sorted(tally.items()))}")


def _recorded_rows(monkeypatch, shift=None):
    # every wavenumber k > 0 the verify carries and its row arg T(k), with
    # shift(k, arg_t) added to the rows the verify reads
    carry = levinson._carry_1d
    rows = {}

    def recording(V, ks):
        out = carry(V, ks)
        arg_t = out[3] if shift is None else out[3] + shift(ks, out[3])
        rows.update((k, a) for k, a in zip(ks.tolist(), arg_t.tolist())
                    if k > 0.0)
        return out[:3] + (arg_t,)

    monkeypatch.setattr(levinson, "_carry_1d", recording)
    return rows


def test_levinson_1d_narrow_resonance(monkeypatch):
    # GENERATED has a resonance of width 3.3e-4 at k = 1.301, through which
    # arg T climbs by about 2.9 rad between the default grid's samples 1
    # and 3.16.  The carry's rows decide each step: the check bisects until
    # no step's phase turns by more than pi / 2 and the tolerance, and the
    # verify passes with N = 0.  It is draw 159 of the generated law
    assert _generated_1d({159})[159].segments == GENERATED.segments
    rows = _recorded_rows(monkeypatch)
    rep = levinson_verify(GENERATED, 1)
    assert rep.verdict == "pass" and rep.N == 0 and rep.sf == 0
    assert len(rows) == rep.data["samples"]
    ks = np.array(sorted(rows))
    phase = 2.0 * np.array([rows[k] for k in ks])
    assert np.max(np.abs(np.diff(phase))) <= np.pi / 2 + levinson.BODY_STEP_TOL
    inside = ks[(ks > 1.2995) & (ks < 1.3025)]
    assert len(inside) >= 5
    assert phase[ks == inside[-1]] - phase[ks == inside[0]] > 2.0


def test_levinson_1d_branch_slip_is_refused(monkeypatch):
    # a row off its branch by pi past the resonance leaves det S and every
    # cap unchanged, and would move both routes by one unit alike, to the
    # wrong integer; the step across the slip never matches the slopes'
    # prediction, and the check gives up loudly, as it does on the true
    # rows when the sample budget cannot resolve the resonance
    _recorded_rows(monkeypatch, lambda ks, arg_t: np.where(
        ks > 1.3011, np.pi, 0.0))
    with pytest.raises(IntegrationFailure, match=r"on \[1\.3011"):
        levinson_verify(GENERATED, 1)
    monkeypatch.undo()
    monkeypatch.setattr(levinson, "BODY_SAMPLES", 40)
    with pytest.raises(IntegrationFailure, match=r"after 3\d samples$"):
        levinson_verify(GENERATED, 1)


def test_levinson_1d_det_check_names_the_wavenumber(monkeypatch):
    # a row that is not the phase of det S / 2 at a sample is refused
    # there, before any step is judged
    _recorded_rows(monkeypatch, lambda ks, arg_t: np.where(
        ks == 1.0, 1e-6, 0.0))
    with pytest.raises(RouteDisagreement,
                       match=r"misses e\^\(2i arg T\) of the carry by "
                             r"2\.000e-06 rad at k = 1$"):
        levinson_verify(DOUBLE_WELL, 1)


def test_levinson_1d_solves_the_zero_energy_equation_once(monkeypatch):
    # the bound-state count, the resonance statistic and the end rows of
    # the crossing count share one carry: the k = 0 row rides in the first
    # round's call, with the geometric grid from k_min to k_max, and no
    # later round of the sampled check carries k = 0 again
    carry = levinson._carry_1d
    calls = []

    def counting(V, ks):
        calls.append((V, ks.tolist()))
        return carry(V, ks)

    monkeypatch.setattr(levinson, "_carry_1d", counting)
    monkeypatch.setattr(onedim, "_carry_1d", counting)
    rep = levinson_verify(WELL1, 1)
    assert rep.verdict == "pass" and rep.N == 2
    assert all(V is WELL1 for V, _ in calls)
    first = calls[0][1]
    assert first[0] == 0.0
    assert first[1] == levinson.DEFAULT_K_MIN
    assert first[-1] == levinson.DEFAULT_K_MAX
    later = [k for _, ks in calls[1:] for k in ks]
    assert all(levinson.DEFAULT_K_MIN < k < levinson.DEFAULT_K_MAX
               for k in later)


def _k_quad(F, a, b):
    # the shared winding quadrature at the engines' default tolerance
    return sflow._adaptive_gk21(F, (a, b), sflow.DEFAULT_EPSABS, 0.0)


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
    calls = []

    def f(k):
        return np.exp(1j * 40.0 * k) / np.sqrt(k)

    def F(ks):
        calls.append(len(ks))
        return f(ks)

    body, err = _k_quad(F, 1e-2, 10.0)
    exact, _ = quad(f, 1e-2, 10.0, complex_func=True, epsabs=1e-13,
                    epsrel=1e-13, limit=1000)
    assert err <= sflow.DEFAULT_EPSABS
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
    # a half-bound state makes the bound-state count ambiguous: the exact
    # zero-energy solution has one node, as the finite-difference count
    # and the one strictly bound state have, and the verify refuses where
    # the crossing count (0) and the winding integral (-1) split over it
    V = Potential1D.square_well((np.pi / 2.0) ** 2)
    assert onedim.bound_states_1d(V) == 1
    with pytest.raises(RouteDisagreement,
                       match=r"phillips=\+0\.0+, regularized=-1\.0+$"):
        levinson_verify(V, 1)


def test_levinson_grid_and_dimension_validation():
    with pytest.raises(UnsupportedDimension):
        levinson_verify(WELL3, 2)
    with pytest.raises(UnsupportedDimension):
        levinson_verify(WELL3, 5)
    with pytest.raises(TypeError):
        levinson_verify(WELL1, 1, grid="fine")
    # the d = 1 route chooses its own samples: no node count to set
    with pytest.raises(InvalidGrid):
        levinson_verify(WELL1, 1, grid=200)
    # any integer type is a number of points, numpy's too
    with pytest.raises(InvalidGrid):
        levinson_verify(WELL1, 1, grid=np.int64(200))
    with pytest.raises(InvalidGrid, match="points must be an integer >= 2"):
        levinson_verify(WELL3, 3, grid=np.int64(1))
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


# the routes of levinson_verify(WELL3, 3); tests/test_oracle_3d.py rebuilds
# the two integrals from 30-digit rows and slopes of the well's closed
# form, which read -0.9999207733980897 - 8.135370256179663e-06j and
# -0.9999860187221464
WELL3_ROUTES = {"phillips": -1.0,
                "regularized": -0.9999207733980897 - 8.135370256179655e-06j,
                "subtracted": -0.999986018731483}


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
    # routes pinned at 1e-12: restructuring the pipeline must not move them
    for name, want in WELL3_ROUTES.items():
        assert abs(rep.routes[name] - want) < 1e-12
    json.dumps(rep.to_dict())


def _route_integrands(data, moment):
    # the two 3D winding integrands in k, written out from the carry's
    # exact shifts and slopes over the table's channels: F_sub minus the
    # polynomial derivative, F_reg with the (S - Id)^2 insertion.  Each
    # array of wavenumbers is swept once: F_reg's first quadrature round,
    # on the nodes of F_sub's, reuses its sweep
    w = data.weights
    sweeps = {}

    def sweep(k):
        key = k.tobytes()
        if key not in sweeps:
            delta, branch, slope = radial._sweep_rows(data.V, k * k,
                                                      data.lmax)
            sweeps[key] = delta + branch * np.pi, slope
        return sweeps[key]

    def F_sub(k):
        return sweep(k)[1] @ w / np.pi + moment

    def F_reg(k):
        delta, d = sweep(k)
        return (d * (np.exp(2j * delta) - 1.0) ** 2) @ w / np.pi

    return F_sub, F_reg


def _rows_less_closed_form(depth, k, rows):
    # each row of the radius-1 well at k less the well's 30-digit shift on
    # the row's own branch; test_oracle_3d imports this module, so its
    # oracle is imported here
    mp = pytest.importorskip("mpmath")
    from test_oracle_3d import _well_principal
    out = []
    with mp.workdps(30):
        for ell, row in enumerate(rows):
            miss = mp.mpf(row) - _well_principal(depth, mp.mpf(k), ell)
            out.append(float(miss - mp.pi * mp.nint(miss / mp.pi)))
    return np.array(out)


@pytest.mark.parametrize("depth", [3.0, 12.0])
def test_route_bodies_match_quadrature(depth):
    # the shared quadrature runs geometric intervals up to k = 1 and steps
    # of 2 above, where each delta_l' oscillates in k with period about
    # pi / R; each round evaluates every new node in one batched sweep
    V = RadialPotential.square_well(depth)
    data = ChannelData(V, 1e-2, 100.0, 400)
    moment = V.integral() / (4.0 * np.pi ** 2)
    F_sub, F_reg = _route_integrands(data, moment)
    w, lo, hi = data.weights, data.deltas[0], data.deltas[-1]
    tail = high_energy_poly(3, V).tail(100.0)
    I_sub, I_reg = _table_routes(lo, hi, data.ddelta_dk(1e-2), w, 1e-2,
                                 100.0, moment, tail)
    # less the rectangles below k_min, the subtracted tail and, for the
    # regularized route, its exact tail from delta_l(k_max) to
    # delta_l(inf) = 0, the routes are the bodies on [k_min, k_max]
    def G(x):
        return np.exp(4j * x) / 4j - np.exp(2j * x) / 1j + x

    k_min = np.array([1e-2])
    body_sub = I_sub - F_sub(k_min)[0] * 1e-2 - tail
    body_reg = (I_reg - F_reg(k_min)[0] * 1e-2
                - complex(w @ (G(0.0) - G(hi))) / np.pi)
    edges = np.concatenate([np.geomspace(1e-2, 1.0, 11)[:-1],
                            np.linspace(1.0, 100.0, 50)])
    q_sub, err_sub = sflow._adaptive_gk21(F_sub, edges, 1e-12, 0.0)
    q_reg, err_reg = sflow._adaptive_gk21(F_reg, edges, 1e-12, 0.0)
    # the subtracted body telescopes the rows themselves, and a row at
    # k_max = 100 is a difference of phases of about k_max R = 100 rad:
    # it misses the closed form by up to 6.4e-15, with one sign across
    # channels (q = sqrt(k^2 + V0) is shared), so the weighted sum misses
    # the exact slopes' integral by 9.3e-12 (depth 3) and 1.3e-11 (depth
    # 12).  The reference carries that rounding, each row less the 30-digit
    # shift of the closed-form well at both ends
    rounding = (w @ (_rows_less_closed_form(depth, data.ks[-1], hi)
                     - _rows_less_closed_form(depth, data.ks[0], lo))
                / np.pi)
    # the estimate covers the quadrature's own discretisation; 1e-13 allows
    # for the rounding of the closed forms, sums of ~117 terms of order one
    assert abs(body_sub - q_sub.real - rounding) <= err_sub + 1e-13
    assert abs(body_reg.real - q_reg.real) <= err_reg + 1e-13
    assert abs(body_reg.imag - q_reg.imag) <= err_reg + 1e-13


def test_levinson_3d_runs_no_quadrature(monkeypatch):
    # nor does the 1D verify, whose body is read off the checked rows
    def refuse(*args, **kwargs):
        raise AssertionError("the routes must not call the quadrature "
                             "or build the phase table")

    monkeypatch.setattr(sflow, "_adaptive_gk21", refuse)
    monkeypatch.setattr(levinson, "ChannelData", refuse)
    rep = levinson_verify(WELL3, 3, grid=200)
    assert rep.verdict == "pass"
    assert levinson_verify(DOUBLE_WELL, 1).verdict == "pass"


def test_levinson_3d_carries_three_energies(monkeypatch):
    # the rows, the slope, the bound-state counts and the threshold
    # statistics all come from carries at lambda = 0, k_min^2 and k_max^2
    carry = radial._carry
    energies = set()

    def recording(V, lams, lmax):
        energies.update(np.asarray(lams).tolist())
        return carry(V, lams, lmax)

    monkeypatch.setattr(radial, "_carry", recording)
    rep = levinson_verify(RadialPotential.square_well(12.0), 3)
    assert rep.verdict == "pass" and rep.N == 4
    assert energies == {0.0, 1e-4, 1e4}


def test_levinson_3d_points_set_no_verify_grid():
    # the verify reads k_min, k_max and no grid between them: a coarse
    # grid gives the default grid's report, while a number of points below
    # 2 is still refused
    coarse, default = (levinson_verify(RadialPotential.square_well(12.0), 3,
                                       grid) for grid in (60, None))
    assert coarse.to_dict() == default.to_dict()
    for name in ("lo", "hi", "slope"):
        assert np.array_equal(coarse.data[name], default.data[name])
    with pytest.raises(InvalidGrid):
        levinson_verify(WELL3, 3, grid={"points": 1})


def test_levinson_3d_one_zero_energy_sweep(monkeypatch):
    # the bound-state counts and the threshold statistics read one sweep
    # over channels 0..max(8, l), l the first channel with l(l+1) >= R^2
    # depth, which the well cannot bind: 9 channels at depth 3 and 15 at
    # depth 200 (14 * 15 = 210), not the rows' 100-odd
    calls = []

    def counting(V, lmax):
        calls.append(lmax)
        return _zero_energy_radial(V, lmax)

    monkeypatch.setattr(radial, "_zero_energy_radial", counting)
    for depth, top in ((3.0, 8), (200.0, 14)):
        calls.clear()
        V = RadialPotential.square_well(depth)
        rep = levinson_verify(V, 3, grid=200)
        assert calls == [top]
        assert len(rep.data["hi"]) > top + 1
        assert rep.classification == "none"
        # the statistics of channels 0..3 do not depend on the sweep's
        # cutoff
        assert np.array_equal(levinson._threshold_statistics(
            V, _zero_energy_radial(V, top))[:4],
            threshold_statistics_radial(V))


@pytest.mark.parametrize("depth, N", [(50.0, 29), (100.0, 69), (200.0, 205)])
def test_levinson_3d_deep_wells(depth, N):
    # the rows are absolute from node counts, so no unwinding can slip by
    # pi in a channel; depth 100 gave up refining its unwound table and
    # depth 200 read a spurious pi in channels 7, 11 and 12
    rep = levinson_verify(RadialPotential.square_well(depth), 3)
    assert rep.verdict == "pass"
    assert rep.N == N
    assert rep.sf == -N
    counts = rep.per_wave["channel_counts"]
    assert rep.sf_regularized.parameters["channels"] == {
        l: -c for l, c in enumerate(counts) if c}
    for val in rep.routes.values():
        assert abs(np.real(val) + N) < 0.05


def test_levinson_3d_counts_every_bound_channel():
    # 205 states at depth 200, 40 of them in channels 9..10, beyond the old
    # fixed cutoff l = 8
    rep = levinson_verify(RadialPotential.square_well(200.0), 3)
    assert rep.N == 205
    assert rep.per_wave["channel_counts"] == [5, 4, 4, 3, 3, 2, 2, 1, 1, 1,
                                              1, 0]


def test_levinson_3d_channel_flows_against_counts(monkeypatch):
    # the depth-12 well holds one state each in l = 0 and 1 (N = 4); a
    # count that puts all four in l = 0 keeps N, so the routes agree with
    # it, and only the per-channel check sees the channels disagree
    counts = radial._channel_counts

    def misplaced(V, zero):
        out = counts(V, zero)
        assert out[:3].tolist() == [1, 1, 0]
        out[:2] = [4, 0]
        return out

    monkeypatch.setattr(radial, "_channel_counts", misplaced)
    with pytest.raises(OracleDisagreement, match=re.escape(
            "channel flows [-1, -1] against bound-state counts [4, 0] at "
            "l = [0, 1]")):
        levinson_verify(RadialPotential.square_well(12.0), 3)


def test_levinson_1d_channel_flow_against_count(monkeypatch):
    # the 1D record is one channel of weight 1, and its flow is checked as
    # a 3D channel's is: a count of N + 1 on the depth-5 well (N = 2)
    # raises, where a verdict of "fail" used to be returned
    count = levinson._bound_state_count
    monkeypatch.setattr(levinson, "_bound_state_count",
                        lambda V, carry: count(V, carry) + 1)
    with pytest.raises(OracleDisagreement, match=re.escape(
            "channel flows [-2] against bound-state counts [3] at "
            "l = [0]")):
        levinson_verify(WELL1, 1)


def test_levinson_3d_counts_beyond_short_rows(monkeypatch):
    # rows that stop at l = 1 leave the depth-12 well's l = 1 state at
    # their top channel, which the flows cannot see
    rows = levinson._cutoff_rows

    def short(V, lams):
        cut, row, slope = rows(V, lams)
        return np.minimum(cut, 1), row[:, :2], slope[:, :2]

    monkeypatch.setattr(levinson, "_cutoff_rows", short)
    with pytest.raises(OracleDisagreement, match=re.escape(
            "bound states persist beyond the rows' cutoff l = 1")):
        levinson_verify(RadialPotential.square_well(12.0), 3)


def test_levinson_3d_routes_are_checked_before_channels(monkeypatch):
    # on a grid ending at k_max = 20 the depth-100 well's shifts are far
    # from their limit 0: the crossing count closes each channel with its
    # principal cap and reads +156, while the regularized route, which
    # needs only the k_min row, reads -69.  Channel flows then miss their
    # counts too, but the per-channel check runs once the routes agree,
    # and here they do not
    V = RadialPotential.square_well(100.0)
    grid = {"k_max": 20.0, "points": 100}
    with pytest.raises(RouteDisagreement,
                       match="routes disagree after rounding"):
        levinson_verify(V, 3, grid=grid)
    seen = _assembled(monkeypatch, V, 3, grid)
    flows = seen["phillips"].parameters["channels"]
    counts = seen["ev"].counts
    assert any(flows.get(l, 0) != -c for l, c in enumerate(counts))


@pytest.mark.parametrize("depth, grid", [
    (depth, grid) for depth in (3.0, 12.0) for grid in (60, 80, 100, 120)]
    + [(3.0, 150)])
def test_levinson_3d_coarse_grids(depth, grid):
    # a power law fitted to the subtracted integrand's top octave raised on
    # these grids, where a spline derivative, not the physics, shaped the
    # octave; the explicit tail reads no octave, and the verify reads no
    # grid between k_min and k_max
    rep = levinson_verify(RadialPotential.square_well(depth), 3, grid=grid)
    assert rep.verdict == "pass"
    assert rep.N == {3.0: 1, 12.0: 4}[depth]
    assert rep.residual < 1e-4


@pytest.mark.parametrize("depth", [3.0, 12.0, 30.0])
def test_subtracted_tail_matches_phase_shifts(depth):
    # the subtracted integrand's primitive sum_l (2l+1) delta_l / pi
    # + moment k vanishes at infinity, so beyond k it integrates to -G(k);
    # the explicit tail c_3 / k must read the same at k = 100
    V = RadialPotential.square_well(depth)
    k = 100.0
    lmax = choose_lmax(V, k * k)
    delta = phase_shift_rows(V, np.array([k * k]), lmax)[0]
    G = ((2.0 * np.arange(lmax + 1) + 1.0) @ delta / np.pi
         + V.integral() * k / (4.0 * np.pi ** 2))
    tail = high_energy_poly(3, V).tail(k)
    assert abs(tail + G) < 1e-2 * abs(tail)


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


def _square_well_count(mp, dim, depth):
    """The 30-digit bound-state count of the square well of this float
    depth and half-width (d = 1) or radius (d = 3) 1, with x = sqrt(depth):
    in d = 1 the n >= 0 with n pi / 2 < x; in d = 3 the zeros of cos below
    x for l = 0 and of j_{l-1} below x for l >= 1, each of weight 2l + 1."""
    with mp.workdps(30):
        x = mp.sqrt(mp.mpf(depth))

        def below(zero):
            # the number of m >= 1 with zero(m) < x, zero increasing
            n = 0
            while zero(n + 1) < x:
                n += 1
            return n

        if dim == 1:
            return below(lambda m: (m - 1) * mp.pi / 2)
        N = below(lambda m: (2 * m - 1) * mp.pi / 2)
        for ell in range(1, 100):
            n = below(lambda m: mp.besseljzero(ell - 0.5, m))
            if n == 0:
                return N
            N += (2 * ell + 1) * n


# the threshold set's runs that pass: (d, m, relative offset)
THRESHOLD_PASSING = {
    (1, 2, 0.0), (1, 2, -1e-8), (1, 2, -1e-2), (1, 3, 1e-2), (1, 3, -1e-2),
    (3, 1, 0.0), (3, 1, -1e-8), (3, 2, 1e-8), (3, 2, 1e-4), (3, 2, 1e-2),
    (3, 2, -1e-2), (3, 3, 0.0), (3, 3, -1e-8), (3, 3, 1e-2), (3, 3, -1e-2)}


def test_threshold_set_counts_or_raises():
    # square wells at the depths (m pi / 2)^2, m = 1, 2, 3, where a bound
    # state enters, and at relative offsets +-1e-8, +-1e-6, +-1e-4 and
    # +-1e-2, in both dimensions: 54 runs.  Each either passes with the
    # 30-digit count or raises a typed error; none reports a wrong N
    mp = pytest.importorskip("mpmath")
    passing = set()
    for dim, well in ((1, Potential1D), (3, RadialPotential)):
        for m in (1, 2, 3):
            for rel in (0.0, 1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4, 1e-2,
                        -1e-2):
                depth = (m * np.pi / 2) ** 2 * (1 + rel)
                try:
                    rep = levinson_verify(well.square_well(depth), dim)
                except SpecflowError:
                    continue
                N = _square_well_count(mp, dim, depth)
                assert (rep.verdict, rep.N, rep.sf) == ("pass", N, -N)
                passing.add((dim, m, rel))
    assert passing == THRESHOLD_PASSING


def test_levinson_3d_exact_second_s_threshold():
    # the float depth (3 pi / 2)^2 lies 5.2e-16 below the depth at which
    # the second s-state enters, so the well holds one state each in
    # l = 0, 1 and 2 (N = 9) and its s-wave sits at a zero-energy
    # resonance.  bench/references.bound_states_3d_square_well reads 10
    # here: its floor(kappa / pi + 1/2) rounds the s-count up at the exact
    # threshold, so it is no reference at exact threshold depths
    mp = pytest.importorskip("mpmath")
    depth = (1.5 * np.pi) ** 2
    with mp.workdps(30):
        assert mp.mpf(depth) < (3 * mp.pi / 2) ** 2
    rep = levinson_verify(RadialPotential.square_well(depth), 3)
    assert rep.verdict == "pass"
    assert rep.N == 9
    assert rep.classification == "s_resonance"
    assert rep.per_wave["channel_counts"][:4] == [1, 1, 1, 0]


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
    # e^{2i delta_l(k)} sampled from a spline of the phase table's column
    V = RadialPotential.square_well(depth)
    rep = levinson_verify(V, 3)
    data = ChannelData(V, 1e-2, 100.0, 400)
    assert data.lmax == len(rep.data["hi"]) - 1
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


@pytest.mark.parametrize("hi, flow", [
    (np.pi / 2 - 1e-9, 0), (np.pi / 2, 0), (np.pi / 2 + 1e-9, 1),
    (-np.pi / 2, -1),
])
def test_phillips_3d_closing_cap_at_minus_one(hi, flow):
    # e^{2i delta(k_max)} at or next to -1: the closing cap, cap_outof of
    # the last sample, turns by minus its principal angle, so by -pi from
    # -1 itself; the closed form counts the loop sf_phillips samples
    lo = 0.3

    def S(t):
        return np.array([[np.exp(2j * (lo + t * (hi - lo)))]])

    loop = concatenate(concatenate(cap_into(S(0.0)), UnitaryPath(S)),
                       cap_outof(S(1.0)))
    assert sf_phillips(loop).value == flow
    # the 3D caps turn by the principal angles of their ends
    start, end = (_branch_angles(np.exp(2j * np.array([x])))[0]
                  for x in (lo, hi))
    rep = levinson._phillips(np.array([lo]), np.array([hi]), start, end)
    assert rep.value == flow


def _capped_count(sweep, zero_cap=None):
    # sflow._capped_count on the sweep; with zero_cap = (Y, S0), on the
    # cap exp(tY) from Id to S0, the geodesic from S0 into the sweep and
    # the sweep, all sampled
    if zero_cap is None:
        return sflow._capped_count(sweep)[0]
    Y, S0 = zero_cap
    body = concatenate(concatenate(generator_path(Y),
                                   geodesic_between(S0, sweep(0.0))), sweep)
    return sflow._capped_count(body)[0]


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
    # every cap sampled; the 1D zero-energy cap closes those from S0, both
    # with its geodesic into the sweep sampled and as the 1D verify counts
    # it, in closed form from the det phase, sum phi(t) over the sweep
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
        sweep = UnitaryPath(S_of_t)
        assert _capped_count(sweep, cap).value == want
        if cap is not None:
            # the 1D crossing count: one channel, whose phase 2 arg T is
            # the det phase sum phi(t) here, its start cap turning by -pi
            # and the angles of S0 S(0), its closing cap by those of S(1)
            start, end = sflow._cap_angles(
                np.stack([S0 @ S_of_t(0.0), S_of_t(1.0)]))
            rep = levinson._phillips(0.0, np.sum(dphi) / 2.0,
                                     -np.pi + np.sum(start), np.sum(end))
            assert rep.value == want


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
# phase-shift table and property studies


def test_channel_data_sweeps_its_own_grid(monkeypatch):
    # the table's rows are exactly its geometric grid, each on the absolute
    # branch from its own node count: the depth-30 well's sharp l = 3 shape
    # resonance near lambda = 2.1 needs no extra rows to keep its branch.
    # Channels 0..8 carry it: every cutoff is capped at 8
    monkeypatch.setattr(levinson, "choose_lmax", lambda V, lams: np.minimum(
        choose_lmax(V, lams), 8))
    data = ChannelData(RadialPotential.square_well(30.0), 1e-2, 100.0, 400)
    assert data.lmax == 8
    assert np.array_equal(data.ks, np.geomspace(1e-2, 100.0, 400))
    assert data.deltas.shape == (400, 9)
    assert abs(float(data.delta(1e-2)[0]) - 2.0 * np.pi) < 0.05
    # delta_3 climbs by about pi through the resonance, with no step back
    lam, d3 = data.ks ** 2, data.deltas[:, 3]
    assert abs(d3[lam >= 4.0][0] - d3[lam <= 1.0][-1] - np.pi) < 0.3
    assert np.all(np.diff(d3) > -0.5 * np.pi)


def test_channel_data_slope_consistency(well3_data):
    # the table's slopes are the derivatives of its shifts off the grid
    data = well3_data
    k = 2.3
    h = 1e-5 * k
    fd = (data.delta(k + h) - data.delta(k - h)) / (2.0 * h)
    assert np.allclose(data.ddelta_dk(k), fd, atol=1e-6)


@pytest.mark.parametrize("depth", [3.0, 12.0, 30.0])
def test_channel_cut_keeps_grid_and_entries(depth, monkeypatch):
    # every row the table is built from, by wavenumber, and how many
    # times each wavenumber is swept
    rows = {}
    sweeps = []

    def recording(V, lams, lmax):
        out = phase_shift_rows(V, lams, lmax)
        rows.update(zip(np.sqrt(lams), out))
        sweeps.extend(np.sqrt(lams))
        return out

    V = RadialPotential.square_well(depth)
    monkeypatch.setattr(levinson, "phase_shift_rows", recording)
    cut = ChannelData(V, 1e-2, 100.0, 400)
    # each grid wavenumber is swept once: no band falls back here
    assert sorted(sweeps) == cut.ks.tolist()
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
    rows = _band_rows(WELL3, ks, 0, 8)
    assert np.array_equal(rows, full)
    # a cutoff with its top channel below the threshold is kept
    rows = _band_rows(WELL3, ks, 6, 8)
    assert np.array_equal(rows[:, :7], full[:, :7])
    assert np.all(rows[:, 7:] == 0.0)
    # every band cutoff below the grid top too low: each such band falls
    # back to the full lmax and the table is the uncut one
    monkeypatch.setattr(levinson, "choose_lmax", lambda V, lams: np.where(
        lams == 30.0 ** 2, 12, 0))
    low = ChannelData(WELL3, 1e-2, 30.0, 100)
    monkeypatch.setattr(levinson, "K_BANDS", ())
    full = ChannelData(WELL3, 1e-2, 30.0, 100)
    assert low.lmax == full.lmax == 12
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


def test_ddelta_dk_rows(well3_data):
    # off the grid, a batched sweep's rows are the rows of sweeps at one
    # wavenumber each
    data = well3_data
    ks = np.geomspace(data.ks[0], data.ks[-1], 2000)
    vec = data.ddelta_dk(ks) @ data.weights
    one = np.array([data.weights @ data.ddelta_dk(k) for k in ks])
    assert np.all(np.abs(vec - one) <= 1e-12 * np.abs(one))


def test_regularization_necessity():
    out = regularization_necessity(WELL3)
    assert abs(out["growth_exponent"] - 0.5) < 0.1
    assert out["tail_ratio"] < 1e-3
    assert out["Lambda"] == 1e3
    assert out["partial_final"] > 0.0
    assert out["tail_subtracted"] >= 0.0


@pytest.mark.parametrize("depth", [100.0, 200.0])
def test_regularization_necessity_deep_wells(depth):
    # the deep wells' shape resonances are narrower than the grid spacing;
    # the table still builds, and the unsubtracted partial integrals grow
    # as lambda^{1/2}
    out = regularization_necessity(RadialPotential.square_well(depth))
    assert abs(out["growth_exponent"] - 0.5) < 0.1


def test_schatten_decay_exponents():
    d1 = schatten_decay_exponent(WELL1, 1)
    assert abs(d1["exponent"] - d1["expected"]) < 0.1
    assert d1["expected"] == -0.5
    d3 = schatten_decay_exponent(WELL3, 3)
    assert abs(d3["exponent"] - d3["expected"]) < 0.1
    assert d3["expected"] == 0.5
    with pytest.raises(UnsupportedDimension):
        schatten_decay_exponent(WELL3, 2)
