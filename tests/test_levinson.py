import json

import numpy as np
import pytest

from specflow.errors import (
    Inconclusive,
    InvalidGrid,
    OracleDisagreement,
    TailNotConverged,
    UnsupportedDimension,
)
from specflow.scatter import (
    ChannelData,
    Potential1D,
    RadialPotential,
    h_correction,
    high_energy_poly,
    levinson_verify,
    regularization_necessity,
    resonance_detect,
    resonance_statistic_1d,
    schatten_decay_exponent,
)
from specflow.scatter.levinson import _tail_estimate
from specflow.scatter.radial import threshold_statistics_radial

WELL1 = Potential1D.square_well(5.0)
WELL3 = RadialPotential.square_well(3.0)


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


def test_h_correction_anchors():
    assert abs(h_correction(np.array([[-1.0 + 0j]]), 3) - 4.0) < 1e-12
    assert abs(h_correction(np.eye(3, dtype=complex), 4)) < 1e-12
    assert abs(h_correction(np.array([[1j]]), 2) - (1.0 - 1j)) < 1e-12


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
    assert set(rep.routes) == {"phillips", "regularized", "subtracted"}
    for val in rep.routes.values():
        assert abs(np.real(val) + 1.0) < 1e-3
    # half-bound convention: the bare integral rounds to -(N - 1)
    assert abs(rep.alt_convention_sf - 0.0) < 1e-3
    assert 1.5 < rep.data["tail_exponent"] < 2.5
    # routes pinned at 1e-12: restructuring the pipeline must not move them
    pinned = {"phillips": -1.0,
              "regularized": -1.00001720759502 + 1.472737148906818e-11j,
              "subtracted": -1.00001720759502 + 1.472737148906818e-11j}
    for name, want in pinned.items():
        assert abs(rep.routes[name] - want) < 1e-12
    json.dumps(rep.to_dict())


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
    # routes pinned at 1e-12: restructuring the pipeline must not move them
    pinned = {"phillips": -1.0,
              "regularized": -1.000197824822272 + 9.209059970059973e-05j,
              "subtracted": -0.9999425334793297}
    for name, want in pinned.items():
        assert abs(rep.routes[name] - want) < 1e-12
    json.dumps(rep.to_dict())


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
    w = 2.0 * np.arange(data.lmax + 1) + 1.0
    assert abs(data.weighted_dsum(k) - float(w @ data.ddelta_dk(k))) < 1e-12


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
