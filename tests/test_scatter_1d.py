import numpy as np
import pytest

from specflow.errors import EnergyNonpositive, SpecflowError
from specflow.scatter import (
    Potential1D,
    bound_states_1d,
    resonance_statistic_1d,
    smatrix_1d,
    transfer_matrix,
)

WELL = Potential1D.square_well(5.0, halfwidth=1.0)
DOUBLE_WELL = Potential1D(segments=((-3.0, -1.0, -6.0), (-1.0, 1.0, 2.0),
                                    (1.0, 3.0, -6.0)))
GAUSSIAN_WELL = Potential1D.from_callable(lambda x: -8.0 * np.exp(-x * x),
                                          (-4.0, 4.0), n_segments=200)


def analytic_square_well_smatrix(depth, a, lam):
    k = np.sqrt(lam)
    q = np.sqrt(complex(lam + depth))
    den = np.cos(2 * q * a) - 0.5j * (k ** 2 + q ** 2) / (k * q) * np.sin(2 * q * a)
    t = np.exp(-2j * k * a) / den
    r = np.exp(-2j * k * a) * 0.5j * (q ** 2 - k ** 2) / (k * q) \
        * np.sin(2 * q * a) / den
    return t, r


def test_potential_1d_basics():
    assert WELL.support == (-1.0, 1.0)
    assert WELL.halfwidth == 1.0
    assert WELL(0.0) == -5.0
    assert WELL(2.0) == 0.0
    assert abs(WELL.integral() + 10.0) < 1e-12
    assert abs(WELL.integral_sq() - 50.0) < 1e-12


def test_segment_arrays_built_once():
    lengths, values = DOUBLE_WELL.segment_arrays
    assert DOUBLE_WELL.segment_arrays[0] is lengths
    assert np.array_equal(lengths, [2.0, 2.0, 2.0])
    assert np.array_equal(values, [-6.0, 2.0, -6.0])
    with pytest.raises(ValueError):
        lengths[0] = 1.0


def test_potential_1d_from_callable():
    V = Potential1D.from_callable(lambda x: -np.exp(-x * x), (-4.0, 4.0),
                                  n_segments=4000)
    assert abs(V.integral() + np.sqrt(np.pi)) < 1e-5
    assert V(0.0) < -0.99


def test_potential_1d_validation():
    with pytest.raises(SpecflowError):
        Potential1D(segments=())
    with pytest.raises(SpecflowError):
        Potential1D(segments=((0.0, 1.0, -1.0), (2.0, 3.0, -1.0)))
    with pytest.raises(SpecflowError):
        Potential1D(segments=((1.0, 0.0, -1.0),))


def test_transfer_matrix_free_and_det():
    lam = 2.3
    k = np.sqrt(lam)
    free = Potential1D(segments=((-1.0, 1.5, 0.0),))
    M = transfer_matrix(free, lam)
    d = 2.5
    want = np.array([[np.cos(k * d), np.sin(k * d) / k],
                     [-k * np.sin(k * d), np.cos(k * d)]])
    assert np.linalg.norm(M - want) < 1e-12
    for lam in (0.5, 3.0, 17.0):
        assert abs(np.linalg.det(transfer_matrix(WELL, lam)) - 1.0) < 1e-12


def test_smatrix_unitary_and_reciprocal():
    for V in (WELL, Potential1D(segments=((-1.0, 0.0, -3.0), (0.0, 2.0, 1.5)))):
        for lam in (0.3, 1.0, 8.0, 50.0):
            S = smatrix_1d(V, lam)
            assert np.linalg.norm(S @ S.conj().T - np.eye(2), ord=2) < 1e-12
            assert abs(S[0, 0] - S[1, 1]) < 1e-12


def test_smatrix_symmetric_potential_has_equal_reflections():
    for lam in (0.7, 4.4):
        S = smatrix_1d(WELL, lam)
        assert abs(S[0, 1] - S[1, 0]) < 1e-12


def test_smatrix_matches_square_well_formula():
    for depth in (5.0, -3.0):
        V = Potential1D.square_well(depth)
        for lam in (0.2, 1.7, 12.0):
            t, r = analytic_square_well_smatrix(depth, 1.0, lam)
            S = smatrix_1d(V, lam)
            assert abs(S[0, 0] - t) < 1e-12
            assert abs(S[0, 1] - r) < 1e-12


def test_barrier_tunneling_transmission():
    # rectangular barrier below the top: |t|^2 from the sinh formula
    v0, lam = 4.0, 1.5
    kappa = np.sqrt(v0 - lam)
    V = Potential1D(segments=((0.0, 2.0, v0),))
    S = smatrix_1d(V, lam)
    want = 1.0 / (1.0 + v0 ** 2 * np.sinh(2.0 * kappa) ** 2
                  / (4.0 * lam * (v0 - lam)))
    assert abs(abs(S[0, 0]) ** 2 - want) < 1e-12


def test_smatrix_low_energy_limit_generic():
    S = smatrix_1d(WELL, 1e-10)
    assert np.linalg.norm(S - np.array([[0.0, -1.0], [-1.0, 0.0]])) < 1e-4


def test_smatrix_rejects_nonpositive_energy():
    with pytest.raises(EnergyNonpositive):
        smatrix_1d(WELL, 0.0)
    with pytest.raises(EnergyNonpositive):
        smatrix_1d(WELL, -1.0)


@pytest.mark.parametrize("V, lams", [
    (Potential1D.square_well(2.0), [1e-10, 0.3, 1.0, 8.0, 50.0, 1e4]),
    (DOUBLE_WELL, [1e-6, 0.5, 3.0, 6.0, 40.0]),
    (GAUSSIAN_WELL, [1e-4, 0.7, 2.5, 9.0, 200.0]),
    # lam equals the barrier's value 2: q = 0 on that segment, the Taylor
    # branch of the segment kernel
    (DOUBLE_WELL, [2.0, 1.0, 2.0 + 1e-13]),
], ids=["square_well", "double_well", "gaussian_200_segments",
        "taylor_branch"])
def test_array_energies_match_scalar_calls(V, lams):
    lams = np.array(lams)
    S = smatrix_1d(V, lams)
    M = transfer_matrix(V, lams)
    assert S.shape == M.shape == (len(lams), 2, 2)
    assert np.array_equal(S, np.array([smatrix_1d(V, lam) for lam in lams]))
    assert np.array_equal(M, np.array([transfer_matrix(V, lam)
                                       for lam in lams]))
    assert smatrix_1d(V, lams[0]).shape == (2, 2)


def test_taylor_branch_continuous():
    # at lam = v the segment's q vanishes and the Taylor form takes over
    lams = 2.0 + np.array([-1e-9, 0.0, 1e-9])
    M = transfer_matrix(DOUBLE_WELL, lams)
    assert np.all(np.isfinite(M))
    assert np.max(np.abs(M[0] - M[1])) < 1e-6
    assert np.max(np.abs(M[2] - M[1])) < 1e-6


def test_array_energies_reject_nonpositive():
    with pytest.raises(EnergyNonpositive):
        smatrix_1d(WELL, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(EnergyNonpositive):
        smatrix_1d(GAUSSIAN_WELL, np.array([-1.0]))


def test_bound_state_counts():
    # halfwidth-1 wells: count is 1 + floor(2 sqrt(depth) / pi)
    assert bound_states_1d(Potential1D.square_well(2.0)) == 1
    assert bound_states_1d(Potential1D.square_well(5.0)) == 2
    assert bound_states_1d(Potential1D.square_well(20.0)) == 3
    barrier = Potential1D(segments=((-1.0, 1.0, 5.0),))
    assert bound_states_1d(barrier) == 0


def test_bound_states_asymmetric_double_well():
    V = Potential1D(segments=((-2.0, -0.5, -4.0), (-0.5, 0.5, 0.0),
                              (0.5, 1.5, -6.0)))
    n = bound_states_1d(V)
    assert n >= 2  # each well alone binds at least one state


def test_resonance_statistic():
    zero = Potential1D(segments=((-1.0, 1.0, 0.0),))
    assert resonance_statistic_1d(zero) < 1e-14
    assert resonance_statistic_1d(WELL) > 1e-2
    # half-bound threshold: a new state appears at depth (pi/2)^2 for
    # width 2, where the zero-energy solution leaves the well flat
    thresh = Potential1D.square_well((np.pi / 2.0) ** 2 / 4.0 * 4.0)
    assert resonance_statistic_1d(thresh) < 1e-12
