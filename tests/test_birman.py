import numpy as np
import pytest

from specflow.errors import (
    EnergyNonpositive,
    InvalidOrder,
    QuadratureNotConverged,
)
from specflow.rdet import _det_p_lu, det_p_perturbation
from specflow.scatter import Potential1D, birman_schwinger_det_1d, smatrix_1d
from specflow.scatter import onedim
from specflow.scatter.onedim import _bs_matrix

WELL = Potential1D.square_well(3.0, halfwidth=1.0)


def test_branch_ratio_is_smatrix_determinant():
    # incoming over outgoing boundary values of the perturbation
    # determinant reproduce the determinant of the scattering matrix
    for lam in (0.5, 2.0, 9.0):
        plus = birman_schwinger_det_1d(WELL, lam, branch=+1)
        minus = birman_schwinger_det_1d(WELL, lam, branch=-1)
        ratio = minus.value / plus.value
        S = smatrix_1d(WELL, lam)
        assert abs(ratio - np.linalg.det(S)) < 1e-5
        assert abs(abs(ratio) - 1.0) < 1e-5


def test_incoming_branch_is_conjugate():
    lam = 1.3
    plus = birman_schwinger_det_1d(WELL, lam, branch=+1)
    minus = birman_schwinger_det_1d(WELL, lam, branch=-1)
    assert abs(minus.value - np.conj(plus.value)) < 1e-8


def test_mixed_sign_potential():
    V = Potential1D(segments=((-1.0, 0.0, -2.0), (0.0, 1.0, 1.0)))
    lam = 2.5
    ratio = (birman_schwinger_det_1d(V, lam, -1).value
             / birman_schwinger_det_1d(V, lam, +1).value)
    assert abs(ratio - np.linalg.det(smatrix_1d(V, lam))) < 1e-5


def test_det_p_lu_matches_eigenvalue_form():
    K = _bs_matrix(WELL, 2.0, +1, 60)
    for p in (1, 2, 3):
        a = _det_p_lu(np.eye(len(K)) + K, K, p)
        b = det_p_perturbation(K, p)
        assert abs(a.value - b.value) < 1e-10 * (1.0 + abs(b.value))
        assert abs(np.exp(a.log_value) - a.value) < 1e-12 * (1.0 + abs(a.value))


def test_higher_order_determinant_converges():
    d1 = birman_schwinger_det_1d(WELL, 1.0, p=1)
    d2 = birman_schwinger_det_1d(WELL, 1.0, p=2)
    # the two orders differ by the exponential of the kernel trace
    trK = np.trace(_bs_matrix(WELL, 1.0, +1, 800))
    assert abs(d2.value - d1.value * np.exp(-trK)) < 1e-5 * (1 + abs(d2.value))


def test_unconverged_quadrature_raises(monkeypatch):
    # doubling from 50 to 100 nodes gives one extrapolant, too few to judge
    monkeypatch.setattr(onedim, "NYSTROM_NODES", 50)
    monkeypatch.setattr(onedim, "NYSTROM_MAX_NODES", 100)
    with pytest.raises(QuadratureNotConverged):
        birman_schwinger_det_1d(WELL, 1.0)


def test_energy_validation():
    with pytest.raises(EnergyNonpositive):
        birman_schwinger_det_1d(WELL, -2.0)


@pytest.mark.parametrize("p", [1.5, 0, -3])
def test_order_validation(p):
    with pytest.raises(InvalidOrder):
        birman_schwinger_det_1d(WELL, 1.0, p=p)

