import numpy as np
import pytest
from scipy.linalg import block_diag

from specflow import matcore, rdet
from specflow.errors import InvalidOrder, NonUnitary, OutsideInterval
from specflow.matcore import eig_unitary
from specflow.rdet import (
    counterterm_exponent,
    counterterm_series,
    det_p,
    det_p_perturbation,
    fredholm_det,
    logderiv_det_p,
    logdet_p_vs_logdet,
    unwind_log,
)
from specflow.upath import (
    UnitaryPath,
    constant_path,
    generator_path,
    model_loop,
)

from conftest import haar_unitary, random_hermitian


def test_fredholm_anchors():
    assert fredholm_det(np.zeros((3, 3))).value == 1.0
    d = fredholm_det(np.diag([1.0, 2.0]))
    assert abs(d.value - 6.0) < 1e-12


def test_det_p_identity():
    for p in (1, 2, 3, 5):
        assert abs(det_p(np.eye(4), p).value - 1.0) < 1e-14


def test_det_2_single_rotated_mode():
    # order-2 determinant of diag(e^{i theta}, 1) in closed form:
    # e^{i theta} * exp(-(e^{i theta} - 1))
    theta = 0.7
    U = np.diag([np.exp(1j * theta), 1.0])
    want = np.exp(1j * theta) * np.exp(-(np.exp(1j * theta) - 1.0))
    assert abs(det_p(U, 2).value - want) < 1e-12
    # at the half turn the value is -e^2
    U = np.diag([-1.0, 1.0])
    assert abs(det_p(U, 2).value - (-np.exp(2.0))) < 1e-12


def test_det_p_matches_schur_product(rng):
    # the LU det_p against the product over the Schur kernel's eigenangles,
    # at 1e-12 relative: Haar unitaries, an eigenvalue -1 of multiplicity 3,
    # and diagonal unitaries whose counterterm exponent at p = 2 has
    # imaginary part -/+8, which the LU log must wrap into (-pi, pi]
    unitaries = [haar_unitary(dim, rng)
                 for dim in (1, 2, 3, 5, 8, 16, 32, 64)]
    unitaries.append(block_diag(-np.eye(3), haar_unitary(5, rng)))
    unitaries += [np.diag(np.full(8, np.exp(s * 0.5j * np.pi)))
                  for s in (1, -1)]
    for U in unitaries:
        z = np.exp(1j * eig_unitary(U)[0])
        for p in (1, 2, 3, 5):
            value = np.prod(z * np.exp(counterterm_series(z - 1.0, p)))
            got = det_p(U, p)
            assert abs(got.value - value) <= 1e-12 * abs(value)
            assert -np.pi < got.log_value.imag <= np.pi
            assert abs(np.exp(got.log_value) - got.value) \
                <= 1e-12 * abs(got.value)


def test_det_p_checks_unitarity_once(rng, monkeypatch):
    calls = []
    check = matcore.check_unitary

    def counting(U, *args, **kwargs):
        calls.append(1)
        return check(U, *args, **kwargs)

    monkeypatch.setattr(matcore, "check_unitary", counting)
    monkeypatch.setattr(rdet, "check_unitary", counting)
    det_p(haar_unitary(8, rng), 2)
    assert len(calls) == 1
    with pytest.raises(NonUnitary):
        det_p(np.array([[1.0, 0.5], [0.0, 1.0]]), 2)


def test_det_1_is_plain_determinant(rng):
    U = haar_unitary(5, rng)
    assert abs(det_p(U, 1).value - np.linalg.det(U)) < 1e-10
    assert abs(abs(det_p(U, 1).value) - 1.0) < 1e-12


def test_recursion_in_p(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        U = haar_unitary(dim, rng)
        B = U - np.eye(dim)
        for p in range(2, 6):
            step = np.exp((-1) ** (p - 1) / (p - 1)
                          * np.trace(np.linalg.matrix_power(B, p - 1)))
            lhs = det_p(U, p).value
            rhs = det_p(U, p - 1).value * step
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_reduced_formula(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        U = haar_unitary(dim, rng)
        for p in (1, 2, 3, 5):
            lhs = det_p(U, p).value
            rhs = fredholm_det(U - np.eye(dim)).value * np.exp(
                counterterm_exponent(U, p))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_counterterm_exponent_anchors():
    # sum_{l=1}^{p-1} ((-1)^l / l) Tr((U - Id)^l) on small exact inputs
    assert abs(counterterm_exponent(np.array([[-1.0 + 0j]]), 3) - 4.0) < 1e-12
    assert abs(counterterm_exponent(np.eye(3, dtype=complex), 4)) < 1e-12
    assert abs(counterterm_exponent(np.array([[1j]]), 2) - (1.0 - 1j)) < 1e-12


def test_det_p_perturbation_consistency(rng):
    U = haar_unitary(6, rng)
    for p in (1, 2, 4):
        a = det_p(U, p).value
        b = det_p_perturbation(U - np.eye(6), p).value
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))
    # non-normal input is in scope for the perturbation form
    A = rng.normal(size=(5, 5)) * 0.3
    lam = np.linalg.eigvals(A)
    want = np.prod((1.0 + lam) * np.exp(-lam))
    assert abs(det_p_perturbation(A, 2).value - want) < 1e-10


def test_detvalue_log_consistency(rng):
    for _ in range(5):
        U = haar_unitary(4, rng)
        for p in (1, 2, 3):
            d = det_p(U, p)
            assert abs(np.exp(d.log_value) - d.value) <= 1e-10 * (1 + abs(d.value))
            assert -np.pi < d.log_value.imag <= np.pi
    assert complex(fredholm_det(np.zeros((2, 2)))) == 1.0


def test_block_multiplicativity(rng):
    U1 = haar_unitary(3, rng)
    U2 = haar_unitary(4, rng)
    blk = np.zeros((7, 7), dtype=complex)
    blk[:3, :3] = U1
    blk[3:, 3:] = U2
    for p in (1, 2, 3):
        a = det_p(blk, p).value
        b = det_p(U1, p).value * det_p(U2, p).value
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


def test_invalid_orders():
    U = np.eye(2)
    with pytest.raises(InvalidOrder):
        det_p(U, 0)
    with pytest.raises(InvalidOrder):
        det_p(U, 1.5)
    with pytest.raises(InvalidOrder):
        det_p_perturbation(U, -1)
    with pytest.raises(InvalidOrder):
        logderiv_det_p(model_loop(1, 2), 0.5, 0)


def test_logderiv_anchors():
    loop = model_loop(1, 2)
    for t in (0.0, 0.3, 0.77):
        assert abs(logderiv_det_p(loop, t, 1) - 2j * np.pi) < 1e-12
    still = constant_path(np.diag([1j, 1.0]))
    assert abs(logderiv_det_p(still, 0.5, 3)) < 1e-12
    with pytest.raises(OutsideInterval):
        logderiv_det_p(loop, 1.2, 1)
    # the path's own interval rule, with its 1e-12 allowance at the ends
    assert abs(logderiv_det_p(loop, 1.0 + 1e-13, 1) - 2j * np.pi) < 1e-12


def test_logderiv_matches_finite_difference(rng):
    H = random_hermitian(3, rng, scale=0.9)
    path = generator_path(1j * H)
    t0, h = 0.4, 1e-5
    for p in (1, 2, 3):
        vals = [det_p(path(t0 - h), p).value, det_p(path(t0 + h), p).value]
        lg = unwind_log(vals)
        fd = (lg[1] - lg[0]) / (2 * h)
        exact = logderiv_det_p(path, t0, p)
        assert abs(fd - exact) <= 1e-5 * (1.0 + abs(exact))


def test_logdet_p_vs_logdet(rng):
    H = random_hermitian(4, rng)
    path = generator_path(1j * H)
    lhs, rhs = logdet_p_vs_logdet(path, 0.3, 3)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
    lhs, rhs = logdet_p_vs_logdet(model_loop(1, 3), 0.3, 2)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_logdet_p_vs_logdet_samples_once():
    # one U_t and one stencil U'_t (4 samples) feed both sides
    loop = model_loop(1, 3)
    calls = []

    def counting(t):
        calls.append(t)
        return loop(t)

    path = UnitaryPath(counting, dim=3)
    for p in (1, 3):
        calls.clear()
        lhs, rhs = logdet_p_vs_logdet(path, 0.3, p)
        assert len(calls) == 5
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_unwind_log_tracks_winding():
    thetas = np.linspace(0.0, 4.0 * np.pi, 41)
    logs = unwind_log(np.exp(1j * thetas))
    assert abs(logs[0].imag) < 1e-12
    assert abs(logs[-1].imag - 4.0 * np.pi) < 1e-10
    # DetValue inputs work through __complex__
    seq = [det_p(np.diag([np.exp(1j * t), 1.0]), 1) for t in thetas]
    logs2 = unwind_log(seq)
    assert abs(logs2[-1].imag - 4.0 * np.pi) < 1e-10
