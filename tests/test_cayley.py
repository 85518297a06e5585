import numpy as np
import pytest
from scipy.linalg import expm

from specflow.cayley import (
    SubspaceOperator,
    cayley,
    cayley_form_identity,
    cayley_form_identity_beta,
    fp_distance,
    graph_projection,
    inv_cayley,
    resolvent_at,
    resolvent_bound_constant,
    sf_fp_path,
)
from specflow.errors import DimensionMismatch, InvalidOrder, SpecflowError
from specflow.matcore import schatten_norm
from specflow.upath import model_loop

from conftest import haar_unitary, random_hermitian


def test_identity_maps_to_nowhere_defined():
    op = cayley(np.eye(3))
    assert op.subspace_dim() == 0
    assert op.eigenvalues().size == 0
    assert np.allclose(op.resolvent, 0.0)
    op.validate()


def test_quarter_and_half_turn_anchors():
    # e^{i pi/2} -> cot(pi/4) = 1;  e^{i pi} -> cot(pi/2) = 0
    op = cayley(np.diag([1j, 1.0]))
    assert op.subspace_dim() == 1
    assert np.allclose(op.eigenvalues(), [1.0], atol=1e-12)
    op = cayley(np.diag([-1.0, 1.0]))
    assert np.allclose(op.eigenvalues(), [0.0], atol=1e-12)


def test_eigenvalue_correspondence():
    thetas = np.array([0.4, -1.1, 2.9])
    U = np.diag(np.exp(1j * thetas))
    got = cayley(U).eigenvalues()
    want = np.sort(1.0 / np.tan(thetas / 2.0))
    assert np.allclose(got, want, atol=1e-10)


def test_roundtrip(rng):
    for _ in range(8):
        dim = int(rng.integers(2, 7))
        U = haar_unitary(dim, rng)
        back = inv_cayley(cayley(U))
        assert np.linalg.norm(back - U, ord=2) < 1e-10


def test_roundtrip_with_excluded_kernel():
    # eigenvalue exactly 1 goes to the excluded kernel and is restored as 1
    U = np.diag([np.exp(0.6j), 1.0, np.exp(-1.2j)])
    assert np.linalg.norm(inv_cayley(cayley(U)) - U, ord=2) < 1e-12


def test_validate_rejects_broken_resolvent():
    op = cayley(np.diag([1j, 1.0]))
    bad = SubspaceOperator(ambient_dim=2, projection=op.projection,
                           resolvent=op.resolvent + 0.1)
    with pytest.raises(SpecflowError):
        bad.validate()


def test_graph_projection_extremes():
    n = 2
    # nowhere defined: graph projection picks out the second summand
    g0 = graph_projection(cayley(np.eye(n)))
    want = np.zeros((2 * n, 2 * n))
    want[n:, n:] = np.eye(n)
    assert np.allclose(g0, want, atol=1e-12)
    # zero operator on the whole space: first summand
    g1 = graph_projection(cayley(-np.eye(n)))
    want = np.zeros((2 * n, 2 * n))
    want[:n, :n] = np.eye(n)
    assert np.allclose(g1, want, atol=1e-12)


def test_graph_projection_properties(rng):
    U = haar_unitary(4, rng)
    G = graph_projection(cayley(U))
    assert np.linalg.norm(G @ G - G, ord=2) < 1e-10
    assert np.linalg.norm(G - G.conj().T, ord=2) < 1e-10


def test_graph_projection_fixes_graph_vectors():
    thetas = np.array([0.9, -2.2])
    U = np.diag(np.exp(1j * thetas))
    op = cayley(U)
    G = graph_projection(op)
    taus = 1.0 / np.tan(thetas / 2.0)
    for j, tau in enumerate(taus):
        v = np.zeros(2, dtype=complex)
        v[j] = 1.0
        graph_vec = np.concatenate([v, tau * v])
        assert np.linalg.norm(G @ graph_vec - graph_vec) < 1e-10 * (1 + abs(tau))


def test_fp_distance_is_half_defect_norm(rng):
    for p in (1.0, 2.0, 3.5, np.inf):
        U1 = haar_unitary(4, rng)
        U2 = haar_unitary(4, rng)
        d = fp_distance(cayley(U1), cayley(U2), p)
        assert abs(d - 0.5 * schatten_norm(U1 - U2, p)) < 1e-12
    assert fp_distance(cayley(U1), cayley(U1), 2.0) == 0.0


def test_fp_distance_triangle(rng):
    ops = [cayley(haar_unitary(3, rng)) for _ in range(3)]
    d01 = fp_distance(ops[0], ops[1], 1.0)
    d12 = fp_distance(ops[1], ops[2], 1.0)
    d02 = fp_distance(ops[0], ops[2], 1.0)
    assert d02 <= d01 + d12 + 1e-12


def test_fp_distance_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        fp_distance(cayley(np.eye(2)), cayley(np.eye(3)), 1.0)


def test_resolvent_at_anchor():
    theta = 0.8
    op = cayley(np.diag([np.exp(1j * theta), 1.0]))
    tau = 1.0 / np.tan(theta / 2.0)
    want = np.diag([1.0 / (tau - 2j), 0.0])
    assert np.linalg.norm(resolvent_at(op, 2j) - want, ord=2) < 1e-12
    with pytest.raises(InvalidOrder):
        resolvent_at(op, 1.0)


def test_resolvent_difference_bound(rng):
    assert resolvent_bound_constant(2j) == 3.0
    U1 = haar_unitary(4, rng)
    for U2 in (haar_unitary(4, rng),
               U1 @ expm(0.05j * random_hermitian(4, rng))):
        op1, op2 = cayley(U1), cayley(U2)
        for p in (1.0, 2.0, np.inf):
            lhs = schatten_norm(resolvent_at(op1, 2j) - resolvent_at(op2, 2j), p)
            assert lhs <= 3.0 * fp_distance(op1, op2, p) * (1.0 + 1e-9)


def test_form_identities(rng):
    U = haar_unitary(4, rng)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for n in (1, 2, 3):
        lhs, rhs = cayley_form_identity(U, X, n)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    for r in (0.5, 1.0, 1.7):
        lhs, rhs = cayley_form_identity_beta(U, X, r)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    with pytest.raises(InvalidOrder):
        cayley_form_identity(U, X, 0)
    with pytest.raises(InvalidOrder):
        cayley_form_identity_beta(U, X, -0.5)


def test_sf_fp_path_constant_family():
    op = cayley(np.diag([1j, 1.0]))
    assert sf_fp_path(lambda t: op).value == 0


def test_sf_fp_path_from_unitary_loop():
    loop = model_loop(1, 2)
    report = sf_fp_path(lambda t: cayley(loop(t)))
    assert report.value == 1


def test_sf_fp_path_moving_domain_sweep():
    # T_t = tan(pi (t - 1/2)) on the first coordinate sweeps every real
    # value upward once; its unitary path is diag(e^{-2 pi i t}, 1), so the
    # crossing of -1 is clockwise and the flow is -1
    P = np.diag([1.0, 0.0]).astype(complex)

    def family(t):
        tau = np.tan(np.pi * (t - 0.5))
        R = np.diag([1.0 / (tau - 1j), 0.0])
        return SubspaceOperator(ambient_dim=2, projection=P, resolvent=R)

    assert sf_fp_path(family).value == -1
