import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.linalg import schur
from scipy.special import gammaln

from specflow import matcore
from specflow.errors import DecompositionFailure, InvalidOrder, NonUnitary
from specflow.matcore import (
    abs_power,
    check_unitary,
    eig_unitary,
    form_trace,
    gamma_constant,
    principal_log_unitary,
    schatten_norm,
)
from specflow.rdet import det_p
from specflow.sflow import sf_alpha
from specflow.upath import model_loop

from conftest import haar_unitary, random_hermitian, run_fresh


def test_check_unitary_rejects_nonunitary():
    with pytest.raises(NonUnitary):
        check_unitary(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NonUnitary):
        check_unitary(np.ones((2, 3)))
    # the defect is a Frobenius norm: 8e-11 in operator norm, under the
    # 1e-10 tolerance, is sqrt(16) * 8e-11 = 3.2e-10 here
    with pytest.raises(NonUnitary):
        check_unitary(np.diag([1 + 4e-11] * 16))
    check_unitary(np.diag([1 + 4e-11] + [1.0] * 15))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_unitary_rejects_non_finite_entries(bad):
    # a NaN defect compares False against the tolerance; it must not pass,
    # and it raises the typed error with no floating-point warning first
    U = np.eye(3, dtype=complex)
    U[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonUnitary):
            check_unitary(U)
        with pytest.raises(NonUnitary):
            eig_unitary(U)


def _failing_eigh(H):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_eig_unitary_fallback_matches_scipy_schur_bitwise(rng, monkeypatch):
    # the Schur fallback, taken here for every member because eigh raises,
    # reproduces schur(U, output="complex") exactly
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    for dim in range(2, 65):
        U = haar_unitary(dim, rng)
        T, Z = schur(U, output="complex")
        angles, order = matcore._branch_angles(np.diag(T))
        got_angles, got_vecs = eig_unitary(U)
        assert np.array_equal(got_angles, angles[order]), dim
        assert np.array_equal(got_vecs, Z[:, order]), dim


def _assert_matches_schur(U, angles, vecs):
    """Angles within 1e-12 of schur's, vectors orthonormal within 1e-12,
    and U rebuilt from both within eig_unitary's acceptance bound
    EIG_RESIDUAL_TOL sqrt(dim), in Frobenius norm."""
    dim = U.shape[-1]
    T, _ = schur(U, output="complex")
    want, order = matcore._branch_angles(np.diag(T))
    assert np.max(np.abs(angles - want[order])) <= 1e-12
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim), ord=2) <= 1e-12
    rebuilt = (vecs * np.exp(1j * angles)) @ vecs.conj().T
    assert (np.linalg.norm(rebuilt - U)
            <= matcore.EIG_RESIDUAL_TOL * np.sqrt(dim))


def test_eig_unitary_matches_scipy_schur(rng):
    # the stacked Hermitian route: schur's angles and orthonormal vectors
    # within 1e-12, and U rebuilt within the residual that admits a member
    for dim in range(2, 65):
        U = haar_unitary(dim, rng)
        _assert_matches_schur(U, *eig_unitary(U))


def test_eig_unitary_on_a_stack_is_each_call(rng):
    # every member of a stack comes out bitwise as from its own call,
    # degenerate spectra and an eigenvalue snapped to +pi included
    dim = 4
    W = haar_unitary(dim, rng)
    mats = [haar_unitary(dim, rng) for _ in range(5)]
    mats.append((W * np.array([1j, 1j, -1.0, -1.0])) @ W.conj().T)
    mats.append(np.diag(np.exp(1j * np.array([-np.pi + 1e-13, 0.3, 0.3,
                                               2.0]))))
    mats.append(np.eye(dim))
    angles, vecs = eig_unitary(np.stack(mats))
    assert angles.shape == (8, dim) and vecs.shape == (8, dim, dim)
    assert angles[6][-1] == np.pi
    for M, got_angles, got_vecs in zip(mats, angles, vecs):
        want_angles, want_vecs = eig_unitary(M)
        assert np.array_equal(got_angles, want_angles)
        assert np.array_equal(got_vecs, want_vecs)
    # any leading shape
    angles2, vecs2 = eig_unitary(np.stack(mats).reshape(2, 4, dim, dim))
    assert np.array_equal(angles2.reshape(8, dim), angles)
    assert np.array_equal(vecs2.reshape(8, dim, dim), vecs)


def test_stack_with_one_non_unitary_member_raises(rng):
    mats = np.stack([haar_unitary(3, rng) for _ in range(4)])
    check_unitary(mats)
    mats[2] *= 1.0 + 1e-6
    with pytest.raises(NonUnitary):
        check_unitary(mats)
    with pytest.raises(NonUnitary):
        eig_unitary(mats)


def test_eig_unitary_raises_on_lapack_failure(rng, monkeypatch):
    U = haar_unitary(3, rng)
    # eigh fails: the Schur decomposition answers
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    angles, vecs = eig_unitary(U)
    T, Z = schur(U, output="complex")
    want, order = matcore._branch_angles(np.diag(T))
    assert np.array_equal(angles, want[order])
    assert np.array_equal(vecs, Z[:, order])
    # the Schur decomposition fails as well: DecompositionFailure

    def failing(a, output):
        raise np.linalg.LinAlgError("Schur form not found")

    monkeypatch.setattr(scipy.linalg, "schur", failing)
    with pytest.raises(DecompositionFailure):
        eig_unitary(U)


def test_eig_unitary_loads_schur_on_demand():
    # a fresh interpreter: `import specflow` loads no scipy, and the Schur
    # fallback imports scipy.linalg when eigh fails, returns its pair
    # bitwise, and still raises DecompositionFailure when schur fails too
    out = run_fresh("""if True:
        import json, sys
        import numpy as np
        import specflow
        from specflow import matcore
        from specflow.errors import DecompositionFailure
        before = "scipy.linalg" in sys.modules
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")
        X = np.random.default_rng(7).normal(size=(2, 5, 5))
        U, _ = np.linalg.qr(X[0] + 1j * X[1])
        np.linalg.eigh = failing
        angles, vecs = specflow.eig_unitary(U)
        after = "scipy.linalg" in sys.modules
        import scipy.linalg
        T, Z = scipy.linalg.schur(U, output="complex")
        want, order = matcore._branch_angles(np.diag(T))
        same = (np.array_equal(angles, want[order])
                and np.array_equal(vecs, Z[:, order]))
        scipy.linalg.schur = failing
        try:
            specflow.eig_unitary(U)
            raised = False
        except DecompositionFailure:
            raised = True
        print(json.dumps([before, after, same, raised]))
        """)
    assert json.loads(out) == [False, True, True, True]


def _spectral_unitary(angles, rng):
    W = haar_unitary(len(angles), rng)
    return (W * np.exp(1j * np.asarray(angles))) @ W.conj().T


def _assert_adversarial(mats, expect_fallback, monkeypatch):
    """Each member of `mats` against schur, the members that took the
    Schur fallback, and the stack bitwise against the single calls."""
    real = matcore._schur_eig
    fallbacks = []

    def counting(M):
        fallbacks.append(M)
        return real(M)

    monkeypatch.setattr(matcore, "_schur_eig", counting)
    singles = [eig_unitary(U) for U in mats]
    for U, (angles, vecs) in zip(mats, singles):
        _assert_matches_schur(U, angles, vecs)
    if expect_fallback:
        assert len(fallbacks) == len(mats)
    angles, vecs = eig_unitary(np.stack(mats))
    for (want_angles, want_vecs), got_angles, got_vecs in zip(singles, angles,
                                                              vecs):
        assert np.array_equal(got_angles, want_angles)
        assert np.array_equal(got_vecs, want_vecs)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 24), st.integers(0, 10 ** 6))
def test_eig_unitary_pairs_symmetric_about_the_hermitian_phase(dim, seed):
    # e^{i(phase +/- delta)} are one eigenvalue 2 cos(delta) of the
    # Hermitian matrix, whose eigh may mix their vectors: the residual
    # check sends every such member to the Schur fallback
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        delta = rng.uniform(0.05, 2.5)
        angles = rng.uniform(-np.pi, np.pi, dim)
        angles[:2] = matcore.HERMITIAN_PHASE + np.array([delta, -delta])
        mats.append(_spectral_unitary(angles, rng))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_adversarial(mats, True, monkeypatch)


@settings(max_examples=15, deadline=None)
@given(st.integers(8, 64), st.integers(0, 10 ** 6))
def test_eig_unitary_exact_degeneracies(dim, seed):
    # dense-loop's spectra: e^{2 pi i m t} with m in -2..2, each eigenvalue
    # about dim/5-fold, and the whole spectrum at 1 when t is whole
    rng = np.random.default_rng(seed)
    m = rng.integers(-2, 3, size=dim)
    mats = [_spectral_unitary(2.0 * np.pi * m * t, rng)
            for t in (rng.uniform(), 0.5, 1.0)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_adversarial(mats, False, monkeypatch)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 16), st.integers(0, 10 ** 6))
def test_eig_unitary_near_degenerate_triple_at_minus_one(dim, seed):
    # three eigenvalues within 1e-5 of -1, on both sides of the cut
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        angles = rng.uniform(-np.pi, np.pi, dim)
        offsets = rng.uniform(1e-9, 1e-5, 3) * np.array([1.0, -1.0, 1.0])
        angles[:3] = np.pi + offsets
        mats.append(_spectral_unitary(angles, rng))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_adversarial(mats, False, monkeypatch)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10 ** 6))
def test_eig_unitary_snaps_an_eigenvalue_within_snap_tol_of_the_cut(dim,
                                                                     seed):
    # an angle 1e-13 above -pi is reported at +pi, exactly
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        angles = rng.uniform(-3.0, 3.0, dim)
        angles[0] = -np.pi + 1e-13
        mats.append(_spectral_unitary(angles, rng))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_adversarial(mats, False, monkeypatch)
    for U in mats:
        assert eig_unitary(U)[0][-1] == np.pi


def test_eig_unitary_identity():
    angles, vecs = eig_unitary(np.eye(3))
    assert np.allclose(angles, 0.0)
    assert np.allclose(vecs @ vecs.conj().T, np.eye(3))


def test_eig_unitary_branch_at_minus_one():
    # -1 must be reported at +pi, never -pi
    angles, _ = eig_unitary(np.diag([-1.0, 1.0]))
    assert angles[0] == 0.0
    assert angles[1] == np.pi

    angles, _ = eig_unitary(np.diag([1j, -1j]))
    assert np.allclose(sorted(angles), [-np.pi / 2, np.pi / 2])


def test_eig_unitary_reconstruction(rng):
    U = haar_unitary(6, rng)
    angles, vecs = eig_unitary(U)
    R = (vecs * np.exp(1j * angles)) @ vecs.conj().T
    assert np.linalg.norm(R - U, ord=2) < 1e-12
    assert np.all(np.diff(angles) >= 0)


def test_angles_kernel_snaps_the_cut_to_plus_pi(rng):
    # -1 and an angle 1e-13 above -pi are both reported at +pi, exactly on
    # diagonal input and without a flip to -pi after a change of basis
    cases = [(np.diag([-1.0, 1.0]), [0.0, np.pi]),
             (np.diag([np.exp(1j * (-np.pi + 1e-13)), 1j]),
              [np.pi / 2, np.pi])]
    for D, want in cases:
        D = D.astype(complex)
        assert np.array_equal(eig_unitary(D)[0], want)
        W = haar_unitary(2, rng)
        U = W @ D @ W.conj().T
        assert np.max(np.abs(eig_unitary(U)[0] - want)) <= 1e-12 * np.pi


@pytest.mark.parametrize("r", [1, 2.0, 3])
def test_whole_beta_order_needs_no_svd(r, rng, monkeypatch):
    # a whole order r takes |U - Id|^{2r} = (A*A)^r from matrix products;
    # it must match the SVD route to 1e-12 relative and never call it
    for dim in (1, 2, 3, 8, 16, 64):
        U = haar_unitary(dim, rng)
        X = 1j * random_hermitian(dim, rng)
        A = U - np.eye(dim)
        want = np.trace(X @ abs_power(A, r))
        with monkeypatch.context() as m:
            m.setattr(matcore, "abs_power", _no_svd)
            got = form_trace(X, U, "r", r)
        assert abs(got - want) <= 1e-12 * abs(want)
    # a fractional order still goes through abs_power
    monkeypatch.setattr(matcore, "abs_power", _no_svd)
    with pytest.raises(AssertionError, match="abs_power"):
        form_trace(X, U, "r", r + 0.5)


def _one_matrix_form_trace(X, U, kind, order):
    # the reference: form_trace on one matrix, in 2-D operations only
    A = U - np.eye(U.shape[0])
    if kind == "n":
        return np.trace(X @ np.linalg.matrix_power(A, order))
    if order == int(order):
        return np.trace(X @ np.linalg.matrix_power(A.conj().T @ A,
                                                   int(order)))
    return np.trace(X @ abs_power(A, order))


@pytest.mark.parametrize("kind, order", [("n", 0), ("n", 1), ("n", 3),
                                         ("r", 1), ("r", 2), ("r", 1.5),
                                         ("r", 0.25)])
def test_form_trace_on_a_stack_is_each_call(kind, order, rng, monkeypatch):
    # every member of a stack is traced bitwise as by its own call, and a
    # one-matrix call is what it was before stacks; a fractional order
    # takes one abs_power call per member
    svds = []

    def counting(A, x):
        svds.append(A.shape)
        return abs_power(A, x)

    monkeypatch.setattr(matcore, "abs_power", counting)
    for dim in (1, 2, 5, 16):
        U = np.stack([haar_unitary(dim, rng) for _ in range(6)])
        # U = Id, and an eigenvalue 1 of multiplicity dim - 1
        U[1] = np.eye(dim)
        U[2, 0, 0] = -1.0
        U[2, 1:, 0] = U[2, 0, 1:] = 0.0
        U[2, 1:, 1:] = np.eye(dim - 1)
        X = np.stack([1j * random_hermitian(dim, rng) for _ in range(6)])
        del svds[:]
        got = form_trace(X, U, kind, order)
        assert got.shape == (6,)
        assert len(svds) == (6 if order != int(order) else 0)
        for Xi, Ui, value in zip(X, U, got):
            one = form_trace(Xi, Ui, kind, order)
            assert np.ndim(one) == 0
            assert value == one == _one_matrix_form_trace(Xi, Ui, kind,
                                                          order)
        # any leading shape
        got2 = form_trace(X.reshape(2, 3, dim, dim),
                          U.reshape(2, 3, dim, dim), kind, order)
        assert np.array_equal(got2.reshape(6), got)


def _no_svd(A, x):
    raise AssertionError("abs_power called")


def test_schatten_norm_anchors():
    assert schatten_norm(np.zeros((3, 3)), 1) == 0.0
    assert abs(schatten_norm(np.diag([3.0, 4.0]), 2) - 5.0) < 1e-14
    P = np.zeros((4, 4))
    P[0, 0] = 1.0
    assert abs(schatten_norm(P, 1) - 1.0) < 1e-14
    assert abs(schatten_norm(np.diag([3.0, 4.0]), np.inf) - 4.0) < 1e-14
    with pytest.raises(InvalidOrder):
        schatten_norm(np.eye(2), 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10 ** 6))
def test_schatten_norm_monotone_in_p(dim, seed):
    # (sum s^p)^{1/p} is nonincreasing in p for a fixed singular spectrum
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ps = [1.0, 1.5, 2.0, 3.0, 7.0, np.inf]
    norms = [schatten_norm(A, p) for p in ps]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-10


def test_abs_power_anchors():
    assert np.allclose(abs_power(np.zeros((3, 3)), 1.3), 0.0)
    # eigenvalue e^{2 pi i t} of a diagonal unitary: |U - Id|^2 = 4 sin^2(pi t)
    t = 0.3
    U = np.diag([np.exp(2j * np.pi * t), 1.0])
    got = abs_power(U - np.eye(2), 1.0)
    want = np.diag([4.0 * np.sin(np.pi * t) ** 2, 0.0])
    assert np.linalg.norm(got - want) < 1e-12


def test_abs_power_semigroup(rng):
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    prod = abs_power(A, 0.4) @ abs_power(A, 0.85)
    assert np.linalg.norm(prod - abs_power(A, 1.25)) < 1e-10


def _gesdd_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_abs_power_falls_back_to_gesvd(rng, monkeypatch):
    A = haar_unitary(6, rng) - np.eye(6)
    want = abs_power(A, 0.75)
    calls = []

    def gesvd_only(M, lapack_driver):
        calls.append(lapack_driver)
        return matcore_svd(M, lapack_driver=lapack_driver)

    matcore_svd = scipy.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", _gesdd_fails)
    monkeypatch.setattr(scipy.linalg, "svd", gesvd_only)
    got = abs_power(A, 0.75)
    assert calls == ["gesvd"]
    assert np.linalg.norm(got - want, ord=2) < 1e-12


def test_abs_power_raises_when_both_drivers_fail(rng, monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _gesdd_fails)
    monkeypatch.setattr(scipy.linalg, "svd", _gesdd_fails)
    with pytest.raises(DecompositionFailure):
        abs_power(haar_unitary(3, rng) - np.eye(3), 1.0)


def test_abs_power_integral_representation(rng):
    # independent route: T^x = (sin(pi x)/pi) Int_0^inf l^{-x} (1+lT)^{-1} T dl
    # for 0 < x < 1, evaluated by log-spaced quadrature with wide cutoffs
    # (the low-l tail only decays like l^{1-x}, hence the extreme lower limit)
    x = 0.75
    w = rng.uniform(1e-3, 10.0, size=6)
    V = haar_unitary(6, rng)
    T = (V * w) @ V.conj().T
    A = (V * np.sqrt(w)) @ V.conj().T  # Hermitian PSD with A*A = T

    lam = np.geomspace(1e-36, 1e12, 2001)
    eye = np.eye(6)
    samples = np.stack([
        (lam_i ** -x) * np.linalg.solve(eye + lam_i * T, T) * lam_i
        for lam_i in lam
    ])
    integral = simpson(samples, x=np.log(lam), axis=0)
    oracle = np.sin(np.pi * x) / np.pi * integral
    assert np.linalg.norm(abs_power(A, x) - oracle, ord=2) < 1e-6


def test_principal_log_anchors():
    assert np.allclose(principal_log_unitary(np.eye(4)), 0.0)
    Y = principal_log_unitary(np.diag([-1.0, 1.0]))
    assert np.linalg.norm(Y - np.diag([1j * np.pi, 0.0])) < 1e-12
    # the antidiagonal reflection exponentiates the half-sum projection
    S0 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    Q = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.linalg.norm(principal_log_unitary(S0) - 1j * np.pi * Q) < 1e-12


def test_principal_log_on_a_stack_is_each_call(rng):
    from scipy.linalg import expm
    mats = np.stack([haar_unitary(3, rng) for _ in range(3)])
    Y = principal_log_unitary(mats)
    assert Y.shape == (3, 3, 3)
    for U, Yi in zip(mats, Y):
        assert np.array_equal(Yi, principal_log_unitary(U))
        assert np.linalg.norm(expm(Yi) - U, ord=2) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6))
def test_principal_log_exponentiates_back(dim, seed):
    from scipy.linalg import expm
    rng = np.random.default_rng(seed)
    U = haar_unitary(dim, rng)
    Y = principal_log_unitary(U)
    assert np.linalg.norm(Y + Y.conj().T, ord=2) < 1e-10  # skew-Hermitian
    assert np.linalg.norm(expm(Y) - U, ord=2) < 1e-9
    angles = np.imag(np.linalg.eigvals(Y))
    assert np.all(angles > -np.pi - 1e-12) and np.all(angles <= np.pi + 1e-12)


@pytest.mark.parametrize("call", [
    lambda x: schatten_norm(np.eye(2), x),
    lambda x: abs_power(np.eye(2), x),
    gamma_constant,
    lambda x: det_p(np.eye(2), x),
    lambda x: sf_alpha(model_loop(1, 2), n=x),
], ids=["schatten_norm", "abs_power", "gamma_constant", "det_p", "sf_alpha"])
def test_nan_orders_are_invalid(call):
    # each order check is written so that NaN fails it, and so does an
    # order that is not a real number, before any comparison
    for order in (np.nan, "1", None, 1 + 0j):
        with pytest.raises(InvalidOrder):
            call(order)


@pytest.mark.parametrize("call", [
    lambda x: abs_power(np.eye(2), x),
    gamma_constant,
], ids=["abs_power", "gamma_constant"])
def test_infinite_powers_are_invalid(call):
    with pytest.raises(InvalidOrder):
        call(np.inf)


def test_gamma_constant_anchors():
    assert abs(gamma_constant(0.0) - 1.0 / np.pi) < 1e-14
    assert abs(gamma_constant(1.0) - 2.0 / np.pi) < 1e-14
    assert abs(gamma_constant(1.5) - 0.75) < 1e-14
    with pytest.raises(InvalidOrder):
        gamma_constant(-0.5)


# the mpmath grid; at r = 7.3 and 127.3, r + 1 crosses a power of two
GAMMA_ORACLE_ORDERS = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 7.3, 10.5,
                       50.0, 100.25, 127.3, 170.0, 170.5, 200.5, 1000.0]


@pytest.mark.parametrize("r", GAMMA_ORACLE_ORDERS)
def test_gamma_constant_against_mpmath(r):
    # within 4e-16 of 40-digit mpmath on the math.gamma ratio and on the
    # asymptotic series alike; the log-gamma form
    # exp(gammaln(x + 1) - gammaln(x + 1/2)) / sqrt(pi) was off by 1.6e-15 at
    # r = 7.3, 1.1e-13 at 170 and 2.7e-13 at 1000
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x = mp.mpf(r)
        want = mp.gamma(x + 1) / (mp.sqrt(mp.pi) * mp.gamma(x + 0.5))
        err = float(abs(gamma_constant(r) - want) / want)
    assert err <= 4e-16


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_gamma_constant_keeps_the_log_gamma_values(r):
    # bitwise the log-gamma form's value where the beta engine's pinned
    # loops read it
    assert gamma_constant(r) == float(
        np.exp(gammaln(r + 1.0) - gammaln(r + 0.5)) / np.sqrt(np.pi))
