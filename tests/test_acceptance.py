"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ACCEPT-NN line after its assertions pass, and
asserts its own runtime budget.
"""

import time

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from specflow.cayley import cayley, fp_distance, inv_cayley
from specflow.matcore import schatten_norm
from specflow.rdet import counterterm_exponent, det_p, fredholm_det
from specflow.scatter import (
    Potential1D,
    RadialPotential,
    birman_schwinger_det_1d,
    levinson_verify,
    regularization_necessity,
    schatten_decay_exponent,
    smatrix_1d,
)
from specflow.sflow import sf_alpha, sf_beta, sf_det, sf_open_path, sf_phillips
from specflow.upath import generator_path, geodesic_between, model_loop

from conftest import haar_unitary, random_hermitian


def test_accept_01_model_loop_exactness():
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        for dim in (k, k + 2):
            loop = model_loop(k, dim)
            reports = [sf_phillips(loop)]
            reports += [sf_alpha(loop, n=n) for n in (1, 2, 3)]
            reports += [sf_beta(loop, r=r) for r in (0.5, 1.0, 1.7)]
            reports += [sf_det(loop, p=p) for p in (1, 2, 3)]
            for rep in reports:
                assert rep.value == k, (k, dim, rep)
                assert rep.residual <= 1e-6, (k, dim, rep)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    print(f"ACCEPT-01 model-loop exactness (residual <= 1e-6): "
          f"PASS in {elapsed:.1f}s")


def test_accept_02_gamma_integral_identity():
    t0 = time.perf_counter()
    for r in (0.5, 1.0, 2.25):
        val, _ = quad(lambda t: np.sin(np.pi * t) ** (2 * r), 0.0, 1.0,
                      epsabs=1e-13, limit=400)
        want = gamma_fn(r + 0.5) / (np.sqrt(np.pi) * gamma_fn(r + 1.0))
        assert abs(val - want) <= 1e-10, r
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1.0
    print(f"ACCEPT-02 normalization integral identity (1e-10): "
          f"PASS in {elapsed:.2f}s")


def test_accept_03_determinant_identities(rng):
    t0 = time.perf_counter()
    for trial in range(100):
        dim = int(rng.integers(2, 13))
        U = haar_unitary(dim, rng)
        B = U - np.eye(dim)
        p = 2 + trial % 4  # p in 2..5
        # recursion in the order
        step = np.exp((-1) ** (p - 1) / (p - 1)
                      * np.trace(np.linalg.matrix_power(B, p - 1)))
        lhs = det_p(U, p).value
        rhs = det_p(U, p - 1).value * step
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs)), (dim, p)
        # reduced formula down to the plain determinant
        red = fredholm_det(B).value * np.exp(counterterm_exponent(U, p))
        assert abs(lhs - red) <= 1e-10 * (1.0 + abs(lhs)), (dim, p)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    print(f"ACCEPT-03 determinant recursion and reduced formula (1e-10): "
          f"PASS in {elapsed:.1f}s")


def test_accept_04_cayley_roundtrip_and_metric(rng):
    t0 = time.perf_counter()
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        U = haar_unitary(dim, rng)
        assert np.linalg.norm(inv_cayley(cayley(U)) - U, ord=2) <= 1e-10
    for p in (1.0, 2.0, 3.0, np.inf):
        U1 = haar_unitary(5, rng)
        U2 = haar_unitary(5, rng)
        d = fp_distance(cayley(U1), cayley(U2), p)
        assert abs(d - 0.5 * schatten_norm(U1 - U2, p)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    print(f"ACCEPT-04 transform round-trip (1e-10) and half-defect metric "
          f"(1e-12): PASS in {elapsed:.1f}s")


def test_accept_05_open_path_consistency(rng):
    t0 = time.perf_counter()
    for i in range(20):
        dim = int(rng.integers(2, 5))
        if i % 2 == 0:
            scale = float(rng.uniform(0.5, 6.0))
            path = generator_path(1j * scale * random_hermitian(dim, rng))
        else:
            path = geodesic_between(haar_unitary(dim, rng),
                                    haar_unitary(dim, rng))
        rep = sf_open_path(path, n=1)  # raises if the two routes disagree
        assert rep.residual <= 1e-4, (i, rep)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    print(f"ACCEPT-05 open-path crossing count vs integral-plus-endpoint "
          f"route on 20 paths (1e-4): PASS in {elapsed:.1f}s")


def test_accept_06_levinson_1d_wells():
    budgets = []
    for depth, want_n in ((2.0, 1), (5.0, 2), (20.0, 3)):
        t0 = time.perf_counter()
        rep = levinson_verify(Potential1D.square_well(depth), 1)
        elapsed = time.perf_counter() - t0
        assert rep.N == want_n, depth
        assert rep.sf == -want_n, depth
        assert rep.verdict == "pass", depth
        assert rep.residual <= 0.05, depth
        assert elapsed <= 120.0
        budgets.append(elapsed)
    print(f"ACCEPT-06 1D wells N=1,2,3 give flow -N (residual <= 0.05): "
          f"PASS in {sum(budgets):.1f}s")


def test_accept_07_levinson_3d_well():
    t0 = time.perf_counter()
    rep = levinson_verify(RadialPotential.square_well(3.0), 3)
    assert rep.N == 1
    for name, val in rep.routes.items():
        assert int(np.round(np.real(val))) == -1, (name, val)
    assert rep.residual <= 0.05
    assert rep.verdict == "pass"
    pw = rep.per_wave
    assert abs(pw["delta0_drop"] - np.pi) <= 1e-2 * np.pi
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    print(f"ACCEPT-07 3D well: three routes -1, s-wave drop pi "
          f"(1e-2*pi): PASS in {elapsed:.1f}s")


def test_accept_08_regularization_necessity():
    t0 = time.perf_counter()
    out = regularization_necessity(RadialPotential.square_well(3.0))
    assert abs(out["growth_exponent"] - 0.5) <= 0.1
    assert out["tail_ratio"] < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    print(f"ACCEPT-08 unsubtracted partial integrals grow at exponent "
          f"{out['growth_exponent']:.3f} (0.5 +/- 0.1), subtracted tail "
          f"ratio {out['tail_ratio']:.1e} < 1e-3: PASS in {elapsed:.1f}s")


def test_accept_09_determinant_ratio_identity():
    t0 = time.perf_counter()
    V = Potential1D.square_well(3.0)
    worst = 0.0
    for lam in np.geomspace(0.5, 20.0, 10):
        plus = birman_schwinger_det_1d(V, lam, branch=+1)
        minus = birman_schwinger_det_1d(V, lam, branch=-1)
        ratio = minus.value / plus.value
        err = abs(ratio - np.linalg.det(smatrix_1d(V, lam)))
        worst = max(worst, err)
        assert err <= 1e-5, lam
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"ACCEPT-09 discretized determinant ratio reproduces det S at 10 "
          f"energies (worst {worst:.1e} <= 1e-5): PASS in {elapsed:.1f}s")


def test_accept_10_schatten_decay_exponents():
    t0 = time.perf_counter()
    for V, d in ((Potential1D.square_well(5.0), 1),
                 (RadialPotential.square_well(3.0), 3)):
        out = schatten_decay_exponent(V, d)
        assert abs(out["exponent"] - out["expected"]) <= 0.1, d
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    print(f"ACCEPT-10 trace-norm decay exponents match -1/2 + (d-1)/2 "
          f"within 0.1 for d=1,3: PASS in {elapsed:.1f}s")
