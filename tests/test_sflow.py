import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from specflow import sflow
from specflow.errors import (IntegrationFailure, InvalidOrder, NotClosed,
                             PartitionFailure)
from specflow.matcore import abs_power, eig_unitary, gamma_constant
from specflow.rdet import logderiv_det_p
from specflow.sflow import (
    sf_alpha,
    sf_beta,
    sf_det,
    sf_open_path,
    sf_phillips,
    theta_endpoint,
    xi_endpoint,
)
from specflow.upath import (
    UnitaryPath,
    cap_into,
    cap_outof,
    concatenate_many,
    constant_path,
    generator_path,
    geodesic_between,
    model_loop,
)

from conftest import haar_unitary, random_hermitian


ENGINES = [
    lambda path: sf_phillips(path),
    lambda path: sf_alpha(path, n=1),
    lambda path: sf_beta(path, r=1.0),
    lambda path: sf_det(path, p=2),
]


@pytest.mark.parametrize("k,dim", [(1, 2), (2, 3), (3, 3)])
def test_model_loops_all_engines(k, dim):
    loop = model_loop(k, dim)
    for engine in ENGINES:
        report = engine(loop)
        assert report.value == k
        assert report.residual < 1e-6
    # Det_p's log-derivative is the alpha integrand at n = p - 1 up to the
    # sign (-1)^{p-1}, so sf_det is the alpha integral bit for bit
    for p in (1, 2, 3):
        assert sf_det(loop, p=p).raw == sf_alpha(loop, n=p - 1).raw
        for t in (0.3, 0.77):
            U = loop(t)
            alpha = np.trace(U.conj().T @ loop.derivative(t)
                             @ np.linalg.matrix_power(U - np.eye(dim), p - 1))
            assert logderiv_det_p(loop, t, p) == (-1) ** (p - 1) * alpha


def test_constant_loop_is_zero():
    path = constant_path(np.diag([np.exp(0.3j), 1.0]))
    for engine in ENGINES:
        assert engine(path).value == 0


def test_conjugated_loop(rng):
    W = haar_unitary(4, rng)
    loop = model_loop(2, 4)
    conj = UnitaryPath(lambda t: W @ loop(t) @ W.conj().T, closed=True,
                       check=False)
    assert sf_phillips(conj).value == 2
    assert sf_alpha(conj, n=2).value == 2
    assert sf_beta(conj, r=0.5).value == 2


def test_contractible_loop_all_zero(rng):
    # closed loop that never meets -1: flow vanishes and the winding
    # integrals resolve it far below the rounding scale
    H = random_hermitian(3, rng, scale=0.4)
    loop = UnitaryPath(lambda t: expm(1j * np.sin(2 * np.pi * t) * H),
                       closed=True, check=False)
    assert sf_phillips(loop).residual == 0.0
    for report in (sf_alpha(loop, n=1), sf_beta(loop, r=1.0),
                   sf_det(loop, p=2)):
        assert report.value == 0
        assert report.residual <= 1e-8


def test_open_path_rejected_by_loop_engines(rng):
    g = geodesic_between(np.eye(3), haar_unitary(3, rng))
    with pytest.raises(NotClosed):
        sf_alpha(g, n=1)
    with pytest.raises(NotClosed):
        sf_det(g, p=1)


def test_order_agreement_across_admissible_range():
    # summability order 2 admits n >= 1 and r >= 0.5; every admissible
    # choice must report the same winding
    loop = model_loop(1, 3)
    loop2 = UnitaryPath(loop._sampler, closed=True, schatten_order=2.0,
                        derivative=loop._derivative, check=False)
    for n in (1, 2, 3):
        assert sf_alpha(loop2, n=n).value == 1
    for r in (0.5, 0.8, 2.0):
        assert sf_beta(loop2, r=r).value == 1
    assert sf_det(loop2, p=2).value == 1


def test_inadmissible_orders_raise():
    loop = model_loop(1, 2)
    loop2 = UnitaryPath(loop._sampler, closed=True, schatten_order=2.0,
                        check=False)
    with pytest.raises(InvalidOrder):
        sf_alpha(loop2, n=0)
    with pytest.raises(InvalidOrder):
        sf_beta(loop2, r=0.3)
    with pytest.raises(InvalidOrder):
        sf_alpha(loop, n=1.5)
    with pytest.raises(InvalidOrder):
        sf_det(loop, p=0)
    # Det_1 is the alpha integral at n = 0, inadmissible for Schatten order 2
    with pytest.raises(InvalidOrder):
        sf_det(loop2, p=1)
    U = np.diag([np.exp(0.4j), np.exp(-2.0j)])
    for bad in (1.5, -1):
        with pytest.raises(InvalidOrder):
            theta_endpoint(U, bad)
    with pytest.raises(InvalidOrder):
        xi_endpoint(U, -0.5)
    # non-finite orders are rejected before any integral is formed
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidOrder):
            sf_beta(loop, r=bad)
        with pytest.raises(InvalidOrder):
            xi_endpoint(U, bad)


def test_open_path_checks_order_before_counting(monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("sf_phillips ran before the order check")

    monkeypatch.setattr(sflow, "sf_phillips", no_count)
    half = geodesic_between(np.eye(2), np.diag([1j, 1.0]))
    for kwargs in ({"n": 1.5}, {"n": -1}, {"r": -0.5}):
        with pytest.raises(InvalidOrder):
            sf_open_path(half, **kwargs)


def test_phillips_certificate_structure():
    report = sf_phillips(model_loop(2, 4))
    cert = report.certificate
    bps = np.asarray(cert.breakpoints)
    assert bps[0] == 0.0 and bps[-1] == 1.0
    assert np.all(np.diff(bps) > 0)
    assert len(cert.epsilons) == len(bps) - 1
    assert all(0.0 < e < np.pi for e in cert.epsilons)
    assert all(m > 0.0 for m in cert.margins)
    assert report.raw == report.value
    assert report.residual == 0.0


def _block_loop(dim, seed, spread, mmax, centers):
    """W diag(e^{i(phi_j + 2 pi m_j t)}) W*, a closed loop of flow sum(m).

    |m_j| <= mmax, and each phase phi_j lies within `spread` of one of
    `centers` random cluster centres, so every cluster starts out
    near-degenerate and splits by winding number.
    """
    rng = np.random.default_rng(seed)
    m = rng.integers(-mmax, mmax + 1, size=dim)
    c = rng.uniform(-np.pi, np.pi, size=centers)
    phases = (c[rng.integers(centers, size=dim)]
              + spread * rng.uniform(-1.0, 1.0, size=dim))
    W = haar_unitary(dim, rng)

    def sampler(t):
        return (W * np.exp(1j * (phases + 2.0 * np.pi * m * t))) @ W.conj().T

    return UnitaryPath(sampler, closed=True, dim=dim), int(np.sum(m))


@pytest.mark.parametrize("m", range(-8, 9))
def test_phillips_scalar_loops(m):
    loop = UnitaryPath(lambda t: np.array([[np.exp(2j * np.pi * m * t)]]),
                       closed=True, dim=1)
    assert sf_phillips(loop).value == m


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 1e-10, 1e-7, 1e-4]), st.integers(1, 16))
def test_phillips_block_loops(dim, seed, spread, centers):
    loop, flow = _block_loop(dim, seed, spread, 3, centers)
    assert sf_phillips(loop).value == flow


def test_phillips_counts_a_spectrum_turning_one_way():
    # 47 eigenvalues in 11 clusters, 26 net turns.  The pairing of least
    # summed motion hands each eigenvalue the neighbour behind its true
    # partner on some steps, certifies them and counts 24; an arc chosen
    # only among the sampled distances, not the swept ones, falls between
    # an eigenvalue's two positions and cannot be certified
    loop, flow = _block_loop(47, 9, 1e-10, 2, 11)
    assert flow == 26
    assert sf_phillips(loop).value == flow


def _old_ray_test(u0, u1, motion, eps):
    # the removed bisecting certification: a step can carry an eigenvalue
    # across a ray pi +/- eps only if its displacement reaches the sum of
    # its circular clearances from the ray at the two ends
    rays = np.array([eps, -eps])
    c0 = np.abs(sflow._wrap(u0[:, None] - rays))
    c1 = np.abs(sflow._wrap(u1[:, None] - rays))
    return np.any(np.abs(motion)[:, None] >= c0 + c1 - 1e-12)


_OFFSETS = st.one_of(
    st.floats(-np.pi, np.pi),
    # at -1 (the crossing point) and at +1 (the wrap of the offset)
    st.floats(-1e-9, 1e-9),
    st.floats(np.pi - 1e-9, np.pi),
    st.floats(-np.pi, -np.pi + 1e-9),
)


def _check_free_arc(u0, motion):
    u1 = sflow._wrap(u0 + motion)
    eps, clearance = sflow._free_arc(u0, u1, motion)
    if clearance >= sflow.MARGIN_MIN:
        assert not _old_ray_test(u0, u1, motion, eps)
        margin = min(np.min(np.abs(np.abs(u0) - eps)),
                     np.min(np.abs(np.abs(u1) - eps)))
        # the margin is at least the clearance, up to rounding of eps
        assert margin >= clearance - 1e-15
    return clearance


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_OFFSETS,
                          st.floats(-sflow.MOTION_BOUND, sflow.MOTION_BOUND)),
                min_size=1, max_size=64))
def test_free_arc_needs_no_ray_certification(steps):
    _check_free_arc(np.array([u for u, _ in steps]),
                    np.array([m for _, m in steps]))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, np.pi - 0.05),
       st.sampled_from([3e-9, 1e-8, 1e-6, 1e-3]),
       st.lists(st.booleans(), min_size=16, max_size=16),
       st.lists(st.booleans(), min_size=16, max_size=16))
def test_free_arc_clears_a_narrow_gap(centre, width, flips, turns):
    # steps that sweep every distance from -1 except (centre -/+ width/2):
    # the only free arc puts the rays that close to the eigenvalues
    edges = [np.linspace(lo, hi, int(np.ceil((hi - lo) / 0.5)) + 1)
             for lo, hi in ((0.0, centre - width / 2.0),
                            (centre + width / 2.0, np.pi))]
    pieces = [(lo, hi) for e in edges for lo, hi in zip(e[:-1], e[1:])]
    u0, motion = [], []
    for (lo, hi), flip, turn in zip(pieces, flips, turns):
        sign = -1.0 if flip else 1.0
        start, end = (lo, hi) if turn else (hi, lo)
        u0.append(sign * start)
        motion.append(sign * (end - start))
    clearance = _check_free_arc(sflow._wrap(np.array(u0)), np.array(motion))
    assert clearance == pytest.approx(width / 2.0, rel=1e-6)


def test_phillips_refuses_unbounded_interval():
    path = UnitaryPath(lambda s: np.array([[np.exp(1j / (1.0 + s))]]),
                       interval=(0.0, np.inf), dim=1)
    with pytest.raises(PartitionFailure, match="compactify"):
        sf_phillips(path)


def test_phillips_refuses_a_jump():
    # the eigenvalue jumps by 2 rad at t = 0.3: every step across the jump
    # moves more than MOTION_BOUND, down to floating-point resolution
    jump = np.exp(2j)
    path = UnitaryPath(lambda t: np.array([[1.0 if t < 0.3 else jump]]),
                       dim=1)
    with pytest.raises(PartitionFailure, match="floating-point resolution"):
        sf_phillips(path)


def _greedy_reference(key):
    # the plain greedy loop: smallest remaining entry, first in row-major
    # order among ties, then strike its row and column
    key = key.copy()
    perm = np.full(len(key), -1)
    for _ in range(len(key)):
        i, j = np.unravel_index(np.argmin(key), key.shape)
        perm[i] = j
        key[i, :] = np.inf
        key[:, j] = np.inf
    return perm


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_match_motion_is_the_greedy_pairing(dim, seed, tied):
    # the round-wise matching returns the greedy loop's permutation, ties
    # included (integer angles make many keys equal)
    rng = np.random.default_rng(seed)
    if tied:
        a0 = rng.integers(-3, 4, size=dim).astype(float)
        a1 = rng.integers(-3, 4, size=dim).astype(float)
        v0 = v1 = np.eye(dim)
    else:
        a0 = np.sort(rng.uniform(-np.pi, np.pi, size=dim))
        a1 = np.sort(sflow._wrap(a0 + rng.normal(scale=0.5, size=dim)))
        v0, v1 = haar_unitary(dim, rng), haar_unitary(dim, rng)
    motion, perm = sflow._match_motion(a0, v0, a1, v1)
    assert np.array_equal(perm, _greedy_reference(
        sflow._motion_key(a0, v0, a1, v1)))
    assert np.array_equal(np.sort(perm), np.arange(dim))
    assert np.all(np.abs(motion) <= np.pi)


def test_match_motion_greedy_is_not_least_total_motion():
    # greedy pairs the closest angles 1 -> 0.6 first, leaving 0 -> 1.7: a
    # total motion of 2.1 against 1.3 for 0 -> 0.6, 1 -> 1.7, but a step
    # larger than MOTION_BOUND, which sf_phillips refines
    eye = np.eye(2)
    motion, perm = sflow._match_motion(np.array([0.0, 1.0]), eye,
                                       np.array([0.6, 1.7]), eye)
    assert list(perm) == [1, 0]
    assert np.allclose(motion, [1.7, -0.4])
    assert np.max(np.abs(motion)) > sflow.MOTION_BOUND


def test_theta_identity_is_zero():
    for n in (1, 2, 3):
        assert abs(theta_endpoint(np.eye(3), n)) < 1e-12


def test_theta_is_alpha_primitive(rng):
    # d/dt Theta(U_t) must match the alpha integrand along a smooth family
    # that keeps eigenvalues away from -1
    H = random_hermitian(3, rng, scale=0.8)
    n = 2
    t0, h = 0.4, 1e-4

    def theta_at(t):
        return theta_endpoint(expm(1j * t * H), n)

    fd = (theta_at(t0 + h) - theta_at(t0 - h)) / (2 * h)
    U = expm(1j * t0 * H)
    X = 1j * H @ U
    form = (-1) ** n * np.trace(
        U.conj().T @ X @ np.linalg.matrix_power(U - np.eye(3), n)) / (2j * np.pi)
    assert abs(fd - form) <= 1e-4 * abs(form)


def test_xi_is_beta_primitive(rng):
    H = random_hermitian(3, rng, scale=0.8)
    r = 1.3
    t0, h = 0.4, 1e-4
    const = -1j * gamma_constant(r) * 0.5 ** (2 * r + 1)

    def xi_at(t):
        return const * xi_endpoint(expm(1j * t * H), r)

    fd = (xi_at(t0 + h) - xi_at(t0 - h)) / (2 * h)
    U = expm(1j * t0 * H)
    X = 1j * H @ U
    form = const * np.trace(U.conj().T @ X @ abs_power(U - np.eye(3), r))
    assert abs(fd - form) <= 1e-4 * abs(form)


def test_xi_real_and_symmetric_spectrum(rng):
    theta = 0.9
    sym = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    assert abs(xi_endpoint(sym, 1.0)) < 1e-12
    # for any unitary the normalized value is real
    U = haar_unitary(3, rng)
    val = -1j * gamma_constant(0.7) * 0.5 ** 2.4 * xi_endpoint(U, 0.7)
    assert abs(np.imag(val)) < 1e-10


def test_open_path_half_turn():
    # half of the basic loop: Id to diag(-1, 1); the capped closure has no
    # net crossing, and both integral routes reproduce the count
    half = UnitaryPath(lambda t: np.diag([np.exp(1j * np.pi * t), 1.0]),
                       check=False)
    for kwargs in ({"n": 1}, {"r": 1.0}):
        report = sf_open_path(half, **kwargs)
        assert report.value == 0
        assert report.residual <= 1e-4
        assert "body" in report.parameters
        assert "endpoint_correction" in report.parameters


def test_open_path_geodesic():
    g = geodesic_between(np.eye(2), np.diag([1j, 1.0]))
    assert sf_open_path(g, n=1).value == 0


def test_open_path_closed_input_matches_loop_engines():
    loop = model_loop(1, 2)
    report = sf_open_path(loop, n=1)
    assert report.value == 1


def test_open_path_requires_exactly_one_order():
    half = geodesic_between(np.eye(2), np.diag([1j, 1.0]))
    with pytest.raises(InvalidOrder):
        sf_open_path(half)
    with pytest.raises(InvalidOrder):
        sf_open_path(half, n=1, r=1.0)


_CAP_ANGLES = [s * a for s in (1.0, -1.0) for a in (
    np.pi, 3 * np.pi, 5 * np.pi, np.pi + 1e-13, np.pi - 1e-13,
    np.pi + 1e-6, np.pi - 1e-6, 7.0)] + [2.5, -4.0]


def _closed_form_matches_phillips(Y):
    # the count of e^{tY} read off Tr(-iY) and the end sample's angles,
    # against sampled crossing counting on the path and on its reverse
    path = generator_path(Y)
    end = eig_unitary(path(1.0))[0]
    count = sflow._generator_flow(np.trace(-1j * Y).real, end)
    assert sf_phillips(path).value == count
    assert sf_phillips(path.reversed()).value == -count
    return count


@pytest.mark.parametrize("theta", _CAP_ANGLES)
def test_generator_flow_closed_form_on_boundary_angles(theta):
    # at an odd multiple of pi the end sample sits at -1 to rounding, and
    # the side of -1 it falls on decides the count; there the closed form
    # must follow the sample, as floor((theta + pi) / 2 pi) does not
    count = _closed_form_matches_phillips(np.diag([1j * theta, 0.4j]))
    if abs(np.remainder(theta, 2 * np.pi) - np.pi) > 1e-3:
        assert count == np.floor((theta + np.pi) / (2 * np.pi))


def test_generator_flow_closed_form_on_random_generators():
    rng = np.random.default_rng(7)
    counts = set()
    for i in range(200):
        dim = 2 + i % 3
        W = haar_unitary(dim, rng)
        phis = rng.uniform(-12.0, 12.0, size=dim)
        if i % 4 == 0:
            phis[0] = np.pi * rng.choice([-5, -3, -1, 1, 3, 5])
        counts.add(_closed_form_matches_phillips(
            (W * 1j * phis) @ W.conj().T))
    assert len(counts) > 3


def _capped_reference(path):
    # the crossing count of the path closed by sampled geodesic caps
    a, b = path.interval
    return sf_phillips(concatenate_many(
        [cap_into(path(a)), path, cap_outof(path(b))])).value


def test_open_path_matches_sampled_caps(rng):
    paths = []
    for i in range(18):
        dim = 2 + i % 3
        if i % 3 == 0:
            paths.append(generator_path(
                1j * rng.uniform(0.5, 6.0) * random_hermitian(dim, rng)))
        elif i % 3 == 1:
            paths.append(geodesic_between(haar_unitary(dim, rng),
                                          haar_unitary(dim, rng)))
        else:
            sampler, _ = _generic_loop(dim, i)
            base = haar_unitary(dim, rng)
            paths.append(UnitaryPath(lambda t, f=sampler, B=base:
                                     B @ f(0.6 * t), dim=dim))
    # endpoints with an eigenvalue at -1 exactly or to rounding
    minus = np.diag([-1.0, 1j])
    paths += [geodesic_between(np.eye(2), minus),
              geodesic_between(minus, np.eye(2)),
              geodesic_between(minus, np.diag([1j, -1.0])),
              generator_path(np.diag([1j * np.pi, -3j * np.pi])),
              generator_path(np.diag([-1j * np.pi, 0.5j])),
              UnitaryPath(lambda t: np.diag([np.exp(1j * np.pi * t), 1.0]),
                          check=False)]
    for path in paths:
        want = _capped_reference(path)
        for kwargs in ({"n": 1}, {"r": 1}):
            assert sf_open_path(path, **kwargs).value == want


def test_open_path_samples_the_path_only(monkeypatch):
    # the Phillips route runs on the path itself, generator paths too
    path = generator_path(np.diag([3j * np.pi, -0.5j]))
    seen = []
    real = sflow.sf_phillips

    def recording(p):
        seen.append(p)
        return real(p)

    monkeypatch.setattr(sflow, "sf_phillips", recording)
    report = sf_open_path(path, n=1)
    assert seen == [path]
    # one and a half counterclockwise turns, closed by the principal cap:
    # one crossing of -1
    assert report.value == 1
    assert report.certificate.breakpoints[0] == 0.0
    assert report.certificate.breakpoints[-1] == 1.0


def test_generator_path_flow():
    # e^{t Y} with Y = 2 pi i on a single mode is the basic loop again
    Y = np.diag([2j * np.pi, 0.0])
    path = generator_path(Y)
    assert sf_phillips(path).value == 1
    assert sf_alpha(path, n=1).value == 1


def _generic_loop(dim, seed):
    """A loop with no analytic derivative, U(t) = V(t) diag(e^{2 pi i m t})
    V(t)* with V(t) = e^{i sin(2 pi t) H} W; returns (sampler, flow)."""
    rng = np.random.default_rng(seed)
    W = haar_unitary(dim, rng)
    H = random_hermitian(dim, rng)
    H /= np.max(np.abs(np.linalg.eigvalsh(H)))
    m = rng.integers(-1, 2, size=dim)

    def sampler(t):
        V = expm(1j * np.sin(2 * np.pi * t) * H) @ W
        return (V * np.exp(2j * np.pi * m * t)) @ V.conj().T

    return sampler, int(np.sum(m))


def test_generic_loop_values_pinned():
    # bit-for-bit values of the winding engines on a seeded dim-16 loop;
    # evaluation-saving changes to the quadrature must keep them exactly.
    # Captured with numpy 2.4 / scipy 1.17 on OpenBLAS 0.3.31: another
    # BLAS or LAPACK build may round differently and need a re-capture
    sampler, flow = _generic_loop(16, 4)
    loop = UnitaryPath(sampler, closed=True, dim=16)
    alpha_raw = 1.999999999995056 - 1.479135983183939e-11j
    alpha_err = 2.639933557062685e-13
    pins = [(sf_alpha(loop, n=1), alpha_raw, alpha_err),
            # beta takes |U - Id|^2 as the product A*A, not from an SVD
            (sf_beta(loop, r=1), 1.9999999999949245 - 2.7170225946366346e-13j,
             3.2339764540372764e-11),
            (sf_det(loop, p=2), alpha_raw, alpha_err)]
    for report, raw, err in pins:
        assert report.value == flow == 2
        assert report.raw == raw
        assert report.parameters["quad_error"] == err


def test_winding_evaluates_each_node_once():
    # quad integrates the real and imaginary parts in two passes; the
    # integrand must be evaluated once per node, so no sample repeats
    sampler, flow = _generic_loop(8, 4)
    seen = []

    def counting(t):
        seen.append(t)
        return sampler(t)

    loop = UnitaryPath(counting, closed=True, dim=8)
    assert sf_alpha(loop, n=1).value == flow
    assert len(seen) > 2
    assert len(seen) == len(set(seen))


def test_phillips_leaves_no_reference_cycle():
    # the eigen-decomposition cache must be freed by reference counting
    # alone when sf_phillips returns
    sf_phillips(model_loop(2, 5))
    gc.collect()
    gc.disable()
    try:
        sf_phillips(model_loop(2, 5))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("epsabs", [-1.0, 0.0, np.nan, np.inf])
def test_invalid_epsabs_raises(epsabs):
    with pytest.raises(IntegrationFailure):
        sf_alpha(model_loop(1, 2), 1, epsabs=epsabs)
    with pytest.raises(IntegrationFailure):
        theta_endpoint(np.diag([np.exp(0.4j), np.exp(-2.0j)]), 1,
                       epsabs=epsabs)
