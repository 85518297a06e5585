import gc
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from specflow import sflow
from specflow.errors import (IntegrationFailure, InvalidOrder, NotClosed,
                             PartitionFailure)
from specflow.matcore import abs_power, eig_unitary, form_trace, gamma_constant
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
    concatenate,
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
    # a stack of steps, each checked on its own row
    u1 = sflow._wrap(u0 + motion)
    eps, clearance = sflow._free_arc(u0, u1, motion)
    for row in range(len(u0)):
        if clearance[row] >= sflow.MARGIN_MIN:
            assert not _old_ray_test(u0[row], u1[row], motion[row],
                                     eps[row])
            margin = min(np.min(np.abs(np.abs(u0[row]) - eps[row])),
                         np.min(np.abs(np.abs(u1[row]) - eps[row])))
            # the margin is at least the clearance, up to rounding of eps
            assert margin >= clearance[row] - 1e-15
    return clearance


def _with_reverse(u0, motion):
    # the step stacked over the same step run backwards
    u1 = sflow._wrap(u0 + motion)
    return np.stack([u0, u1]), np.stack([motion, -motion])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_OFFSETS,
                          st.floats(-sflow.MOTION_BOUND, sflow.MOTION_BOUND)),
                min_size=1, max_size=64))
def test_free_arc_needs_no_ray_certification(steps):
    _check_free_arc(*_with_reverse(np.array([u for u, _ in steps]),
                                   np.array([m for _, m in steps])))


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
    clearance = _check_free_arc(*_with_reverse(sflow._wrap(np.array(u0)),
                                               np.array(motion)))
    assert clearance[0] == pytest.approx(width / 2.0, rel=1e-6)


def test_phillips_refuses_unbounded_interval():
    path = UnitaryPath(lambda s: np.array([[np.exp(1j / (1.0 + s))]]),
                       interval=(0.0, np.inf), dim=1)
    with pytest.raises(PartitionFailure, match="compactify"):
        sf_phillips(path)


def _jump_path():
    # the eigenvalue jumps by 2 rad at t = 0.3
    jump = np.exp(2j)
    return UnitaryPath(lambda t: np.array([[1.0 if t < 0.3 else jump]]),
                       dim=1)


def test_phillips_refuses_a_jump():
    # every step across the jump moves more than MOTION_BOUND, down to
    # floating-point resolution
    with pytest.raises(PartitionFailure, match="floating-point resolution"):
        sf_phillips(_jump_path())


def test_phillips_keeps_to_the_sample_budget(monkeypatch):
    # 33 samples, then one midpoint per round: the round that would take
    # the 41st sample raises
    monkeypatch.setattr(sflow, "MAX_SAMPLES", 40)
    with pytest.raises(PartitionFailure, match="sample budget 40 exhausted"):
        sf_phillips(_jump_path())
    # e^{6 pi i t} moves 0.59 > MOTION_BOUND per initial step and is
    # certified after one round of bisection, on 65 samples: a budget of
    # 65 is enough and one of 64 is not
    loop = UnitaryPath(lambda t: np.array([[np.exp(6j * np.pi * t)]]),
                       closed=True, dim=1)
    monkeypatch.setattr(sflow, "MAX_SAMPLES", 65)
    report = sf_phillips(loop)
    assert report.value == 3
    assert report.parameters["samples"] == 65
    monkeypatch.setattr(sflow, "MAX_SAMPLES", 64)
    with pytest.raises(PartitionFailure, match="sample budget 64 exhausted"):
        sf_phillips(loop)


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


def _matching_step(dim, rng, tied):
    # (a0, v0, a1, v1) of one step; integer angles make many keys equal
    if tied:
        a0 = rng.integers(-3, 4, size=dim).astype(float)
        a1 = rng.integers(-3, 4, size=dim).astype(float)
        v0 = v1 = np.eye(dim)
    else:
        a0 = np.sort(rng.uniform(-np.pi, np.pi, size=dim))
        a1 = np.sort(sflow._wrap(a0 + rng.normal(scale=0.5, size=dim)))
        v0, v1 = haar_unitary(dim, rng), haar_unitary(dim, rng)
    return a0, v0, a1, v1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.lists(st.booleans(), min_size=1, max_size=8))
def test_match_motion_is_the_greedy_pairing(dim, seed, tied):
    # the round-wise matching of a stack of steps, tied and untied keys
    # mixed, returns on every row the greedy loop's permutation of that
    # row's key, ties included
    rng = np.random.default_rng(seed)
    a0, v0, a1, v1 = (np.stack(part) for part in zip(
        *(_matching_step(dim, rng, t) for t in tied)))
    motion, perm = sflow._match_motion(a0, v0, a1, v1)
    key = sflow._motion_key(a0, v0, a1, v1)
    for row in range(len(tied)):
        assert np.array_equal(perm[row], _greedy_reference(key[row]))
        assert np.array_equal(np.sort(perm[row]), np.arange(dim))
    assert np.all(np.abs(motion) <= np.pi)


def test_match_motion_greedy_is_not_least_total_motion():
    # greedy pairs the closest angles 1 -> 0.6 first, leaving 0 -> 1.7: a
    # total motion of 2.1 against 1.3 for 0 -> 0.6, 1 -> 1.7, but a step
    # larger than MOTION_BOUND, which sf_phillips refines
    eye = np.eye(2)[None]
    motion, perm = sflow._match_motion(np.array([[0.0, 1.0]]), eye,
                                       np.array([[0.6, 1.7]]), eye)
    assert list(perm[0]) == [1, 0]
    assert np.allclose(motion[0], [1.7, -0.4])
    assert np.max(np.abs(motion)) > sflow.MOTION_BOUND


def _depth_first_reference(path):
    # the refinement order sf_phillips had before its rounds: pop one step,
    # certify it, or bisect it and push both halves; every sample is a
    # scalar path(t) call with its own eig_unitary, and each step is a
    # one-row stack of the matching and arc kernels
    a, b = path.interval
    samples = {}

    def sample(t):
        if t not in samples:
            samples[t] = eig_unitary(path(t))
        return samples[t]

    grid = set(np.linspace(a, b, sflow.INITIAL_SAMPLES))
    grid.update(path.breakpoints)
    grid = sorted(grid)
    work = list(zip(grid[:-1], grid[1:]))
    panels = []
    while work:
        t0, t1 = work.pop()
        a0, v0 = sample(t0)
        a1, v1 = sample(t1)
        motion, perm = sflow._match_motion(a0[None], v0[None], a1[None],
                                           v1[None])
        motion, perm = motion[0], perm[0]
        if np.max(np.abs(motion)) <= sflow.MOTION_BOUND:
            u0 = sflow._around_minus_one(a0)
            u1 = sflow._around_minus_one(a1)[perm]
            eps, clearance = sflow._free_arc(u0[None], u1[None],
                                             motion[None])
            eps, clearance = eps[0], clearance[0]
            if clearance >= sflow.MARGIN_MIN:
                margin = min(np.min(np.abs(np.abs(u0) - eps)),
                             np.min(np.abs(np.abs(u1) - eps)))
                arcs = (int(np.sum((u1 >= 0.0) & (u1 < eps)))
                        - int(np.sum((u0 >= 0.0) & (u0 < eps))))
                panels.append((t0, t1, eps, float(margin), arcs))
                continue
        tm = 0.5 * (t0 + t1)
        work.append((t0, tm))
        work.append((tm, t1))
    panels.sort()
    return (sum(p[4] for p in panels), len(samples),
            [panels[0][0]] + [p[1] for p in panels],
            [p[2] for p in panels], [p[3] for p in panels])


def _parity_path(kind, dim, rng):
    if kind == "model":
        return model_loop(rng.integers(1, dim + 1), dim)
    H = random_hermitian(dim, rng)
    H /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(H))))
    generator = generator_path(1j * rng.uniform(0.5, 12.0) * H)
    if kind == "generator":
        return generator
    U = haar_unitary(dim, rng)
    if kind == "geodesic":
        return geodesic_between(haar_unitary(dim, rng), U)
    if kind == "cap":
        return cap_outof(U)
    if kind == "concatenation":
        return concatenate(generator, geodesic_between(generator(1.0), U))
    if kind == "generic":
        # a checked loop with no array sampler and no derivative: its
        # samples are stacked from the scalar sampler, its derivatives
        # from central differences
        sampler, _ = _generic_loop(dim, int(rng.integers(2 ** 31)))
        return UnitaryPath(sampler, closed=True, dim=dim)
    # a reversed concatenation with a model loop, whose samples and
    # derivatives are stacked from the scalar ones
    loop = model_loop(rng.integers(1, dim + 1), dim)
    return concatenate(loop, geodesic_between(np.eye(dim), U)).reversed()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["generator", "geodesic", "concatenation", "model",
                        "model concatenation"]),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_phillips_rounds_match_the_depth_first_order(kind, dim, seed):
    path = _parity_path(kind, dim, np.random.default_rng(seed))
    report = sf_phillips(path)
    cert = report.certificate
    value, samples, breakpoints, epsilons, margins = \
        _depth_first_reference(path)
    assert report.value == value
    assert report.parameters["samples"] == samples <= sflow.MAX_SAMPLES
    assert cert.breakpoints == breakpoints
    assert cert.epsilons == epsilons
    assert cert.margins == margins


def _scalar_node_winding(path, kind, order):
    # the reference winding integral: path(t), path.derivative(t) and a
    # one-matrix form_trace at each node
    order, normalise = sflow._form(path, kind, order)

    def integrand(t):
        U = path(t)
        return form_trace(U.conj().T @ path.derivative(t), U, kind, order)

    a, b = path.interval
    val, err = sflow._adaptive_gk21(
        lambda ts: np.array([integrand(t) for t in ts], dtype=complex),
        (a, *path.breakpoints, b), sflow.DEFAULT_EPSABS, sflow.QUAD_EPSREL)
    return normalise(val), order, err


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["generator", "geodesic", "cap", "concatenation",
                        "model", "model concatenation", "generic"]),
       st.integers(1, 6),
       st.sampled_from([("n", 0), ("n", 1), ("n", 2), ("r", 1),
                        ("r", 1.5)]),
       st.sampled_from([None, 1, 4, 21]), st.integers(0, 2 ** 32 - 1))
def test_winding_stacks_match_the_scalar_nodes(kind, dim, form, nodes, seed):
    # every node of a stacked round is evaluated exactly as on its own, in
    # stacks of the default size or of `nodes` nodes
    path = _parity_path(kind, dim, np.random.default_rng(seed))
    want = _scalar_node_winding(path, *form)
    with pytest.MonkeyPatch.context() as m:
        if nodes is not None:
            m.setattr(sflow, "STACK_ELEMENTS", 2 * nodes * dim ** 2)
        raw, order, err = sflow._winding(path, *form, sflow.DEFAULT_EPSABS)
    assert raw == want[0]
    assert order == want[1]
    assert err == want[2]


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
    return sf_phillips(concatenate(concatenate(cap_into(path(a)), path),
                                   cap_outof(path(b)))).value


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
    # The complex integrand is integrated in one adaptive GK21 pass, and
    # quad_error is qk21's estimate on its modulus, which bounds the error
    # of both parts.  Captured with numpy 2.4 / scipy 1.17 on OpenBLAS
    # 0.3.31: another BLAS or LAPACK build may round differently and need
    # a re-capture
    sampler, flow = _generic_loop(16, 4)
    loop = UnitaryPath(sampler, closed=True, dim=16)
    alpha_raw = 1.9999999999950555 - 1.479135323289289e-11j
    alpha_err = 3.218063727460293e-13
    pins = [(sf_alpha(loop, n=1), alpha_raw, alpha_err),
            # beta takes |U - Id|^2 as the product A*A, not from an SVD
            (sf_beta(loop, r=1), 1.9999999999949245 - 2.4332208202584914e-12j,
             2.790294798399824e-13),
            (sf_det(loop, p=2), alpha_raw, alpha_err)]
    for report, raw, err in pins:
        assert report.value == flow == 2
        assert report.raw == raw
        assert abs(report.raw - flow) < 1e-10
        assert report.parameters["quad_error"] == err


def test_beta_takes_as_many_nodes_as_alpha(monkeypatch):
    # the beta integrand is imaginary up to rounding; refining on the
    # modulus of the complex error spends no nodes on its zero real part.
    # form_trace takes a stack of nodes per call: count the nodes
    sampler, _ = _generic_loop(16, 4)
    loop = UnitaryPath(sampler, closed=True, dim=16)
    nodes = {"n": 0, "r": 0}
    form_trace = sflow.form_trace

    def counting(X, U, kind, order):
        nodes[kind] += len(U)
        return form_trace(X, U, kind, order)

    monkeypatch.setattr(sflow, "form_trace", counting)
    sf_alpha(loop, n=1)
    sf_beta(loop, r=1)
    assert nodes["n"] == nodes["r"] == 21


def test_winding_evaluates_each_node_once():
    # the complex integrand is evaluated once per quadrature node, so no
    # sample repeats across the refinement rounds
    sampler, flow = _generic_loop(8, 4)
    seen = []

    def counting(t):
        seen.append(t)
        return sampler(t)

    loop = UnitaryPath(counting, closed=True, dim=8)
    assert sf_alpha(loop, n=1).value == flow
    assert len(seen) > 2
    assert len(seen) == len(set(seen))


def test_winding_splits_at_breakpoints():
    # a concatenated loop's joint is an edge of the initial panels: no
    # node falls on it, and the value is quad's with the joint as a point
    joined = concatenate(model_loop(1, 2),
                         generator_path(np.diag([2j * np.pi, 0.0])))
    seen = []

    def recording(t):
        seen.append(t)
        return joined(t)

    loop = UnitaryPath(recording, derivative=joined.derivative, closed=True,
                       breakpoints=joined.breakpoints, dim=2)
    report = sf_alpha(loop, n=1)
    assert joined.breakpoints == (0.5,)
    assert 0.5 not in seen

    def integrand(t):
        U = joined(t)
        return np.trace(U.conj().T @ joined.derivative(t) @ (U - np.eye(2)))

    want, _ = quad(integrand, 0.0, 1.0, complex_func=True, points=[0.5])
    assert report.value == 2
    assert abs(report.raw - (-want / (2j * np.pi))) < 1e-9


def _scalar_loop(derivative):
    return UnitaryPath(lambda t: np.array([[np.exp(2j * np.pi * t)]]),
                       derivative=derivative, closed=True, dim=1)


def test_winding_raises_when_quadrature_cannot_converge(monkeypatch):
    # a noise derivative never converges: past the interval limit the
    # quadrature raises instead of returning its best guess
    monkeypatch.setattr(sflow, "QUAD_LIMIT", 64)
    rng = np.random.default_rng(5)
    with pytest.raises(IntegrationFailure, match="more than 64 intervals"):
        sf_alpha(_scalar_loop(lambda t: rng.normal(size=(1, 1))), n=1)


def test_winding_fails_fast_when_quadrature_cannot_converge():
    # at the default limit of 500 intervals a noise integrand raises after
    # about 10^4 evaluations, well within 2 s
    rng = np.random.default_rng(5)
    evals = []

    def noise(t):
        evals.append(t)
        return rng.normal(size=(1, 1))

    t0 = time.perf_counter()
    with pytest.raises(IntegrationFailure, match="more than 500 intervals"):
        sf_alpha(_scalar_loop(noise), n=0)
    assert time.perf_counter() - t0 < 2.0
    assert len(evals) < 21 * 1000


def test_winding_raises_on_nan_estimate():
    with pytest.raises(IntegrationFailure, match="error estimate is nan"):
        sf_alpha(_scalar_loop(lambda t: np.full((1, 1), np.nan)), n=1)


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
