import numpy as np
import pytest

from specflow.errors import EnergyNonpositive, SpecflowError
from specflow.scatter import (
    Potential1D,
    bound_states_1d,
    onedim,
    resonance_statistic_1d,
    smatrix_1d,
    transfer_matrix,
)

WELL = Potential1D.square_well(5.0, halfwidth=1.0)
DOUBLE_WELL = Potential1D(segments=((-3.0, -1.0, -6.0), (-1.0, 1.0, 2.0),
                                    (1.0, 3.0, -6.0)))
GAUSSIAN_WELL = Potential1D.from_callable(lambda x: -8.0 * np.exp(-x * x),
                                          (-4.0, 4.0), n_segments=200)
# wells and barriers of unequal lengths
NINE_SEGMENTS = ((-2.0, -1.5, 3.0), (-1.5, -0.9, -7.0), (-0.9, 0.0, 1.0),
                 (0.0, 0.4, -2.5), (0.4, 1.1, 4.0), (1.1, 1.3, -9.0),
                 (1.3, 2.0, 0.5), (2.0, 2.3, -1.0), (2.3, 2.5, 2.0))
SEVEN_SEGMENTS = Potential1D(segments=NINE_SEGMENTS[:7])


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
    assert WELL.dimension == 1


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


@pytest.mark.parametrize("segments", [
    ((-1.0, 1.0, np.nan),),
    ((-1.0, 1.0, -np.inf),),
    ((-1.0, np.nan, -1.0),),
    ((-np.inf, 1.0, -1.0),),
    ((-1.0, 0.0, -1.0), (0.0, np.inf, -1.0)),
])
def test_potential_1d_rejects_non_finite(segments):
    # NaN slips through the ordering checks; each end and value must be
    # finite before any transfer matrix or finite-difference count sees it
    with pytest.raises(SpecflowError, match="finite"):
        Potential1D(segments=segments)


@pytest.mark.parametrize("depth, halfwidth", [
    (np.nan, 1.0), (np.inf, 1.0), (2.0, np.inf), (2.0, np.nan),
])
def test_square_well_1d_rejects_non_finite(depth, halfwidth):
    with pytest.raises(SpecflowError, match="finite"):
        Potential1D.square_well(depth, halfwidth=halfwidth)


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


def test_smatrix_shifted_well_tells_reflections_apart():
    # shifting a symmetric well by s multiplies the right-incoming
    # reflection r+ by e^{-2iks} and the left-incoming r- by e^{2iks}
    depth, s = 5.0, 0.7
    V = Potential1D(segments=((s - 1.0, s + 1.0, -depth),))
    for lam in (0.2, 1.7, 12.0):
        k = np.sqrt(lam)
        t, r = analytic_square_well_smatrix(depth, 1.0, lam)
        S = smatrix_1d(V, lam)
        assert abs(S[0, 0] - t) < 1e-12 and abs(S[1, 1] - t) < 1e-12
        assert abs(S[0, 1] - r * np.exp(-2j * k * s)) < 1e-12
        assert abs(S[1, 0] - r * np.exp(2j * k * s)) < 1e-12


def test_smatrix_asymmetric_matches_linear_solve():
    # plane-wave matching by a linear solve on the transfer matrix:
    # unknowns (r-, t) for the left-incoming and (t, r+) for the
    # right-incoming wave
    V = Potential1D(segments=((-1.0, 0.0, -3.0), (0.0, 2.0, 1.5)))
    xL, xR = V.support
    for lam in (0.3, 1.0, 8.0, 50.0):
        k = np.sqrt(lam)

        def wave(x, sign):
            e = np.exp(sign * 1j * k * x)
            return np.array([e, sign * 1j * k * e])

        M = transfer_matrix(V, lam)
        A = np.column_stack([M @ wave(xL, -1), -wave(xR, 1)])
        rhs = np.column_stack([-(M @ wave(xL, 1)), wave(xR, -1)])
        (r_minus, t), (t2, r_plus) = np.linalg.solve(A, rhs).T
        S = smatrix_1d(V, lam)
        want = np.array([[t, r_plus], [r_minus, t2]])
        assert np.max(np.abs(S - want)) < 1e-12
        assert abs(r_plus - r_minus) > 1e-3


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


def _ordered_product(V, lams):
    """(M, dM/dlam) of V as the left-to-right product of single-segment
    calls, each of shape (2, 2, energies)."""
    M, dM = np.eye(2)[..., None], np.zeros((2, 2, 1))
    for seg in V.segments:
        T, dT = onedim._transfer_dlam(Potential1D(segments=(seg,)), lams,
                                      derivative=True)
        M, dM = (np.einsum("ijn,jkn->ikn", T, M),
                 np.einsum("ijn,jkn->ikn", dT, M)
                 + np.einsum("ijn,jkn->ikn", T, dM))
    return M, dM


def _close(got, want):
    """Equal to 1e-13 of want's largest entry at each energy, the last
    axis."""
    scale = np.max(np.abs(want), axis=(0, 1))
    return np.all(np.max(np.abs(got - want), axis=(0, 1)) <= 1e-13 * scale)


@pytest.mark.parametrize("m", range(1, 10))
def test_fold_matches_ordered_product(m, monkeypatch):
    # the pairwise tree against the left-to-right product: odd counts
    # carry a segment to the next level, and one to three segments are
    # multiplied in the sequential order, bit for bit
    V = Potential1D(segments=NINE_SEGMENTS[:m])
    lams = np.array([1e-3, 0.4, 2.5, 7.5, 60.0])
    M, dM = _ordered_product(V, lams)
    P = onedim._transfer_dlam(V, lams, derivative=True)
    got = np.moveaxis(transfer_matrix(V, lams), 0, -1)
    assert _close(got, M) and _close(P[0], M) and _close(P[1], dM)
    if m <= 3:
        assert np.array_equal(P, [M, dM])
    S, dS = smatrix_1d(V, lams, derivative=True)
    monkeypatch.setattr(onedim, "_transfer_dlam",
                        lambda V, lams, derivative: np.stack([M, dM]))
    S_ref, dS_ref = smatrix_1d(V, lams, derivative=True)
    for got, want in ((S, S_ref), (dS, dS_ref)):
        assert _close(np.moveaxis(got, 0, -1), np.moveaxis(want, 0, -1))


def test_fold_across_entry_blocks():
    # 2,000 energies split the seven segments into four blocks of two,
    # where a scalar call takes them in one block; the block products merge
    # into the same tree, so each energy's values are the scalar call's
    lams = np.geomspace(1e-3, 1e3, 2000)
    assert onedim.ENTRY_BLOCK // len(lams) == 2
    M, dM = _ordered_product(SEVEN_SEGMENTS, lams)
    P = onedim._transfer_dlam(SEVEN_SEGMENTS, lams, derivative=True)
    assert _close(P[0], M) and _close(P[1], dM)
    assert np.array_equal(transfer_matrix(SEVEN_SEGMENTS, lams), [
        transfer_matrix(SEVEN_SEGMENTS, lam) for lam in lams])
    S, dS = smatrix_1d(SEVEN_SEGMENTS, lams, derivative=True)
    for i, lam in enumerate(lams):
        S1, dS1 = smatrix_1d(SEVEN_SEGMENTS, lam, derivative=True)
        assert np.array_equal(S1, S[i]) and np.array_equal(dS1, dS[i])


def test_empty_energy_array():
    for f in (smatrix_1d, transfer_matrix):
        assert f(GAUSSIAN_WELL, np.array([])).shape == (0, 2, 2)


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


def _zero_row(V):
    # the k = 0 row of the carry: (u, u', zeros) of the zero-energy solution
    u, du, zeros, arg_t = onedim._carry_1d(V, np.zeros(1))
    assert np.isnan(arg_t[0])
    return float(u[0]), float(du[0]), int(zeros[0])


def _nodes(V):
    # nodes of the zero-energy solution: on the support, and one beyond it
    # where u and u' oppose at the right edge
    u, du, zeros = _zero_row(V)
    return zeros + (1 if u * du < 0 else 0)


def _split_well(depth, pieces):
    edges = np.linspace(-1.0, 1.0, pieces + 1)
    return Potential1D(segments=tuple(
        (a, b, -depth) for a, b in zip(edges[:-1].tolist(),
                                       edges[1:].tolist())))


def _barrier(height, pieces):
    edges = np.linspace(-1.0, 1.0, pieces + 1).tolist()
    return Potential1D(segments=tuple(
        (a, b, height) for a, b in zip(edges[:-1], edges[1:])))


def _double_well(height):
    return Potential1D(segments=((-3.0, -1.0, -6.0), (-1.0, 1.0, height),
                                 (1.0, 3.0, -6.0)))


# (zeros on the support, nodes) of the zero-energy solution, nodes counting
# the one beyond x_R where u and u' oppose, on the inputs of the node-count
# tests here
ZERO_ENERGY_ROWS = [
    (Potential1D.square_well(2.0), (1, 1)),
    (Potential1D.square_well(5.0), (1, 2)),
    (Potential1D.square_well(20.0), (3, 3)),
    (Potential1D.square_well(400000.0), (403, 403)),
    (Potential1D.square_well(1000000.0), (637, 637)),
    (_split_well(2.0, 2), (1, 1)),
    (_split_well(20.0, 2), (3, 3)),
    (_split_well(400000.0, 2), (403, 403)),
    (_split_well(1000000.0, 2), (637, 637)),
    (_split_well(2.0, 3), (1, 1)),
    (_split_well(20.0, 3), (3, 3)),
    (_split_well(400000.0, 3), (403, 403)),
    (_split_well(1000000.0, 3), (637, 637)),
    (_split_well(2.0, 7), (1, 1)),
    (_split_well(20.0, 7), (3, 3)),
    (_split_well(400000.0, 7), (403, 403)),
    (_split_well(1000000.0, 7), (637, 637)),
    (_barrier(400000.0, 1), (0, 0)),
    (_barrier(400000.0, 2000), (0, 0)),
    (_barrier(1000000.0, 1), (0, 0)),
    (_barrier(1000000.0, 2000), (0, 0)),
    (_double_well(0.0), (3, 4)),
    (_double_well(2.0), (3, 4)),
    (_double_well(1000000.0), (3, 4)),
]


@pytest.mark.parametrize("V, row", ZERO_ENERGY_ROWS)
def test_carry_zero_row_is_the_zero_energy_solve(V, row):
    # the carry's k = 0 row is M(0) (1, 0)^T of the 40-digit transfer
    # oracle, both scaled to max(|u|, |u'|) = 1: its counts exactly, and
    # (u, u') within 2e-15.  Its last bits depend on how the segment
    # product associates: one well split into 2, 3 and 7 pieces gives u
    # apart by 7.7e-14 relative at depth 4e5
    pytest.importorskip("mpmath")
    from test_oracle_1d import mp, oracle_transfer
    u, du, zeros = _zero_row(V)
    assert (zeros, _nodes(V)) == row
    with mp.workdps(40):
        M = oracle_transfer(V, mp.mpf(0))
        top = max(abs(M[0][0]), abs(M[1][0]))
        want = np.array([float(M[0][0] / top), float(M[1][0] / top)])
    got = np.array([u, du]) / max(abs(u), abs(du))
    assert np.max(np.abs(got - want)) < 2e-15


@pytest.mark.parametrize("V", [DOUBLE_WELL, GAUSSIAN_WELL],
                         ids=["double_well", "gaussian_200_segments"])
def test_carry_rows_do_not_depend_on_the_other_wavenumbers(V):
    # each round of the verify's sampled check carries only its new
    # wavenumbers, and its rows must be those of one call over all of them
    ks = np.concatenate([[0.0], np.geomspace(1e-2, 100.0, 40)])
    full = onedim._carry_1d(V, ks)
    for pick in ([0], [0, 3, 17, 39], [5, 40], [22]):
        for got, want in zip(onedim._carry_1d(V, ks[pick]), full):
            assert np.array_equal(got, want[pick], equal_nan=True)


@pytest.mark.parametrize("depth, count", [(4e5, 403), (1e6, 637)])
def test_zero_energy_nodes_exact_on_deep_wells(depth, count):
    # ceil(2 sqrt(V) a / pi) nodes for the width-2a well, about 0.005 and
    # 0.003 apart: closer than a sampled trace could resolve, and beyond
    # the finite-difference oracle's grid
    assert count == int(np.ceil(2.0 * np.sqrt(depth) / np.pi))
    assert _nodes(Potential1D.square_well(depth)) == count


@pytest.mark.parametrize("depth", [2.0, 20.0, 4e5, 1e6])
@pytest.mark.parametrize("pieces", [2, 3, 7])
def test_split_well_counts_as_one_segment(depth, pieces):
    edges = np.linspace(-1.0, 1.0, pieces + 1)
    split = Potential1D(segments=tuple(
        (a, b, -depth) for a, b in zip(edges[:-1].tolist(),
                                       edges[1:].tolist())))
    assert _nodes(split) == _nodes(Potential1D.square_well(depth))


@pytest.mark.parametrize("height", [4e5, 1e6])
@pytest.mark.parametrize("pieces", [1, 2000])
def test_zero_energy_solution_crosses_a_high_barrier(height, pieces):
    # u = cosh(kappa (x + 1)) grows by cosh(2 kappa), past the largest
    # float, across the width-2 barrier, whole or as equal segments; its
    # log-derivative kappa tanh(2 kappa) at the right edge fixes the
    # statistic
    edges = np.linspace(-1.0, 1.0, pieces + 1).tolist()
    barrier = Potential1D(segments=tuple(
        (a, b, height) for a, b in zip(edges[:-1], edges[1:])))
    slope = np.sqrt(height) * np.tanh(2.0 * np.sqrt(height))
    stat = resonance_statistic_1d(barrier)
    assert abs(stat - 3.0 * slope / (1.0 + 3.0 * slope)) < 1e-15
    assert bound_states_1d(barrier) == 0


@pytest.mark.parametrize("height", [0.0, 2.0, 1e6])
def test_double_well_counts(height):
    # two depth-6 wells of width 2, two states each, around a force-free
    # gap (u linear there, with at most one node), the bench's barrier, or
    # one across which an unscaled zero-energy solution would overflow
    V = Potential1D(segments=((-3.0, -1.0, -6.0), (-1.0, 1.0, height),
                              (1.0, 3.0, -6.0)))
    assert bound_states_1d(V) == 4


def _where_lookup(segments, x):
    # V by one pass per segment, the last segment [x0, x1) holding x winning
    out = np.zeros_like(x)
    for x0, x1, v in segments:
        out = np.where((x >= x0) & (x < x1), v, out)
    return out


def test_piece_lookup_matches_a_pass_per_segment():
    rng = np.random.default_rng(5)
    # interior ends moved within the contiguity tolerance: gaps and
    # overlaps of 5e-13 between neighbours
    nudged = tuple((x0, x1 + (5e-13 if i % 2 else -5e-13), v)
                   for i, (x0, x1, v) in enumerate(NINE_SEGMENTS[:-1])) \
        + NINE_SEGMENTS[-1:]
    for segments in (NINE_SEGMENTS, GAUSSIAN_WELL.segments, nudged):
        V = Potential1D(segments=segments)
        ends = np.array([e for x0, x1, _ in segments for e in (x0, x1)])
        x = np.concatenate([rng.uniform(-6.0, 6.0, 2000), ends,
                            np.nextafter(ends, -np.inf),
                            np.nextafter(ends, np.inf), [np.nan]])
        assert np.array_equal(V(x), _where_lookup(segments, x))
        assert np.array_equal(V(x.reshape(-1, 1)), V(x).reshape(-1, 1))
        scalars = [V(float(p)) for p in x[-9:]]
        assert all(isinstance(p, float) for p in scalars)
        assert np.array_equal(scalars, V(x[-9:]))


def _arg_t(V, k):
    return onedim._carry_1d(V, np.array([k]))[3][0]


@pytest.mark.parametrize("V, count", [
    (Potential1D.square_well(100.0), 7),
    (Potential1D.square_well(400.0), 13),
    (Potential1D.square_well(1000.0), 21),
    (DOUBLE_WELL, 4),
    (_barrier(50.0, 1), 0),
    (_barrier(400.0, 1), 0),
], ids=["well_100", "well_400", "well_1000", "double_well", "barrier_50",
        "barrier_400"])
def test_arg_t_near_threshold_reads_the_count(V, count):
    # Levinson's relation in d = 1 without a resonance, arg T(0+) =
    # pi (N - 1/2), from one row of the carry: no energy grid to unwind
    assert round(_arg_t(V, 0.01) / np.pi + 0.5) == count


@pytest.mark.parametrize("V", [
    Potential1D.square_well(2.0), Potential1D.square_well(5.0),
    Potential1D.square_well(20.0), DOUBLE_WELL, GAUSSIAN_WELL,
], ids=["well_2", "well_5", "well_20", "double_well", "gaussian"])
def test_arg_t_high_energy_is_the_born_phase(V):
    # arg T(k) -> 0 on the absolute branch, as the Born phase
    # -integral V / 2k
    k = 1000.0
    born = -V.integral() / (2.0 * k)
    assert abs(_arg_t(V, k) - born) < 1e-2 * abs(born)


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


def _central_dk(V, ks, h=1e-4):
    """Five-point central difference of S in k, error O(h^4)."""
    S = [smatrix_1d(V, (ks + j * h) ** 2) for j in (-2, -1, 1, 2)]
    return (8.0 * (S[2] - S[1]) - (S[3] - S[0])) / (12.0 * h)


def _random_potential(rng):
    n = int(rng.integers(2, 7))
    edges = np.concatenate([[-2.0], -2.0 + np.cumsum(rng.uniform(0.1, 2.0,
                                                                  n))])
    values = rng.uniform(-10.0, 10.0, n)
    return Potential1D(segments=tuple(zip(edges[:-1].tolist(),
                                          edges[1:].tolist(),
                                          values.tolist())))


@pytest.mark.parametrize("V, ks", [
    (DOUBLE_WELL, [0.05, 1.0, 3.0, 30.0]),
    (GAUSSIAN_WELL, [0.02, 0.7, 2.5, 9.0]),
    # k^2 equals the barrier's value 2: q = 0 on that segment, where the
    # entries come from their series; then just inside and just outside
    # the series region, where the closed form of d(sin(qd)/q)/dlam cancels
    (DOUBLE_WELL, [np.sqrt(2.0), np.sqrt(2.0) + 1e-13,
                   np.sqrt(2.0) + 1e-7]),
], ids=["double_well", "gaussian_200_segments", "series_branch"])
def test_exact_derivative_matches_central_difference(V, ks):
    ks = np.array(ks)
    S, dS = smatrix_1d(V, ks * ks, derivative=True)
    fd = _central_dk(V, ks)
    scale = np.max(np.abs(dS), axis=(1, 2))
    assert np.all(np.max(np.abs(dS - fd), axis=(1, 2)) <= 1e-7 * scale)
    assert np.array_equal(S, smatrix_1d(V, ks * ks))


def test_exact_derivative_random_potentials(rng):
    for _ in range(20):
        V = _random_potential(rng)
        ks = rng.uniform(0.05, 6.0, 5)
        _, dS = smatrix_1d(V, ks * ks, derivative=True)
        fd = _central_dk(V, ks)
        scale = np.max(np.abs(dS), axis=(1, 2))
        assert np.all(np.max(np.abs(dS - fd), axis=(1, 2)) <= 1e-7 * scale)


def test_exact_derivative_batched_matches_single():
    ks = np.array([0.01, 0.5, np.sqrt(2.0), 4.0, 70.0])
    S, dS = smatrix_1d(DOUBLE_WELL, ks * ks, derivative=True)
    for i, k in enumerate(ks):
        S1, dS1 = smatrix_1d(DOUBLE_WELL, k * k, derivative=True)
        assert np.array_equal(S1, S[i])
        assert np.array_equal(dS1, dS[i])
    assert np.array_equal(S, smatrix_1d(DOUBLE_WELL, ks * ks))


def test_derivative_keeps_unitarity_constraint():
    # S*S = Id, so S*S' is skew-Hermitian
    ks = np.geomspace(0.01, 100.0, 9)
    S, dS = smatrix_1d(GAUSSIAN_WELL, ks * ks, derivative=True)
    X = np.conj(np.swapaxes(S, 1, 2)) @ dS
    skew = X + np.conj(np.swapaxes(X, 1, 2))
    assert np.max(np.abs(skew)) < 1e-10 * np.max(np.abs(X))
