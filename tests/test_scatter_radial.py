import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from specflow.errors import EnergyNonpositive, SpecflowError
from specflow.scatter import (
    ChannelData,
    RadialPotential,
    bound_state_channels,
    bound_states_radial,
    choose_lmax,
    phase_shifts_3d,
    smatrix_diag_radial,
    threshold_statistics_radial,
)
from specflow.scatter import levinson, radial
from specflow.scatter.radial import (
    RENORM_EVERY,
    _bound_states_fd_radial,
    _grid,
    _node_potential,
    _numerov,
    _tail_zero_radial,
    _zero_energy_radial,
    phase_shift_rows,
)

WELL3 = RadialPotential.square_well(3.0)


def callable_twin(V):
    """V as a bare callable, without shells: the radial solver takes its
    phase shifts from the Numerov sweep, not the closed form."""
    return RadialPotential(v_of_r=V.v_of_r, radius=V.radius)


WELL3_NUMEROV = callable_twin(WELL3)


def matching_phase_shift(depth, R, lam, ell):
    """Log-derivative matching with Riccati-Bessel functions, channelwise."""
    k = np.sqrt(lam)
    q = np.sqrt(lam + depth)

    def S(x):
        return x * spherical_jn(ell, x)

    def dS(x):
        return spherical_jn(ell, x) + x * spherical_jn(ell, x, derivative=True)

    def C(x):
        return -x * spherical_yn(ell, x)

    def dC(x):
        return -spherical_yn(ell, x) - x * spherical_yn(ell, x, derivative=True)

    gam = q * dS(q * R) / S(q * R)
    return np.arctan((k * dS(k * R) - gam * S(k * R))
                     / (gam * C(k * R) - k * dC(k * R)))


def mod_pi_distance(a, b):
    return abs((a - b + np.pi / 2.0) % np.pi - np.pi / 2.0)


def test_radial_potential_moments():
    assert abs(WELL3.integral() + 4.0 * np.pi) < 1e-10
    assert abs(WELL3.integral_sq() - 12.0 * np.pi) < 1e-10
    # two shells: exact sums 4 pi / 3 sum v^p (r1^3 - r0^3), which the
    # quadrature of the callable twin reproduces
    two = RadialPotential(shells=((0.0, 0.5, -12.0), (0.5, 1.0, 4.0)))
    assert two.integral() == 4.0 * np.pi / 3.0 * (-12.0 * 0.125
                                                   + 4.0 * 0.875)
    assert two.integral_sq() == 4.0 * np.pi / 3.0 * (144.0 * 0.125
                                                     + 16.0 * 0.875)
    for V in (WELL3, two):
        twin = callable_twin(V)
        assert abs(twin.integral() - V.integral()) < 1e-8
        assert abs(twin.integral_sq() - V.integral_sq()) < 1e-8
    assert WELL3(0.5) == -3.0
    assert WELL3(1.5) == 0.0
    # radial means 3D: the dimension is a class constant, not a field
    assert WELL3.dimension == RadialPotential.dimension == 3
    with pytest.raises(TypeError):
        RadialPotential.square_well(1.0, dim=3)
    with pytest.raises(SpecflowError):
        RadialPotential(v_of_r=lambda r: -1.0, radius=0.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"shells": ()}, "at least one shell"),
    ({"shells": ((0.1, 1.0, -3.0),)}, "start at r = 0"),
    ({"shells": ((0.0, 0.5, -3.0), (0.6, 1.0, -3.0))}, "contiguous"),
    ({"shells": ((0.0, 0.5, -3.0), (0.5, 0.5, -3.0))}, "positive length"),
    ({"shells": ((0.0, 1.0, np.nan),)}, "finite"),
    ({"shells": ((0.0, 1.0, -3.0),), "radius": 2.0}, "last shell's end"),
    ({"shells": ((0.0, 1.0, -3.0),), "v_of_r": lambda r: -3.0},
     "not both"),
    ({}, "v_of_r or shells"),
])
def test_radial_shells_validation(kwargs, match):
    with pytest.raises(SpecflowError, match=match):
        RadialPotential(**kwargs)


@pytest.mark.parametrize("depth, radius", [
    (3.0, np.inf), (3.0, np.nan), (np.nan, 1.0), (np.inf, 1.0),
    (-np.inf, 1.0),
])
def test_radial_potential_rejects_non_finite(depth, radius):
    # a NaN radius passes radius <= 0; a non-finite depth would reach the
    # radial solver and surface as an IntegrationFailure
    with pytest.raises(SpecflowError, match="finite") as exc:
        RadialPotential.square_well(depth, radius=radius)
    assert type(exc.value) is SpecflowError


def test_s_wave_closed_form():
    # the closed form of the shell and the Numerov sweep of its twin
    for V in (WELL3, WELL3_NUMEROV):
        for lam in (0.5, 4.0, 30.0):
            k, q = np.sqrt(lam), np.sqrt(lam + 3.0)
            want = np.arctan(k / q * np.tan(q)) - k
            got = phase_shifts_3d(V, lam, 2)[0]
            assert mod_pi_distance(got, want) < 1e-6


@pytest.mark.parametrize("ell", [1, 2])
def test_higher_wave_matching(ell):
    for V in (WELL3, WELL3_NUMEROV):
        for lam in (1.0, 6.0, 20.0):
            want = matching_phase_shift(3.0, 1.0, lam, ell)
            got = phase_shifts_3d(V, lam, ell)[ell]
            assert mod_pi_distance(got, want) < 1e-6


def test_phase_shifts_decay_in_ell():
    delta = np.abs(phase_shifts_3d(WELL3, 4.0, 12))
    assert delta[8] < 1e-6
    assert np.all(delta[8:] < delta[4])


def test_phase_shifts_validation():
    with pytest.raises(EnergyNonpositive):
        phase_shifts_3d(WELL3, 0.0, 2)
    with pytest.raises(EnergyNonpositive):
        phase_shifts_3d(WELL3, -1.0, 2)


def test_phase_table_unwinding_and_csv(tmp_path, monkeypatch):
    # every row is on the absolute branch, delta_l(inf) = 0, from node
    # counts.  Channels 0..4 make a short CSV: every cutoff is capped at 4
    monkeypatch.setattr(levinson, "choose_lmax", lambda V, lams: np.minimum(
        choose_lmax(V, lams), 4))
    table = ChannelData(WELL3, np.sqrt(1e-3), 100.0, 200)
    assert table.lmax == 4
    assert table.deltas.shape == (200, 5)
    # absolute shifts move continuously even where the principal branch
    # jumps
    assert np.max(np.abs(np.diff(table.deltas, axis=0))) < np.pi / 2.0
    # one s-state: the shift climbs to ~pi at the bottom of the grid
    assert abs(table.deltas[0, 0] - np.pi) < 0.2
    assert abs(table.deltas[-1, 0]) < 0.05

    out = tmp_path / "table.csv"
    table.to_csv(out)
    text = out.read_text().splitlines()
    assert text[0] == "lambda,delta_0,delta_1,delta_2,delta_3,delta_4"
    back = np.loadtxt(out, delimiter=",", skiprows=1)
    assert back.shape == (200, 6)
    assert np.allclose(back[:, 1:], table.deltas, atol=1e-12)


def test_smatrix_diag_structure():
    diag = smatrix_diag_radial(WELL3, 2.0, 3)
    assert diag.shape == (16,)
    assert np.allclose(np.abs(diag), 1.0, atol=1e-12)
    delta = phase_shifts_3d(WELL3, 2.0, 3)
    assert np.allclose(diag[0], np.exp(2j * delta[0]))
    assert np.allclose(diag[1:4], np.exp(2j * delta[1]))
    assert np.allclose(diag[4:9], np.exp(2j * delta[2]))


def test_bound_state_counts():
    assert np.array_equal(bound_state_channels(WELL3, 4), [1, 0, 0, 0, 0])
    assert bound_states_radial(WELL3) == 1
    deep = RadialPotential.square_well(30.0)
    # eta = sqrt(30): two s-states, one p-state, one d-state
    assert np.array_equal(bound_state_channels(deep, 6),
                          [2, 1, 1, 0, 0, 0, 0])
    assert bound_states_radial(deep) == 10
    barrier = RadialPotential(v_of_r=lambda r: 5.0, radius=1.0)
    assert bound_states_radial(barrier) == 0


def test_deep_well_counts_past_l_8():
    # for l >= 10 the Numerov coefficient A is negative at node 3 and the
    # recursion flips u there; that flip is not a node of the solution
    deep = RadialPotential.square_well(200.0)
    counts = bound_state_channels(deep, 12)
    assert np.array_equal(counts, [5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 0, 0])
    # the Bessel-zero count of the well
    assert int((2 * np.arange(13) + 1) @ counts) == 205
    # far above the last bound channel the node counts stay at the
    # diagonalization's zero, though A <= 0 on ever more nodes
    u, du, changes = _zero_energy_radial(deep, 60)
    nodes = changes + _tail_zero_radial(u, du, deep.radius)
    assert np.all(nodes[11:] == 0)
    for ell in (10, 11, 13, 30, 60):
        assert nodes[ell] == _bound_states_fd_radial(deep, ell)


def test_very_deep_well_widens_its_cutoff():
    # channels 9 and 10 hold states, so the count widens its channel range
    # past l = 8 to the Bessel-zero count of test_deep_well_counts_past_l_8
    assert bound_states_radial(RadialPotential.square_well(200.0)) == 205


def test_threshold_statistics():
    # generic well: every channel far from threshold
    assert np.all(threshold_statistics_radial(WELL3) > 1e-3)
    # s-channel exactly at threshold: depth (pi/2)^2 over unit radius
    sig = threshold_statistics_radial(
        RadialPotential.square_well(np.pi ** 2 / 4.0))
    assert sig[0] < 1e-9
    assert np.all(sig[1:] > 1e-3)
    # p-channel at threshold: depth pi^2
    sig = threshold_statistics_radial(RadialPotential.square_well(np.pi ** 2))
    assert sig[1] < 1e-9
    assert sig[0] > 1e-3


def test_choose_lmax_scales_with_energy():
    low = choose_lmax(WELL3, 100.0)
    high = choose_lmax(WELL3, 1e4)
    assert low == 20
    assert high == 116
    assert np.abs(phase_shifts_3d(WELL3, 1e4, high)[-1]) < 1e-8
    # an array of energies: one batched sweep, the same cutoffs
    both = choose_lmax(WELL3, np.array([100.0, 1e4, 4.0]))
    assert both.tolist() == [20, 116, choose_lmax(WELL3, 4.0)]


# Phase shifts of channels 0..3 on the principal branch, from the 30-digit
# closed form `oracle_shift` of tests/test_oracle_3d.py.  A square well
# is one shell, whose rows are closed-form too; the Numerov sweep of its
# callable twin misses these values by up to 2.4e-7.
FROZEN_SHIFTS = {
    3.0: {
        0.04: [-0.781518505385856, 0.0007511621986561696,
               7.018408855113338e-07, 4.1855312819828565e-10],
        2.0: [1.0489295170769808, 0.22841108805013252,
              0.01036463321490108, 0.00031244662749247624],
        60.0: [0.19333381075078296, 0.18317928124621224,
               0.19249369142677525, 0.1569294139900797],
        400.0: [0.07366771377661545, 0.07571889638294915,
                0.07357198207584198, 0.07391457739258864],
        1600.0: [0.03795045964870438, 0.036990182803555954,
                 0.03787916703976482, 0.03688623966221259],
        6400.0: [0.018726395902822303, 0.018763398301037418,
                 0.01872628538740707, 0.01873418791924932],
    },
    np.pi ** 2 / 4.0: {
        0.04: [1.4708683440455883, 0.0005747424478750373,
               5.614810094128177e-07, 3.390643264410552e-10],
        2.0: [0.8902996534453985, 0.16968830809117563,
              0.00822520955028727, 0.0002526124170514945],
        60.0: [0.1586743551190648, 0.15158812718624856,
               0.1581824005825745, 0.12920626518219366],
        400.0: [0.06057815672096547, 0.062330968531247484,
                0.06049243957659864, 0.0608530450668902],
        1600.0: [0.031215412363409977, 0.03042566259510406,
                 0.031157534504015424, 0.030338887389687465],
        6400.0: [0.015401533334993625, 0.015433231071746427,
                 0.015401434676109866, 0.015409213463728992],
    },
}


@pytest.mark.parametrize("depth", sorted(FROZEN_SHIFTS))
def test_phase_shifts_frozen_values(depth):
    V = RadialPotential.square_well(depth)
    for lam, want in FROZEN_SHIFTS[depth].items():
        got = phase_shifts_3d(V, lam, 3)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_batched_sweep_matches_single_energies():
    # a mixed batch: energies sharing the step 1e-3 (k <= 20), energies
    # with their own finer steps (k > 20), grids of different lengths, and
    # one energy repeated
    lams = np.array([3.0e3, 0.05, 900.0, 2.5, 0.05, 9.0e3, 120.0])
    steps = _grid(WELL3_NUMEROV, lams)[0]
    assert len(np.unique(steps)) == 4
    for V in (WELL3_NUMEROV, WELL3):
        batch = phase_shift_rows(V, lams, 12)
        assert batch.shape == (len(lams), 13)
        for lam, row in zip(lams, batch):
            np.testing.assert_allclose(row, phase_shift_rows(V, [lam], 12)[0],
                                       rtol=0.0, atol=1e-13)
            # phase_shifts_3d is the same shift on the principal branch
            principal = phase_shifts_3d(V, lam, 12)
            assert np.all(np.abs(principal) <= np.pi / 2)
            np.testing.assert_allclose(mod_pi_distance(row, principal), 0.0,
                                       atol=1e-13)
        with pytest.raises(EnergyNonpositive):
            phase_shift_rows(V, [1.0, 0.0], 2)


# the bench wells, a three-shell step and the repulsive step V = +500 on
# r < 1, whose interior is classically forbidden at every low row
CROSS_KERNEL = {
    "well3": WELL3,
    "well12": RadialPotential.square_well(12.0),
    "well30": RadialPotential.square_well(30.0),
    "steps": RadialPotential(shells=((0.0, 0.4, -20.0), (0.4, 0.8, 5.0),
                                     (0.8, 1.2, -8.0))),
    "repulsive": RadialPotential(shells=((0.0, 1.0, 500.0),)),
}


@pytest.mark.parametrize("name", sorted(CROSS_KERNEL))
def test_shell_rows_match_numerov(name):
    # the rows a 3D verify reads, the 16 low rows and the k_max row, from
    # the closed form and from the Numerov sweep of the callable twin: the
    # same branch in every channel, and shifts within Numerov's own error
    V = CROSS_KERNEL[name]
    ks = np.geomspace(1e-2, 100.0, 400)[:levinson.SLOPE_ROWS]
    for lams in (ks ** 2, np.array([1e4])):
        lmax = choose_lmax(V, lams[-1])
        shells = radial._sweep_rows(V, lams, lmax)
        numerov = radial._sweep_rows(callable_twin(V), lams, lmax)
        assert np.array_equal(shells[1], numerov[1])
        np.testing.assert_allclose(shells[0], numerov[0], rtol=0.0,
                                   atol=1e-5)


def test_split_shell_matches_one_shell():
    # the depth-12 well as two equal shells meeting at r = 0.5
    one = RadialPotential.square_well(12.0)
    two = RadialPotential(shells=((0.0, 0.5, -12.0), (0.5, 1.0, -12.0)))
    lams = np.geomspace(1e-4, 1e4, 40)
    np.testing.assert_allclose(phase_shift_rows(two, lams, 120),
                               phase_shift_rows(one, lams, 120),
                               rtol=0.0, atol=1e-12)
    a, b = levinson.levinson_verify(one, 3), levinson.levinson_verify(two, 3)
    assert (a.verdict, a.N) == (b.verdict, b.N) == ("pass", 4)


def test_radial_potential_array_call_matches_scalar_calls():
    R = 1.5
    radii = np.array([0.0, 0.3, R - 1e-12, R, R + 1e-12, 4.0])
    # the square root is undefined beyond the radius, where V must still
    # read zero: v_of_r only ever sees radii inside the support
    smooth = RadialPotential(v_of_r=lambda r: -np.sqrt(R - r), radius=R)
    for V in (RadialPotential.square_well(2.0, radius=R), smooth):
        vals = V(radii)
        assert vals.shape == radii.shape
        scalars = [V(float(x)) for x in radii]
        assert all(isinstance(x, float) for x in scalars)
        assert np.array_equal(vals, scalars)
        assert vals[3] == 0.0 and V(R) == 0.0
        assert np.array_equal(V(radii.reshape(2, 3)), vals.reshape(2, 3))
    assert RadialPotential.square_well(2.0, radius=R)(0.3) == -2.0
    # a constant callable is broadcast over the radii inside the support
    flat = RadialPotential(v_of_r=lambda r: 5.0, radius=1.0)
    assert np.array_equal(flat(np.array([0.5, 0.9, 1.0])), [5.0, 5.0, 0.0])


def _per_node_numerov(lam, h, n, v, lmax, record):
    """One energy of radial._numerov as a plain node-by-node recursion:
    the same floating-point operations in the same order, and the same
    renormalization and node-counting rules.  Returns (rows, changes)."""
    ells = np.arange(lmax + 1)
    cent = ells * (ells + 1.0)

    def f_at(i):
        return cent / ((h * i) * (h * i)) + ((v[i] if i < len(v) else 0.0)
                                             - lam)

    def A(i):
        return 1.0 - (h * h / 12.0) * f_at(i)

    def B(i):
        return (5.0 * h * h / 6.0) * f_at(i) + 2.0

    c = (f_at(1) - cent / (h * h)) / (4.0 * ells + 6.0)
    u_prev = (1.0 + c * h * h) * np.exp(-(ells + 1.0) * np.log(2.0))
    u_cur = 1.0 + 4.0 * c * h * h
    changes = ((np.sign(u_prev) * np.sign(u_cur) < 0) & (A(2) > 0)).astype(int)
    no_renorm_from = n - max(n - min(record) + 1, 8) - 2
    rows = {}
    for i in range(2, n):
        u_next = (B(i) * u_cur - A(i - 1) * u_prev) / A(i + 1)
        changes += (np.sign(u_next) * np.sign(u_cur) < 0) & (A(i + 1) > 0)
        u_prev, u_cur = u_cur, u_next
        rows[i + 1] = u_cur.copy()
        if i % RENORM_EVERY == 0 and i < no_renorm_from:
            scale = np.maximum(np.maximum(np.abs(u_prev), np.abs(u_cur)),
                               1e-280)
            u_prev, u_cur = u_prev / scale, u_cur / scale
    return np.array([rows[node] for node in record]), changes


@pytest.mark.parametrize("block", [radial.BLOCK_ELEMENTS, 1, 3 * 8 * 15 + 5])
def test_blocked_kernel_matches_per_node_recursion(block, monkeypatch):
    # the default budget, one node per block, and blocks of three nodes
    # while all eight energies run
    monkeypatch.setattr(radial, "BLOCK_ELEMENTS", block)
    V = RadialPotential.square_well(30.0)
    steps = np.array([1e-3, 7e-4])
    v_nodes = _node_potential(V, steps, np.ceil(V.radius / steps).astype(int))
    lams = np.array([0.5, 2.0, 0.0, 30.0, 0.5, 7.0, 1e-2, 30.0])
    group = np.array([0, 1, 0, 0, 1, 1, 0, 0])
    # grids of different lengths, four of them ending on renormalization
    # nodes and one just past one, the longest crossing twelve of them; the
    # last ends two nodes before the s-wave's first node at r = pi/sqrt(60),
    # which it must not count
    ns = np.array([1300, 700, 701, 1200, 450, 1300, 1000, 403])
    # records beside renormalization nodes, where blocks end, and at the
    # grid ends
    records = np.array([[101, 102], [699, 700], [600, 701], [1101, 1200],
                        [300, 450], [1299, 1300], [3, 1000], [5, 403]])
    lmax = 14
    out, changes = _numerov(lams, steps[group], ns, v_nodes, group, lmax,
                            records)
    for e in range(len(lams)):
        rows, want = _per_node_numerov(lams[e], steps[group[e]], ns[e],
                                       v_nodes[:, group[e]], lmax,
                                       records[e])
        assert np.array_equal(out[e], rows)
        assert np.array_equal(changes[e], want)
    # the well is deep enough for interior nodes to be counted
    assert np.any(changes > 0)


def test_block_counts_match_node_by_node(monkeypatch):
    # the sign changes are counted once per block over its stored rows; a
    # one-element BLOCK_ELEMENTS takes one node per block, the node-by-node
    # count.  Covered: the lambda = 0 sweep of a deep well, and a sweep at
    # k = 100 up to l = 140, where A <= 0 on the first ~40 nodes of the top
    # channels and the recursion's sign flips there must not count
    deep = RadialPotential.square_well(200.0)
    lams = np.array([1e4, 30.0])
    h, n_in, n_tot = _grid(deep, lams)
    steps, first, group = np.unique(h, return_index=True,
                                    return_inverse=True)
    v_nodes = _node_potential(deep, steps, n_in[first])

    def sweeps():
        zero = _zero_energy_radial(deep, 60)[2]
        high = _numerov(lams, h, n_tot, v_nodes, group, 140,
                        np.stack([n_tot - 1, n_tot], axis=1))[1]
        return zero, high

    blocked = sweeps()
    monkeypatch.setattr(radial, "BLOCK_ELEMENTS", 1)
    for got, want in zip(blocked, sweeps()):
        assert np.array_equal(got, want)
    assert np.any(blocked[1] > 0) and np.any(blocked[0] > 0)
