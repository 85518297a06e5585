import re

import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from specflow.errors import (
    EnergyNonpositive,
    OracleDisagreement,
    SpecflowError,
)
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
from specflow.scatter.potentials import CALLABLE_SHELLS
from specflow.scatter.radial import (
    _bound_states_fd_radial,
    _tail_zero_radial,
    _zero_energy_radial,
    phase_shift_rows,
)

WELL3 = RadialPotential.square_well(3.0)


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
    # midpoint shells of each potential as a callable reproduce
    two = RadialPotential(shells=((0.0, 0.5, -12.0), (0.5, 1.0, 4.0)))
    assert two.integral() == 4.0 * np.pi / 3.0 * (-12.0 * 0.125
                                                   + 4.0 * 0.875)
    assert two.integral_sq() == 4.0 * np.pi / 3.0 * (144.0 * 0.125
                                                     + 16.0 * 0.875)
    for V in (WELL3, two):
        twin = RadialPotential.from_callable(V, V.radius)
        assert abs(twin.integral() - V.integral()) < 1e-8
        assert abs(twin.integral_sq() - V.integral_sq()) < 1e-8
    assert WELL3(0.5) == -3.0
    assert WELL3(1.5) == 0.0
    # radial means 3D: the dimension is a class constant, not a field
    assert WELL3.dimension == RadialPotential.dimension == 3
    with pytest.raises(TypeError):
        RadialPotential.square_well(1.0, dim=3)
    with pytest.raises(SpecflowError):
        RadialPotential.from_callable(lambda r: -1.0, 0.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"shells": ()}, "at least one shell"),
    ({"shells": ((0.1, 1.0, -3.0),)}, "start at r = 0"),
    ({"shells": ((0.0, 0.5, -3.0), (0.6, 1.0, -3.0))}, "contiguous"),
    ({"shells": ((0.0, 0.5, -3.0), (0.5, 0.5, -3.0))}, "positive length"),
    ({"shells": ((0.0, 1.0, np.nan),)}, "finite"),
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
    for lam in (0.5, 4.0, 30.0):
        k, q = np.sqrt(lam), np.sqrt(lam + 3.0)
        want = np.arctan(k / q * np.tan(q)) - k
        got = phase_shifts_3d(WELL3, lam, 2)[0]
        assert mod_pi_distance(got, want) < 1e-6


@pytest.mark.parametrize("ell", [1, 2])
def test_higher_wave_matching(ell):
    for lam in (1.0, 6.0, 20.0):
        want = matching_phase_shift(3.0, 1.0, lam, ell)
        got = phase_shifts_3d(WELL3, lam, ell)[ell]
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
    barrier = RadialPotential.from_callable(lambda r: 5.0, 1.0)
    assert bound_states_radial(barrier) == 0


def test_deep_well_counts_past_l_8():
    # channels 9 and 10 hold states beyond bound_state_channels' default
    # l = 8
    deep = RadialPotential.square_well(200.0)
    counts = bound_state_channels(deep, 12)
    assert np.array_equal(counts, [5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 0, 0])
    # the Bessel-zero count of the well
    assert int((2 * np.arange(13) + 1) @ counts) == 205
    # far above the last bound channel, where the regular solution
    # underflows at the first shell's end, the node counts stay at the
    # diagonalization's zero
    u, du, changes = _zero_energy_radial(deep, 60)
    nodes = changes + _tail_zero_radial(u, du, deep.radius)
    assert np.all(nodes[11:] == 0)
    ells = [10, 11, 13, 30, 60]
    assert nodes[ells].tolist() == list(_bound_states_fd_radial(deep, ells))


def test_very_deep_well_widens_its_cutoff():
    # channels 9 and 10 hold states, so the count's channel range reaches
    # past l = 8, to the Bessel-zero count of test_deep_well_counts_past_l_8
    assert bound_states_radial(RadialPotential.square_well(200.0)) == 205


@pytest.mark.parametrize("depth, top, N", [
    (50.0, 8, 29), (100.0, 10, 69), (200.0, 14, 205)])
def test_bound_states_radial_one_sweep(monkeypatch, depth, top, N):
    # one zero-energy sweep over channels 0..max(8, l), l the first channel
    # with l(l+1) >= R^2 depth, whose effective potential is nonnegative
    calls = []

    def counting(V, lmax):
        calls.append(lmax)
        return _zero_energy_radial(V, lmax)

    monkeypatch.setattr(radial, "_zero_energy_radial", counting)
    assert bound_states_radial(RadialPotential.square_well(depth)) == N
    assert calls == [top]


def test_bound_states_radial_top_channel_guard(monkeypatch):
    # a count in the top channel swept, which the potential cannot bind,
    # is a solver fault, not a reason to sweep further
    monkeypatch.setattr(radial, "_channel_counts",
                        lambda V, zero: np.ones(len(zero[0]), dtype=int))
    with pytest.raises(OracleDisagreement, match=re.escape(
            "channel l=8 holds 1 bound states")):
        bound_states_radial(WELL3)


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


@pytest.mark.parametrize("depth", [3.0, 12.0, 30.0])
def test_cutoff_rows_sweep_the_bench_wells_once(monkeypatch, depth):
    # the verify's rows at k_min = 0.01 and k_max = 100 come from one
    # sweep, 40 channels past l = 100, the first l with l(l+1) >= 1e4 +
    # depth
    calls = []
    sweep = radial._sweep_rows

    def recording(V, lams, lmax):
        calls.append(lmax)
        return sweep(V, lams, lmax)

    monkeypatch.setattr(radial, "_sweep_rows", recording)
    radial._cutoff_rows(RadialPotential.square_well(depth),
                        np.square([1e-2, 100.0]))
    assert calls == [140]


@pytest.mark.parametrize("depth, lmax", [(3e4, 166), (1e5, 307)])
def test_choose_lmax_deep_wells(depth, lmax):
    # the well's depth, not only the wavenumber, sizes the sweep: at
    # k = 0.01 neither cutoff lies within kR + 160 channels
    assert choose_lmax(RadialPotential.square_well(depth), 1e-4) == lmax


@pytest.mark.parametrize("height, k, lmax", [(2e4, 100.0, 122),
                                             (1e3, 31.0, 46)])
def test_choose_lmax_barriers(height, k, lmax):
    # below the barrier's top the free wave still reaches R in every
    # channel up to about kR, so the exterior's V = 0, not the barrier,
    # sizes the sweep; the cutoffs are those of the wavenumber-only guess
    # ceil(kR) + 40 that the rule replaced
    V = RadialPotential(shells=((0.0, 1.0, height),))
    assert int(radial._forbidden_channel(V, k * k)) == round(k)
    assert choose_lmax(V, k * k) == lmax


def test_forbidden_channel_matches_integer_search():
    # the first l with l(l+1) >= x, for x of that form, perfect squares,
    # their float neighbours and random values
    m = np.arange(400.0)
    forms = [m * (m + 1.0), m * m]
    x = np.concatenate(forms + [np.nextafter(f, np.inf) for f in forms]
                       + [np.nextafter(f, 0.0) for f in forms]
                       + [np.random.default_rng(0).uniform(0.0, 1e5, 400)])
    free = RadialPotential(shells=((0.0, 1.0, 0.0),))
    want = [next(l for l in range(500) if l * (l + 1) >= v) for v in x]
    assert radial._forbidden_channel(free, x).tolist() == want
    # at lam = 0 the rule reads the depth: R^2 depth = 2.25 * 12
    well = RadialPotential.square_well(12.0, radius=1.5)
    assert int(radial._forbidden_channel(well, 0.0)) == 5


# Phase shifts of channels 0..3 on the principal branch, from the 30-digit
# closed form `oracle_shift` of tests/test_oracle_3d.py.  A square well
# is one shell, whose rows are closed-form too.
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
    # a mixed batch over six decades of energy, one energy repeated
    lams = np.array([3.0e3, 0.05, 900.0, 2.5, 0.05, 9.0e3, 120.0])
    batch = phase_shift_rows(WELL3, lams, 12)
    assert batch.shape == (len(lams), 13)
    for lam, row in zip(lams, batch):
        np.testing.assert_allclose(row, phase_shift_rows(WELL3, [lam], 12)[0],
                                   rtol=0.0, atol=1e-13)
        # phase_shifts_3d is the same shift on the principal branch
        principal = phase_shifts_3d(WELL3, lam, 12)
        assert np.all(np.abs(principal) <= np.pi / 2)
        np.testing.assert_allclose(mod_pi_distance(row, principal), 0.0,
                                   atol=1e-13)
    with pytest.raises(EnergyNonpositive):
        phase_shift_rows(WELL3, [1.0, 0.0], 2)


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


# the branch integers of the rows of test_shell_rows_match_numerov, as
# the Numerov sweeps of these potentials as callables gave them before
# every radial potential became shells: (lmax, branch per channel) of each
# of the 16 low rows, and (lmax, {channel: branch}) of the k_max row,
# whose other channels hold 0
NUMEROV_BRANCHES = {
    "well3": ((4, [1, 0, 0, 0, 0]), (116, {})),
    "well12": ((4, [1, 1, 0, 0, 0]), (117, {})),
    "well30": ((5, [2, 1, 1, 0, 0, 0]), (118, {})),
    "steps": ((4, [1, 0, 0, 0, 0]), (137, {})),
    "repulsive": ((4, [0, 0, 0, 0, 0]),
                  (120, {**{l: -1 for l in range(76)}, 77: -1})),
}


@pytest.mark.parametrize("name", sorted(CROSS_KERNEL))
def test_shell_rows_match_numerov(name):
    # the 16 lowest rows of the default grid and the k_max row: the
    # principal shifts against a 30-digit shell transfer in mpmath, the
    # branches against those the Numerov kernel gave
    from test_oracle_3d import shell_shift
    V = CROSS_KERNEL[name]
    (low_lmax, low), (top_lmax, top) = NUMEROV_BRANCHES[name]
    ks = np.geomspace(1e-2, 100.0, 400)[:16]
    want_top = np.zeros(top_lmax + 1, dtype=int)
    want_top[list(top)] = list(top.values())
    for kk, lmax, branch in ((ks, low_lmax, np.tile(low, (len(ks), 1))),
                             (np.array([100.0]), top_lmax, want_top[None])):
        assert choose_lmax(V, kk[-1] ** 2) == lmax
        principal, got, _ = radial._sweep_rows(V, kk ** 2, lmax)
        assert np.array_equal(got, branch)
        want = [[shell_shift(V.shells, k, ell) for ell in range(lmax + 1)]
                for k in kk]
        np.testing.assert_allclose(mod_pi_distance(principal, np.array(want)),
                                   0.0, atol=1e-12)


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


@pytest.mark.parametrize("cut", [0.5, 1e-3])
def test_split_shell_slopes_match_one_shell(cut, monkeypatch):
    # the integral of u^2 carried across a boundary inside one shell; at
    # r = 1e-3 the high channels lie deep inside the centrifugal barrier,
    # where the irregular part is dropped and so is the integral before r
    sizes = []
    coefficients = radial._coefficients

    def recording(u, du, pair, r):
        out = coefficients(u, du, pair, r)
        sizes.append(out[2])
        return out

    one = RadialPotential.square_well(12.0)
    lams = np.geomspace(1e-4, 1e4, 40)
    want = radial._sweep_rows(one, lams, 120)[2]
    monkeypatch.setattr(radial, "_coefficients", recording)
    two = RadialPotential(shells=((0.0, cut, -12.0), (cut, 1.0, -12.0)))
    got = radial._sweep_rows(two, lams, 120)[2]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)
    assert np.any(np.isinf(sizes[0])) == (cut < 0.5)


def test_radial_potential_array_call_matches_scalar_calls():
    R = 1.5
    radii = np.array([0.0, 0.3, R - 1e-12, R, R + 1e-12, 4.0])
    # the square root is undefined beyond the radius, where V must still
    # read zero: from_callable samples f only at shell midpoints inside
    # the support
    smooth = RadialPotential.from_callable(lambda r: -np.sqrt(R - r), R)
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
    flat = RadialPotential.from_callable(lambda r: 5.0, 1.0)
    assert np.array_equal(flat(np.array([0.5, 0.9, 1.0])), [5.0, 5.0, 0.0])


def test_from_callable_samples_midpoints_in_one_call():
    calls = []

    def f(r):
        calls.append(r)
        return -4.0 * np.exp(-r * r)

    V = RadialPotential.from_callable(f, 3.0)
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    edges = np.linspace(0.0, 3.0, CALLABLE_SHELLS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    np.testing.assert_array_equal(calls[0], mids)
    assert len(V.shells) == CALLABLE_SHELLS
    assert V.radius == 3.0
    np.testing.assert_array_equal(V(mids), -4.0 * np.exp(-mids * mids))
    # neighbours of equal value are one shell
    step = RadialPotential.from_callable(
        lambda r: np.where(r < 0.5, -12.0, 4.0), 1.0)
    assert len(step.shells) == 2
    assert [v for _, _, v in step.shells] == [-12.0, 4.0]
    assert abs(step.shells[0][1] - 0.5) < 1e-15


@pytest.mark.parametrize("f, radius", [
    (lambda r: -1.0, 0.0), (lambda r: -1.0, -2.0), (lambda r: -1.0, np.nan),
    (lambda r: -1.0, np.inf), (lambda r: np.where(r < 0.5, np.nan, -1.0), 1.0),
    (lambda r: np.inf * r, 1.0),
], ids=["zero-radius", "negative-radius", "nan-radius", "inf-radius",
        "nan-value", "inf-value"])
def test_from_callable_validation(f, radius):
    with pytest.raises(SpecflowError) as exc:
        RadialPotential.from_callable(f, radius)
    assert type(exc.value) is SpecflowError


def test_constant_callable_is_the_square_well():
    # a constant profile is one shell, so every row is the square well's
    flat = RadialPotential.from_callable(lambda r: -12.0, 1.0)
    well = RadialPotential.square_well(12.0)
    assert flat == well
    lams = np.geomspace(1e-4, 1e4, 20)
    assert np.array_equal(phase_shift_rows(flat, lams, 120),
                          phase_shift_rows(well, lams, 120))


def test_zero_energy_across_a_force_free_shell():
    # a well of radius 0.5 padded with a shell of v = 0 out to r = 1: at
    # lambda = 0 the outer shell is the w = 0 pair r^{l+1}, r^-l, and each
    # channel's zeros, inside the support or beyond it, are the bare
    # well's
    padded = RadialPotential(shells=((0.0, 0.5, -20.0), (0.5, 1.0, 0.0)))
    well = RadialPotential.square_well(20.0, radius=0.5)

    def nodes(V):
        u, du, zeros = _zero_energy_radial(V, 20)
        return zeros + _tail_zero_radial(u, du, V.radius)

    assert np.array_equal(nodes(padded), nodes(well))
    assert nodes(well).tolist() == [1] + [0] * 20
    # the s-wave zero lies beyond r = 0.5 and inside r = 1: one support
    # counts it inside, the other in its tail
    assert _zero_energy_radial(padded, 0)[2][0] == 1
    assert _zero_energy_radial(well, 0)[2][0] == 0
    assert np.array_equal(bound_state_channels(padded, 4),
                          bound_state_channels(well, 4))

    def exterior(V):
        # B / A of the exterior solution A r^{l+1} + B r^-l
        u, du, _ = _zero_energy_radial(V, 4)
        aa, bb = radial._exterior_coefficients(u, du, V.radius)
        return bb / aa * V.radius ** (2.0 * np.arange(5) + 1.0)

    np.testing.assert_allclose(exterior(padded), exterior(well), rtol=1e-12)
