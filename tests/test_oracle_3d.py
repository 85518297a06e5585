"""Closed-form oracles for 3D shell potentials, in mpmath.

The well -V0 on r < R holds in channel l the regular solution
u = S(qr), q = sqrt(k^2 + V0), with the Riccati-Bessel pair
(S, C)(x) = (x j_l(x), -x y_l(x)); beyond R, u = S(kr) cos delta +
C(kr) sin delta.  Matching u'/u at R gives the shift modulo pi,

    tan delta = (k S'(kR) - g S(kR)) / (g C(kR) - k C'(kR)),
    g = q S'(qR) / S(qR),    S'(x) = x j_{l-1}(x) - l j_l(x),

and C' likewise from y.  The branch is fixed by counting Bessel zeros.
Beyond R, u = |(S, C)| sin(phi(kr) + delta) with phi the continuous angle
of (S, C), zero at the origin, and on the branch where delta(inf) = 0 the
zeros of u on (0, R] number floor((phi(kR) + delta) / pi).  Those zeros are
the zeros of j_l on (0, qR], and phi(kR) = pi n + (angle of (S, C)(kR)
mod pi) with n the zeros of j_l on (0, kR].

`shell_shift` gives the principal shift of any shell potential by a
30-digit transfer of the regular solution across the shells.  Neither
oracle calls the package's radial code.  Their slopes d delta / dk are
the mpmath derivatives of the same principal shifts, whose branch is
constant near each wavenumber used here.
"""

import functools

import numpy as np
import pytest

from specflow.scatter import (
    ChannelData,
    RadialPotential,
    choose_lmax,
    high_energy_poly,
    levinson_verify,
)
from specflow.scatter.levinson import _table_routes
from specflow.scatter.radial import (
    CHANNEL_TOL,
    _sweep_rows,
    phase_shift_rows,
    threshold_statistics_radial,
)
from test_levinson import WELL3_ROUTES

mp = pytest.importorskip("mpmath")

RADIUS = 1.0
K_MIN, K_MAX = 1e-2, 100.0
# three interior wavenumbers, spread over the grid's decades
K_INTERIOR = [0.5, 3.0, 20.0]
# the package's closed-form rows miss these wells by at most 2e-14 (depth
# 200); a wrong branch misses by pi
TOL = 1e-12
# the exact slopes miss the oracle's by at most 1.4e-13 relative (the
# depth-200 well at K_MIN); below SLOPE_FLOOR in size they are held to an
# absolute SLOPE_ABS instead
SLOPE_REL, SLOPE_FLOOR, SLOPE_ABS = 1e-10, 1e-4, 1e-14
# the shell potentials of the zero-energy and slope tests
SHELLS = {
    "steps": ((0.0, 0.4, -20.0), (0.4, 0.8, 5.0), (0.8, 1.2, -8.0)),
    "padded": ((0.0, 0.5, -20.0), (0.5, 1.0, 0.0)),
    "repulsive": ((0.0, 1.0, 500.0),),
    "well200": ((0.0, 1.0, -200.0),),
}


@functools.lru_cache(maxsize=None)
def _bessel_zero(ell, m):
    """The m-th zero of j_l."""
    return mp.besseljzero(mp.mpf(ell) + 0.5, m)


def _zeros_up_to(ell, x):
    """How many zeros j_l has on (0, x].  None if x^2 <= nu (nu + 2), nu =
    l + 1/2, below the first (Watson, Bessel Functions, 15.3); otherwise
    the search starts at McMahon's estimate, the m-th zero near (m + l / 2)
    pi, and steps to the count."""
    nu = ell + 0.5
    if x * x <= nu * (nu + 2):
        return 0
    m = max(0, int(x / mp.pi - ell / 2.0))
    while m > 0 and _bessel_zero(ell, m) > x:
        m -= 1
    while _bessel_zero(ell, m + 1) <= x:
        m += 1
    return m


def _riccati(x, ell):
    """(S, S', C, C') at x from the half-integer Bessel functions, the
    derivatives in x."""
    f = mp.sqrt(mp.pi * x / 2)
    jl, jm = mp.besselj(ell + 0.5, x), mp.besselj(ell - 0.5, x)
    yl, ym = mp.bessely(ell + 0.5, x), mp.bessely(ell - 0.5, x)
    return (f * jl, f * (jm - ell * jl / x),
            -f * yl, -f * (ym - ell * yl / x))


def _well_principal(depth, k, ell):
    """The well's principal delta_l(k), in mpmath at the working
    precision."""
    q = mp.sqrt(k * k + depth)
    s_q, ds_q, _, _ = _riccati(q * RADIUS, ell)
    g = q * ds_q / s_q
    s, ds, c, dc = _riccati(k * RADIUS, ell)
    return mp.atan((k * ds - g * s) / (g * c - k * dc))


def oracle_shift(depth, k, ell):
    """delta_l(k) of the well on the absolute branch."""
    with mp.workdps(30):
        k = mp.mpf(k)
        principal = _well_principal(depth, k, ell)
        s, _, c, _ = _riccati(k * RADIUS, ell)
        phi = (mp.pi * _zeros_up_to(ell, k * RADIUS)
               + mp.atan2(s, c) % mp.pi)
        inside = _zeros_up_to(ell, mp.sqrt(k * k + depth) * RADIUS)
        branch = inside - mp.floor((phi + principal) / mp.pi)
        return float(principal + branch * mp.pi)


def oracle_slope(depth, k, ell):
    """d delta_l / dk of the well at k."""
    with mp.workdps(30):
        return float(mp.diff(lambda x: _well_principal(depth, x, ell),
                             mp.mpf(k)))


def _shell_pair(w, r, ell):
    """(F, F', G, G') at r of u'' = (l(l+1)/r^2 - w) u in a shell of
    constant w, r-derivatives: the Riccati-Bessel pair sqrt(pi x / 2)
    (J, -Y)_{l+1/2}(x) of x = sqrt(w) r where w > 0, the modified pair
    sqrt(x) (I, K)_{l+1/2}(x) of x = sqrt(-w) r where w < 0, and
    (r^{l+1}, r^-l) where w = 0."""
    if w == 0:
        return (r ** (ell + 1), (ell + 1) * r ** ell, r ** -ell,
                -ell * r ** (-ell - 1))
    q = mp.sqrt(abs(w))
    x = q * r
    if w > 0:
        f = mp.sqrt(mp.pi * x / 2)
        jl, jm = mp.besselj(ell + 0.5, x), mp.besselj(ell - 0.5, x)
        yl, ym = mp.bessely(ell + 0.5, x), mp.bessely(ell - 0.5, x)
        return (f * jl, q * f * (jm - ell * jl / x),
                -f * yl, -q * f * (ym - ell * yl / x))
    f = mp.sqrt(x)
    il, im = mp.besseli(ell + 0.5, x), mp.besseli(ell - 0.5, x)
    kl, km = mp.besselk(ell + 0.5, x), mp.besselk(ell - 0.5, x)
    return (f * il, q * f * (im - ell * il / x),
            f * kl, -q * f * (km + ell * kl / x))


def _carry(shells, k, ell):
    """(u, u') at the support radius of the regular solution at energy
    k^2, up to a constant factor: the first shell's regular function,
    carried across each later boundary by its coordinates in that shell's
    pair."""
    for n, (r0, r1, v) in enumerate(shells):
        w = k * k - mp.mpf(v)
        F, dF, G, dG = _shell_pair(w, mp.mpf(r1), ell)
        if n == 0:
            u, du = F, dF
            continue
        F0, dF0, G0, dG0 = _shell_pair(w, mp.mpf(r0), ell)
        c1, c2 = du * G0 - u * dG0, u * dF0 - du * F0
        u, du = c1 * F + c2 * G, c1 * dF + c2 * dG
    return u, du


def _shell_principal(shells, k, ell):
    """The principal delta_l(k) of a shell potential, in mpmath at the
    working precision."""
    u, du = _carry(shells, k, ell)
    S, dS, C, dC = _shell_pair(k * k, mp.mpf(shells[-1][1]), ell)
    return mp.atan((dS * u - S * du) / (C * du - dC * u))


def shell_shift(shells, k, ell):
    """The principal delta_l(k) in (-pi/2, pi/2] of a shell potential, by
    a 30-digit transfer matched to the free pair (S, C) at the support
    radius R: tan delta = (S' u - S u') / (C u' - C' u) at R.  No code of
    the package enters."""
    with mp.workdps(30):
        return float(_shell_principal(shells, mp.mpf(k), ell))


def shell_slope(shells, k, ell):
    """d delta_l / dk of a shell potential at k."""
    with mp.workdps(30):
        return float(mp.diff(lambda x: _shell_principal(shells, x, ell),
                             mp.mpf(k)))


def shell_threshold_statistic(shells, ell):
    """sigma_l = |a| / (|a| + |b|) of the zero-energy solution of a shell
    potential, a = l u + R u' and b = (l + 1) u - R u' at the support
    radius R, by the same 30-digit transfer at k = 0."""
    with mp.workdps(30):
        u, du = _carry(shells, mp.mpf(0), ell)
        R = mp.mpf(shells[-1][1])
        a, b = abs(ell * u + R * du), abs((ell + 1) * u - R * du)
        return float(a / (a + b))


def test_oracle_reads_levinson_at_threshold():
    # delta_l(0+) = N_l pi: the depth-30 well holds two s-states and one
    # state each in l = 1 and 2
    shifts = [oracle_shift(30.0, 1e-6, ell) for ell in range(4)]
    np.testing.assert_allclose(shifts, [2 * np.pi, np.pi, np.pi, 0.0],
                               atol=1e-5)


@pytest.mark.parametrize("depth", [3.0, 12.0, 30.0, 100.0, 200.0])
def test_counted_rows_match_oracle(depth):
    # every channel that holds a bound state, and one or two beyond: a
    # state in channel l needs a zero of j_{l-1} below sqrt(V0) R, and the
    # first one lies beyond l - 1/2
    top = int(np.sqrt(depth) * RADIUS) + 1
    ks = np.array([K_MIN] + K_INTERIOR + [K_MAX])
    V = RadialPotential.square_well(depth, radius=RADIUS)
    rows = phase_shift_rows(V, ks ** 2, top)
    want = np.array([[oracle_shift(depth, k, ell) for ell in range(top + 1)]
                     for k in ks])
    np.testing.assert_allclose(rows, want, rtol=0.0, atol=TOL)
    # the 3D verify reads the same rows at the grid ends; the k_min row is
    # swept up to choose_lmax's cutoff there and holds 0.0 above it, only
    # where the full sweep is below CHANNEL_TOL
    lo, hi = (levinson_verify(V, 3).data[end] for end in ("lo", "hi"))
    assert np.all((lo[:top + 1] == rows[0])
                  | ((lo[:top + 1] == 0.0) & (np.abs(rows[0]) < CHANNEL_TOL)))
    assert np.array_equal(hi[:top + 1], rows[-1])


def _assert_slopes(got, want):
    # SLOPE_REL relative, or SLOPE_ABS absolute for slopes below SLOPE_FLOOR
    err = np.abs(got - want)
    small = np.abs(want) < SLOPE_FLOOR
    assert np.all(np.where(small, err <= SLOPE_ABS,
                           err <= SLOPE_REL * np.abs(want))), (got, want)


@pytest.mark.parametrize("depth", [3.0, 12.0, 30.0, 200.0])
def test_exact_slopes_match_oracle(depth):
    # d delta_l / dk from the shell carry's integral of u^2, against the
    # mpmath derivative of the closed form, over the channels of
    # test_counted_rows_match_oracle
    top = int(np.sqrt(depth) * RADIUS) + 1
    ks = np.array([K_MIN] + K_INTERIOR)
    V = RadialPotential.square_well(depth, radius=RADIUS)
    got = _sweep_rows(V, ks ** 2, top)[2]
    want = np.array([[oracle_slope(depth, k, ell) for ell in range(top + 1)]
                     for k in ks])
    _assert_slopes(got, want)
    # the phase table's shifts and slopes off its grid are the same sweep's
    # over its channels 0..lmax, held to the same bounds
    table = ChannelData(V, K_MIN, K_MAX, 40)
    off = np.array([0.013, 0.7, 4.1, 41.0])
    assert not np.isin(off, table.ks).any()
    _assert_slopes(table.ddelta_dk(off)[:, :top + 1],
                   np.array([[oracle_slope(depth, k, ell)
                              for ell in range(top + 1)] for k in off]))
    _assert_slopes(table.delta(off)[:, :top + 1],
                   np.array([[oracle_shift(depth, k, ell)
                              for ell in range(top + 1)] for k in off]))


@pytest.mark.parametrize("name", sorted(SHELLS))
def test_exact_slopes_match_shell_oracle(name):
    # across shells of both signs and of v = 0, whose boundaries carry the
    # integral of u^2 in the running scale of the solution; every channel
    # up to choose_lmax's cutoff is finite, those deep inside the barrier
    # at R reading 0
    shells = SHELLS[name]
    V = RadialPotential(shells=shells)
    for k in [K_MIN] + K_INTERIOR:
        lmax = choose_lmax(V, k * k)
        got = _sweep_rows(V, np.array([k * k]), lmax)[2][0]
        assert np.all(np.isfinite(got))
        want = [shell_slope(shells, k, ell) for ell in range(min(lmax, 6) + 1)]
        _assert_slopes(got[:len(want)], np.array(want))


@pytest.mark.parametrize("k", [K_MIN] + K_INTERIOR)
def test_exact_slopes_across_a_shell_at_the_energy(k):
    # an outer shell of value k^2: there w = 0, and the carry takes the
    # integral of u^2 from the r^{l+1}, r^-l pair
    shells = ((0.0, 0.5, -20.0), (0.5, 1.0, float(np.square(k))))
    got = _sweep_rows(RadialPotential(shells=shells), np.square([k]), 4)[2]
    _assert_slopes(got[0], np.array([shell_slope(shells, k, ell)
                                     for ell in range(5)]))


def test_single_well_routes_match_oracle_rows():
    # the depth-3 well's regularized and subtracted routes, rebuilt from
    # the oracle as the 3D verify builds them from its own evidence: the
    # k_min row and slope (channels 0..6; delta_l(k) < k^{2l+1} < 1e-20
    # beyond them at K_MIN) and the k_max row over every channel of
    # choose_lmax.  The zero-energy terms vanish: the well has no threshold
    # resonance and P_3(0) = 0
    V = RadialPotential.square_well(3.0, radius=RADIUS)
    lmax = choose_lmax(V, K_MAX ** 2)
    lo, slope = np.zeros((2, lmax + 1))
    lo[:7] = [oracle_shift(3.0, K_MIN, ell) for ell in range(7)]
    slope[:7] = [oracle_slope(3.0, K_MIN, ell) for ell in range(7)]
    hi = np.array([oracle_shift(3.0, K_MAX, ell) for ell in range(lmax + 1)])
    sub, reg = _table_routes(lo, hi, slope, 2.0 * np.arange(lmax + 1) + 1.0,
                             K_MIN, K_MAX, V.integral() / (4.0 * np.pi ** 2),
                             high_energy_poly(3, V).tail(K_MAX))
    assert abs(sub - WELL3_ROUTES["subtracted"]) <= 1e-10
    assert abs(reg - WELL3_ROUTES["regularized"]) <= 1e-10


@pytest.mark.parametrize("name", sorted(SHELLS))
def test_threshold_statistics_match_oracle(name):
    # the zero-energy carry across shells of both signs and of v = 0,
    # exact across the jumps between shells
    shells = SHELLS[name]
    got = threshold_statistics_radial(RadialPotential(shells=shells))
    want = [shell_threshold_statistic(shells, ell) for ell in range(len(got))]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
