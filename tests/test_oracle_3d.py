"""Closed-form oracle for 3D square wells, in mpmath.

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
mod pi) with n the zeros of j_l on (0, kR].  No Numerov step enters.
"""

import functools

import numpy as np
import pytest

from scipy.interpolate import CubicSpline

from specflow.scatter import RadialPotential, choose_lmax, high_energy_poly
from specflow.scatter.levinson import SLOPE_ROWS, _end_rows, _table_routes
from specflow.scatter.radial import CHANNEL_TOL, phase_shift_rows
from test_levinson import WELL3_ROUTES

mp = pytest.importorskip("mpmath")

RADIUS = 1.0
K_MIN, K_MAX = 1e-2, 100.0
# three interior wavenumbers, spread over the grid's decades
K_INTERIOR = [0.5, 3.0, 20.0]
# a square well is one shell, whose rows are closed-form: their largest
# miss on these wells is 2e-14 (depth 200).  Numerov rows, which the wells'
# callable twins take, miss by up to 8.1e-5 (depth 100, k = 3); a wrong
# branch misses by pi
TOL = 1e-12


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


def oracle_shift(depth, k, ell):
    """delta_l(k) of the well on the absolute branch."""
    with mp.workdps(30):
        k = mp.mpf(k)
        q = mp.sqrt(k * k + depth)

        def riccati(x):
            # S, S', C, C' at x from the half-integer Bessel functions
            f = mp.sqrt(mp.pi * x / 2)
            jl, jm = mp.besselj(ell + 0.5, x), mp.besselj(ell - 0.5, x)
            yl, ym = mp.bessely(ell + 0.5, x), mp.bessely(ell - 0.5, x)
            return (f * jl, f * (jm - ell * jl / x),
                    -f * yl, -f * (ym - ell * yl / x))

        s_q, ds_q, _, _ = riccati(q * RADIUS)
        g = q * ds_q / s_q
        s, ds, c, dc = riccati(k * RADIUS)
        principal = mp.atan((k * ds - g * s) / (g * c - k * dc))
        phi = (mp.pi * _zeros_up_to(ell, k * RADIUS)
               + mp.atan2(s, c) % mp.pi)
        inside = _zeros_up_to(ell, q * RADIUS)
        branch = inside - mp.floor((phi + principal) / mp.pi)
        return float(principal + branch * mp.pi)


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
    # the 3D verify reads the same rows at the grid ends; the low rows are
    # swept up to choose_lmax's cutoff there and hold 0.0 above it, only
    # where the full sweep is below CHANNEL_TOL
    lo, hi, _ = _end_rows(V, K_MIN, K_MAX, 400)
    assert np.all((lo[:top + 1] == rows[0])
                  | ((lo[:top + 1] == 0.0) & (np.abs(rows[0]) < CHANNEL_TOL)))
    assert np.array_equal(hi[:top + 1], rows[-1])


def test_single_well_routes_match_oracle_rows():
    # the depth-3 well's regularized and subtracted routes, rebuilt from
    # oracle rows as the 3D verify builds them from its own: the 16 low
    # rows (channels 0..6; delta_l(k) < k^{2l+1} < 1e-20 beyond them at
    # these k), the k_max row over every channel of choose_lmax, and the
    # slope of their spline at k_min.  The zero-energy terms vanish: the
    # well has no threshold resonance and P_3(0) = 0
    V = RadialPotential.square_well(3.0, radius=RADIUS)
    lmax = choose_lmax(V, K_MAX ** 2)
    ks = np.geomspace(K_MIN, K_MAX, 400)[:SLOPE_ROWS]
    low = np.zeros((SLOPE_ROWS, lmax + 1))
    low[:, :7] = [[oracle_shift(3.0, k, ell) for ell in range(7)]
                  for k in ks]
    hi = np.array([oracle_shift(3.0, K_MAX, ell) for ell in range(lmax + 1)])
    slope = CubicSpline(np.log(ks), low)(np.log(K_MIN), 1) / K_MIN
    sub, reg = _table_routes(low[0], hi, slope, 2.0 * np.arange(lmax + 1)
                             + 1.0, K_MIN, K_MAX,
                             V.integral() / (4.0 * np.pi ** 2),
                             high_energy_poly(3, V).tail(K_MAX))
    assert abs(sub - WELL3_ROUTES["subtracted"]) <= 1e-9
    assert abs(reg - WELL3_ROUTES["regularized"]) <= 1e-9
