"""Closed-form oracle for 1D square wells, in mpmath.

The well -V0 on [-a, a] is symmetric, so its S-matrix is [[t, r], [r, t]]
with eigenvalues t + r = eta_e and t - r = -eta_o, the even and odd
channel amplitudes.  Outside the well the channel solutions are
e^{-ikx} + eta e^{ikx}; matching the log-derivative of cos(qx) or sin(qx),
q = sqrt(k^2 + V0), at x = a gives

    eta = -e^{-2ika} N / conj(N),
    N_e = -q sin(qa) + ik cos(qa),    N_o = q cos(qa) + ik sin(qa).

Neither N vanishes for k > 0, so arg N_e and arg N_o are continuous in k,
and det S = -eta_e eta_o = -e^{-4ika + 2i(arg N_e + arg N_o)} has an
unwound phase in closed form.  Since Tr(S* S') = (log det S)', the winding
body (1/2 pi i) int Tr(S* S') dk is that phase's change over 2 pi.  No
transfer matrix and no quadrature enters.

For potentials of many segments the oracle is the transfer matrix itself:
M(lam) multiplied segment by segment in mpmath at 40 digits, and dM/dlam
as its central difference there.
"""

import numpy as np
import pytest

from specflow.scatter import (
    Potential1D,
    high_energy_poly,
    smatrix_1d,
    transfer_matrix,
)
from specflow.scatter.levinson import _evidence_1d
from specflow.scatter.onedim import _carry_1d, _transfer_dlam
from test_levinson import _generated_1d

mp = pytest.importorskip("mpmath")

DEPTHS = [2.0, 5.0, 20.0]
HALFWIDTH = 1.0
DOUBLE_WELL = Potential1D(segments=((-3.0, -1.0, -6.0), (-1.0, 1.0, 2.0),
                                    (1.0, 3.0, -6.0)))
# the 200-segment Gaussian of the levinson-1d benchmark
GAUSSIAN_WELL = Potential1D.from_callable(lambda x: -8.0 * np.exp(-x * x),
                                          (-4.0, 4.0), n_segments=200)


def _channel_args(depth, k):
    """arg N_e and arg N_o on their continuous branches: with qa = m pi + u,
    |u| <= pi/2, N_e = (-1)^m i (k cos u + i q sin u) and
    N_o = (-1)^m (q cos u + i k sin u)."""
    with mp.workdps(40):
        k = mp.mpf(k)
        q = mp.sqrt(k * k + depth)
        theta = q * HALFWIDTH
        m = mp.nint(theta / mp.pi)
        u = theta - m * mp.pi
        arg_e = mp.pi / 2 + m * mp.pi + mp.atan(q / k * mp.tan(u))
        arg_o = m * mp.pi + mp.atan(k / q * mp.tan(u))
        return arg_e, arg_o


def oracle_smatrix(depth, k):
    with mp.workdps(40):
        arg_e, arg_o = _channel_args(depth, k)
        lead = -mp.exp(-2j * mp.mpf(k) * HALFWIDTH)
        eta_e = lead * mp.exp(2j * arg_e)
        eta_o = lead * mp.exp(2j * arg_o)
        t = complex((eta_e - eta_o) / 2)
        r = complex((eta_e + eta_o) / 2)
    return np.array([[t, r], [r, t]])


def oracle_body(depth, k_min, k_max):
    """(1/2 pi i) int_{k_min}^{k_max} Tr(S* S') dk from the unwound phase
    of det S."""
    with mp.workdps(40):
        def phase(k):
            arg_e, arg_o = _channel_args(depth, k)
            return -4 * mp.mpf(k) * HALFWIDTH + 2 * (arg_e + arg_o)
        return float((phase(k_max) - phase(k_min)) / (2 * mp.pi))


@pytest.mark.parametrize("depth", DEPTHS)
def test_smatrix_matches_oracle(depth):
    V = Potential1D.square_well(depth, HALFWIDTH)
    for k in [0.01, 0.3, 1.0, np.sqrt(2.0), 2.7, 10.0, 100.0]:
        assert np.max(np.abs(smatrix_1d(V, k * k)
                             - oracle_smatrix(depth, k))) < 1e-12


# the carry's oracle inputs and the bound on arg T: the square wells, and
# within 2e-12 the multi-segment wells and generated draws, draw 25 being
# where the carry's arg T moves most when its segment product associates
# another way
CARRY_INPUTS = (
    [pytest.param(Potential1D.square_well(depth, HALFWIDTH), 1e-12,
                  id=str(depth)) for depth in DEPTHS]
    + [pytest.param(DOUBLE_WELL, 2e-12, id="double_well"),
       pytest.param(GAUSSIAN_WELL, 2e-12, id="gaussian_200_segments")]
    + [pytest.param(V, 2e-12, id=f"draw_{i}") for i, V in
       _generated_1d({0, 25, 36, 76, 199}).items()])


def oracle_arg_t(V, k):
    """arg T at k > 0, mod 2 pi, from the oracle's M(k^2): the solution
    that is e^{-ikx} left of the support is e^{-ikx} / T + B e^{ikx} right
    of it, so 1/T = e^{ik x_R} (ik f - f') / 2ik at x_R."""
    with mp.workdps(40):
        k = mp.mpf(k)
        x_left, x_right = (mp.mpf(x) for x in V.support)
        M = oracle_transfer(V, k * k)
        e = mp.exp(-1j * k * x_left)
        f, df = (row[0] * e - 1j * k * row[1] * e for row in M)
        return float(-mp.arg(mp.exp(1j * k * x_right) * (1j * k * f - df)
                             / (2j * k)))


@pytest.mark.parametrize("V, tol", CARRY_INPUTS)
def test_carry_arg_t_matches_oracle(V, tol):
    # the carry's arg T on its absolute branch agrees mod 2 pi with the
    # phase of the oracle's transmission amplitude
    ks = np.array([0.01, 0.0215, 0.1, 1.0, 30.0])
    arg_t = _carry_1d(V, ks)[3]
    for k, got in zip(ks, arg_t):
        want = oracle_arg_t(V, k)
        assert abs(np.angle(np.exp(1j * (got - want)))) < tol, k


@pytest.mark.parametrize("depth", DEPTHS)
def test_winding_body_matches_oracle(depth):
    # the verify's body, (arg T(k_max) - arg T(k_min)) / pi off the carry's
    # rows once the sampled check has accepted every step between them
    V = Potential1D.square_well(depth, HALFWIDTH)
    ev = _evidence_1d(V, 1e-2, 100.0)
    body = float(ev.hi[0] - ev.lo[0]) / np.pi
    assert abs(body - oracle_body(depth, 1e-2, 100.0)) < 1e-11


def test_oracle_body_value():
    # the depth-2 body, as the oracle gives it
    assert abs(oracle_body(2.0, 1e-2, 100.0) + 0.5011628361174) < 1e-12


@pytest.mark.parametrize("depth", DEPTHS)
def test_winding_tail_matches_oracle(depth):
    # the winding route's tail beyond k_max is c_1 / k_max, c_1 = integral
    # V / 2 pi; the exact tail is the oracle body out to K = 1e7 plus c_1 / K
    # (what is left beyond K is below 1e-21).  They differ by the next
    # term, integral V^2 / (8 pi k_max^3) from the second-order phase
    # -integral V^2 / 4k^3 of det S: 3.2e-7, 2.0e-6 and 3.2e-5 here
    V = Potential1D.square_well(depth, HALFWIDTH)
    poly = high_energy_poly(1, V)
    k_max, K = 100.0, 1e7
    exact = oracle_body(depth, k_max, K) + poly.tail(K)
    nxt = 2.0 * HALFWIDTH * depth ** 2 / (8.0 * np.pi * k_max ** 3)
    assert abs(exact - poly.tail(k_max) - nxt) < 1e-2 * nxt


def oracle_transfer(V, lam):
    """M(lam) of V multiplied left to right in mpmath, each segment's
    matrix [[cos(qd), sin(qd)/q], [-q sin(qd), cos(qd)]] with q^2 = lam - v
    and d the segment length the kernel takes; sin(qd)/q is its limit d
    where q = 0."""
    M = [[mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)]]
    for x0, x1, v in V.segments:
        d = mp.mpf(x1 - x0)
        q = mp.sqrt(mp.mpc(lam - mp.mpf(v)))
        c, s = mp.cos(q * d), mp.sin(q * d) / q if q else d
        T = [[c, s], [-q * q * s, c]]
        M = [[T[i][0] * M[0][j] + T[i][1] * M[1][j] for j in range(2)]
             for i in range(2)]
    return [[mp.re(x) for x in row] for row in M]


def oracle_transfer_dlam(V, lam):
    """(M, dM/dlam) at lam in mpmath, dM/dlam by a central difference of
    step 1e-12 (1 + lam): at 40 digits its truncation, O(step^2), and its
    rounding, O(1e-40 / step), lie far below 1e-13."""
    with mp.workdps(40):
        lam = mp.mpf(lam)
        h = mp.mpf("1e-12") * (1 + lam)
        up, down = oracle_transfer(V, lam + h), oracle_transfer(V, lam - h)
        M = np.array(oracle_transfer(V, lam), dtype=float)
        dM = np.array([[(up[i][j] - down[i][j]) / (2 * h) for j in range(2)]
                       for i in range(2)], dtype=float)
    return M, dM


@pytest.mark.parametrize("V", [DOUBLE_WELL, GAUSSIAN_WELL],
                         ids=["double_well", "gaussian_200_segments"])
def test_multi_segment_transfer_matches_oracle(V):
    # the kernel's product of segment matrices and of their exact
    # lam-derivatives, each to 1e-13 of its largest entry in the units
    # (psi, psi'/k) of the plane waves S is matched in.  In plain units the
    # entries differ in size by q/k, and at lam = 1e4 the double well's
    # cos(qd), qd = 200, carries a rounding of about 200 eps that M[1, 0]
    # ~ q^2 sin(qd)/q magnifies to 5e-13 of the largest entry
    lams = np.array([1e-4, 0.3, 17.0, 1e4])
    P = _transfer_dlam(V, lams, derivative=True)
    for i, lam in enumerate(lams):
        # K^{-1} M K with K = diag(1, k), entrywise
        units = np.array([[1.0, np.sqrt(lam)], [1.0 / np.sqrt(lam), 1.0]])
        want = oracle_transfer_dlam(V, lam)
        for got, exact in ((transfer_matrix(V, lam), want[0]),
                           (P[0, ..., i], want[0]), (P[1, ..., i], want[1])):
            assert np.max(np.abs((got - exact) * units)) \
                <= 1e-13 * np.max(np.abs(exact * units))
