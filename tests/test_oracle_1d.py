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
"""

import numpy as np
import pytest

from specflow.scatter import Potential1D, high_energy_poly, smatrix_1d
from specflow.scatter.levinson import K_QUAD_TOL, _winding_1d
from specflow.sflow import _adaptive_gk21

mp = pytest.importorskip("mpmath")

DEPTHS = [2.0, 5.0, 20.0]
HALFWIDTH = 1.0


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


@pytest.mark.parametrize("depth", DEPTHS)
def test_winding_body_matches_oracle(depth):
    V = Potential1D.square_well(depth, HALFWIDTH)
    body, err = _adaptive_gk21(_winding_1d(V), (1e-2, 100.0), K_QUAD_TOL, 0.0)
    assert err <= 1e-9
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
