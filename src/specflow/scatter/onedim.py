"""1D Schrödinger scattering for piecewise-constant potentials.

Transfer matrices propagate (psi, psi') exactly across constant segments
using branch-free even functions of the local momentum, so tunneling and
oscillatory regimes need no case split.  `transfer_matrix` and `smatrix_1d`
take one energy or a 1-D array of energies: every segment's matrix at every
energy comes from one array pass, and the segments are folded left to right
with one stacked product over the energies per segment.  The S-matrix
convention is

    S(lambda) = [[t, r_plus], [r_minus, t]]

in the (right-incoming, left-incoming) basis: with this ordering the
zero-energy limit in the generic (non-resonant) case is [[0, -1], [-1, 0]].
Also here: the dual bound-state counters, the zero-energy resonance
statistic, and the Nyström discretization of the free-resolvent
Birman-Schwinger determinant.
"""

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from ..errors import (
    EnergyNonpositive,
    OracleDisagreement,
    QuadratureNotConverged,
)
from ..matcore import check_order
from ..rdet import DetValue, _det_p_lu

# finite-difference bound-state counts (1D and radial): box half-width or
# radius, widened to three support widths when needed, and grid points;
# zero-energy substep
FD_BOX = 40.0
FD_POINTS = 4096
SUBSTEP = 0.005
NYSTROM_TOL = 1e-6


def _seg_transfer(lengths, values, lams):
    """Exact transfer matrices for (psi, psi') across constant segments.

    lengths and values hold one entry per segment and lams one per energy;
    the result has shape (energies, segments, 2, 2).  Entries are even
    functions of q = sqrt(lam - v), so the branch of the square root never
    matters; cos(q d) and sin(q d)/q are evaluated through complex
    exponentials, with a Taylor fallback where |q d| < 1e-6.
    """
    lengths = np.asarray(lengths, dtype=float)
    q2 = (np.asarray(lams, dtype=float)[:, None]
          - np.asarray(values, dtype=float)).astype(complex)
    q = np.sqrt(q2)
    z = q * lengths
    small = np.abs(z) < 1e-6
    c = np.cos(z)
    s_over_q = np.divide(np.sin(z), q, out=np.empty_like(z), where=~small)
    if small.any():
        zs = z[small]
        c[small] = 1.0 - zs * zs / 2.0 + zs ** 4 / 24.0
        s_over_q[small] = np.broadcast_to(lengths, z.shape)[small] * (
            1.0 - zs * zs / 6.0 + zs ** 4 / 120.0)
    T = np.empty(z.shape + (2, 2), dtype=complex)
    T[..., 0, 0] = c
    T[..., 0, 1] = s_over_q
    T[..., 1, 0] = -q2 * s_over_q
    T[..., 1, 1] = c
    return T


def transfer_matrix(V, lam):
    """Product of segment transfer matrices across the support of V: a 2x2
    matrix for a scalar energy lam, one per energy for a 1-D array.

    The segments are folded left to right, one stacked product over the
    energies per segment."""
    lams = np.asarray(lam, dtype=float)
    M = np.eye(2, dtype=complex)
    for T in _seg_transfer(*V.segment_arrays, lams.reshape(-1)).swapaxes(0, 1):
        M = T @ M
    return M.reshape(lams.shape + (2, 2))


def smatrix_1d(V, lam):
    """The 2x2 scattering matrix [[t, r+], [r-, t]] at energy lam > 0, or
    one per energy for a 1-D array of energies.

    Computed by matching plane waves across the support with the exact
    transfer matrix; unitarity is inherited from the real potential and is
    checked by the caller's tolerance when the matrix enters a path.
    """
    lams = np.asarray(lam, dtype=float)
    if np.any(lams <= 0):
        raise EnergyNonpositive(
            f"scattering energies must be positive, got {lam}")
    flat = lams.reshape(-1)
    M = transfer_matrix(V, flat)
    ik = np.array([-1j, 1j]) * np.sqrt(flat)[:, None]

    def waves(x):
        # columns (psi, psi') of e^{-ikx} and e^{ikx} at x, per energy
        e = np.exp(ik * x)
        return np.stack([e, ik * e], axis=-2)

    # One matching matrix A serves both incoming directions.  Left-incoming:
    # e^{ikx} + r- e^{-ikx} on the left, t e^{ikx} on the right, unknowns
    # (r-, t).  Right-incoming: t e^{-ikx} on the left, e^{-ikx} + r+ e^{ikx}
    # on the right, unknowns (t, r+).  M takes one left wave per product:
    # BLAS rounds a two-column product differently, and the caller's 1e-6
    # central difference amplifies the last bit a million-fold.
    xL, xR = V.support
    left, right = waves(xL), waves(xR)
    A = np.concatenate([M @ left[..., :1], -right[..., 1:]], axis=-1)
    rhs = np.concatenate([-(M @ left[..., 1:]), right[..., :1]], axis=-1)
    X = np.linalg.solve(A, rhs)
    S = np.empty_like(X)
    S[:, 0] = X[..., 1]
    S[:, 1] = X[..., 0]
    return S.reshape(lams.shape + (2, 2))


def bound_states_1d(V):
    """Number of negative eigenvalues of -d^2/dx^2 + V, by two methods.

    (i) dense finite-difference diagonalization in a large box, and
    (ii) node counting of the zero-energy solution (Sturm oscillation).
    The two counts must agree, else OracleDisagreement.
    """
    count_fd = _bound_states_fd(V)
    count_nodes = _bound_states_nodes(V)
    if count_fd != count_nodes:
        raise OracleDisagreement(
            f"finite differences count {count_fd} bound states but the "
            f"zero-energy solution has {count_nodes} nodes")
    return count_fd


def _bound_states_fd(V):
    L = max(FD_BOX, 3.0 * V.halfwidth)
    x = np.linspace(-L, L, FD_POINTS)
    h = x[1] - x[0]
    diag = 2.0 / h ** 2 + V(x)
    off = np.full(FD_POINTS - 1, -1.0 / h ** 2)
    vals = eigvalsh_tridiagonal(diag, off, select="v",
                                select_range=(-1e8, -1e-8))
    return int(len(vals))


def _zero_energy_left_solution(V):
    """Propagate u'' = V u from u = 1, u' = 0 left of the support.

    Returns u sampled every SUBSTEP (at most) plus the final (u, u') at the
    right edge.  The per-substep propagation uses the exact
    constant-coefficient solution, so the only approximation is the
    sampling density of the returned trace.
    """
    lengths, values = V.segment_arrays
    nsubs = np.maximum(1, np.ceil(lengths / SUBSTEP).astype(int))
    steps = _seg_transfer(lengths / nsubs, values, [0.0])[0]
    state = np.array([1.0, 0.0], dtype=complex)
    us = [1.0]
    for step, nsub in zip(steps, nsubs):
        for _ in range(nsub):
            state = step @ state
            us.append(np.real(state[0]))
    return np.array(us), np.real(state)


def _bound_states_nodes(V):
    us, (u_end, du_end) = _zero_energy_left_solution(V)
    signs = np.sign(us[np.abs(us) > 1e-13])
    interior = int(np.sum(signs[:-1] != signs[1:]))
    # one more zero in the free region x > x_right iff u and u' oppose there
    tail = 1 if u_end * du_end < 0 else 0
    return interior + tail


def resonance_statistic_1d(V):
    """Scale-free size of the derivative of the zero-energy solution at the
    right edge; zero iff the solution stays bounded (a resonance)."""
    _, (u_end, du_end) = _zero_energy_left_solution(V)
    span = (V.support[1] - V.support[0]) + 1.0
    return abs(du_end) * span / (abs(u_end) + span * abs(du_end) + 1e-300)


# ---------------------------------------------------------------------------
# Birman-Schwinger determinant via Nystrom discretization


def _nystrom_nodes(V, n):
    """Gauss-Legendre nodes and weights distributed over the segments."""
    xs, ws = [], []
    total = V.support[1] - V.support[0]
    for x0, x1, v in V.segments:
        share = n * (x1 - x0) / total
        m = max(4, int(np.round(share)))
        t, w = np.polynomial.legendre.leggauss(m)
        xs.append(0.5 * (x1 - x0) * t + 0.5 * (x0 + x1))
        ws.append(0.5 * (x1 - x0) * w)
    return np.concatenate(xs), np.concatenate(ws)


def _bs_matrix(V, lam, branch, n):
    """Symmetrized kernel sqrt(w) q1 G q2 sqrt(w) of the free resolvent.

    G(x, y) = (i / 2k) e^{i k |x - y|} is the outgoing (lam + i0) kernel;
    the incoming branch (lam - i0) flips k -> -k.
    """
    k = np.sqrt(lam)
    if branch < 0:
        k = -k
    x, w = _nystrom_nodes(V, n)
    v = V(x)
    q1 = np.sign(v) * np.sqrt(np.abs(v))
    q2 = np.sqrt(np.abs(v))
    G = (1j / (2.0 * k)) * np.exp(1j * k * np.abs(x[:, None] - x[None, :]))
    sw = np.sqrt(w)
    return (sw * q1)[:, None] * G * (q2 * sw)[None, :]


def birman_schwinger_det_1d(V, lam, branch=+1, p=1, n=150, n_max=4800):
    """Det_p(Id + q1 R0(lam +/- i0) q2) by Nystrom discretization.

    The quadrature error is O(n^-2) because of the |x - y| kink on the
    kernel diagonal; node doubling plus Richardson extrapolation removes
    the leading term, and convergence is judged on successive extrapolants
    (the raw h^2 differences overestimate the extrapolated error by orders
    of magnitude).  Raises QuadratureNotConverged when doubling does not
    stabilize to NYSTROM_TOL; the order p and the starting node count n
    must be integers >= 1.
    """
    p = check_order("p", p, 1, integer=True)
    n = check_order("n", n, 1, integer=True)
    if lam <= 0:
        raise EnergyNonpositive(f"need lam > 0, got {lam}")

    def det_at(m):
        K = _bs_matrix(V, lam, branch, m)
        return _det_p_lu(K, p)

    prev = det_at(n)
    prev_rich = None
    m = 2 * n
    while m <= n_max:
        cur = det_at(m)
        rich = cur.value + (cur.value - prev.value) / 3.0
        if prev_rich is not None and \
                abs(rich - prev_rich) < NYSTROM_TOL * (1.0 + abs(rich)):
            return DetValue(value=rich,
                            log_value=complex(np.log(abs(rich)),
                                              np.angle(rich)))
        prev, prev_rich = cur, rich
        m *= 2
    raise QuadratureNotConverged(
        f"Nystrom determinant did not stabilize to {NYSTROM_TOL:.1e} by "
        f"n = {n_max}")
