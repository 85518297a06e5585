"""Radial Schrödinger scattering in three dimensions.

Partial-wave phase shifts come from Numerov integration of the reduced
radial equation u'' = (l(l+1)/r^2 + V - lam) u.  The recursion is
sequential in r but elementwise over energies and channels, so one sweep,
`_numerov`, advances an energies x channels array node by node: each energy
keeps its own step, grid length, renormalization cut-off and recorded
nodes, and a whole phase-shift table comes out of a single recursion.  A
single energy (`phase_shifts_3d`) and the zero-energy solution are
one-energy calls of the same sweep.  Matching uses the solution at two
radii in the force-free region against Riccati-Bessel functions, which
needs no normalization of u and no derivative estimate.

Each node takes the mean of V at the two half-step points beside it.  For a
step potential this is the node value away from a jump and the two-sided
average at one, which restores the accuracy that a naive node sample loses
at the interface.  V vanishes beyond the support radius, so only half-step
points inside it are evaluated, once per distinct step and in one call of V
per sweep.

Each channel's phase shift is defined modulo pi by the matching; tables
over an energy grid are unwound downward from the highest energy, where
the principal branch is the correct one.
"""

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import spherical_jn, spherical_yn

from ..errors import (
    EnergyNonpositive,
    IntegrationFailure,
    OracleDisagreement,
)
from .onedim import FD_BOX, FD_POINTS

RENORM_EVERY = 100
# a channel whose phase shift stays below this is negligible
CHANNEL_TOL = 1e-8


def _grid(V, lams):
    """Step sizes and node counts per energy: (h, n_in, n_tot).

    Each grid hits the support radius exactly at node n_in and continues
    half a wavelength (capped) into the free region, to node n_tot.
    """
    k = np.sqrt(lams)
    h_target = np.minimum(1e-3, 1.0 / (50.0 * k))
    n_in = np.ceil(V.radius / h_target).astype(int)
    h = V.radius / n_in
    margin = np.maximum(10 * h, np.minimum(1.0, np.pi / (2.0 * k)))
    n_out = np.ceil(margin / h).astype(int)
    return h, n_in, n_in + n_out


def _node_potential(V, steps, n_in):
    """Node samples v[i, g] of V at r = i steps[g], i = 0..max(n_in).

    Node i takes 0.5 (V((i - 1/2) h) + V((i + 1/2) h)).  The half-step
    points (j + 1/2) h with j >= n_in[g] lie beyond the support radius,
    where V is zero, and are not evaluated; rows past a step's own radius
    node hold zeros.  All steps share one call of V.
    """
    v = np.zeros((int(np.max(n_in)) + 1, len(steps)))
    vals = V(np.concatenate([(np.arange(n) + 0.5) * h
                             for h, n in zip(steps, n_in)]))
    start = 0
    for g, n in enumerate(n_in):
        mids = np.append(vals[start:start + n], 0.0)
        v[1:n + 1, g] = 0.5 * (mids[:-1] + mids[1:])
        start += n
    return v


def _numerov(lams, hs, ns, v_nodes, group, lmax, records,
             count_nodes=False):
    """Numerov recursion for an (energies x channels) array of solutions.

    Energy e runs on nodes r_i = i hs[e], i = 0..ns[e], with node
    potential v_nodes[i, group[e]] (zero past the last row of v_nodes), so
    f = u''/u = l(l+1)/r^2 + v - lams[e] is formed one node row at a time
    from per-energy and per-channel vectors.  Node 0 is unused (the
    centrifugal term is singular at the origin).  Starting values implement
    u ~ r^{l+1} (1 + c r^2) with c from the leading Taylor correction.
    Columns are renormalized periodically so steep centrifugal growth
    cannot overflow; renormalization stops before the first recorded node
    of each energy, so ratios of recorded values are exact.  Energies drop
    out of the sweep at their own last node.

    records[e] lists the nodes (>= 3) whose solution rows are returned as
    out[e, j] = u(records[e, j]) over channels 0..lmax.  With count_nodes
    the sign changes of u over nodes 1..ns[e] are counted per channel.
    Returns (out, changes), changes None unless counted.
    """
    E = len(lams)
    ells = np.arange(lmax + 1)
    cent = ells * (ells + 1.0)
    records = np.asarray(records)
    first = records.min(axis=1)
    if np.any(first < 3):
        raise IntegrationFailure("recorded tail longer than the grid")

    # sorted by grid length, the energies still running form a prefix
    order = np.argsort(-np.asarray(ns), kind="stable")
    lam, h, n, grp = lams[order], hs[order], ns[order], group[order]
    records = records[order]
    no_renorm_from = n - np.maximum(n - first[order] + 1, 8) - 2
    hh12 = (h * h / 12.0)[:, None]
    hh56 = (5.0 * h * h / 6.0)[:, None]
    last_v = v_nodes.shape[0] - 1

    def w_row(i, m):
        return (v_nodes[i, grp[:m]] if i <= last_v else 0.0) - lam[:m]

    hc = h[:, None]
    cent_1 = cent / (hc * hc)
    f1 = cent_1 + w_row(1, E)[:, None]
    # Taylor start u ~ r^{l+1}(1 + c r^2): c uses the potential part of f
    # only, not the centrifugal term already accounted for by the power law
    c = (f1 - cent_1) / (4.0 * ells + 6.0)
    u_prev = (1.0 + c * hc * hc) * np.exp(-(ells + 1.0) * np.log(2.0))
    u_cur = 1.0 + 4.0 * c * hc * hc
    f = cent / ((2 * hc) * (2 * hc)) + w_row(2, E)[:, None]
    # rotating (energies x channels) buffers for consecutive nodes; only
    # the leading m rows, the energies still running, are touched
    u_next = np.empty_like(u_cur)
    A_prev, A_cur, A_next = 1.0 - hh12 * f1, 1.0 - hh12 * f, np.empty_like(f)
    B_cur, B_next = 2.0 + hh56 * f, np.empty_like(f)
    tmp = np.empty_like(f)

    changes = None
    if count_nodes:
        changes = (np.sign(u_prev) * np.sign(u_cur) < 0).astype(int)
    # node -> (energies, slots) recorded there
    by_node = {}
    for (e, j), node in np.ndenumerate(records):
        es, js = by_node.setdefault(int(node), ([], []))
        es.append(e)
        js.append(j)
    out = np.empty((E, records.shape[1], lmax + 1))

    def check_finite(rows):
        if not (np.all(np.isfinite(u_prev[rows]))
                and np.all(np.isfinite(u_cur[rows]))):
            raise IntegrationFailure(
                "radial recursion produced non-finite values")

    m = E
    for i in range(2, int(n[0])):
        # energies whose last node is i are complete
        m_run = m
        while n[m_run - 1] <= i:
            m_run -= 1
        if m_run < m:
            check_finite(slice(m_run, m))
            m = m_run
        # f, A and B at node i + 1, then u_{i+1} from nodes i - 1 and i
        r = h[:m] * (i + 1)
        fm, an, bn, un, t = f[:m], A_next[:m], B_next[:m], u_next[:m], tmp[:m]
        np.divide(cent, (r * r)[:, None], out=fm)
        fm += w_row(i + 1, m)[:, None]
        np.multiply(hh12[:m], fm, out=an)
        np.subtract(1.0, an, out=an)
        np.multiply(B_cur[:m], u_cur[:m], out=un)
        np.multiply(A_prev[:m], u_prev[:m], out=t)
        un -= t
        un /= an
        np.multiply(hh56[:m], fm, out=bn)
        bn += 2.0
        if count_nodes:
            changes[:m] += np.sign(un) * np.sign(u_cur[:m]) < 0
        u_prev, u_cur, u_next = u_cur, u_next, u_prev
        A_prev, A_cur, A_next = A_cur, A_next, A_prev
        B_cur, B_next = B_next, B_cur
        hit = by_node.get(i + 1)
        if hit is not None:
            out[hit] = u_cur[hit[0]]
        if i % RENORM_EVERY == 0:
            renorm = i < no_renorm_from[:m]
            if np.any(renorm):
                scale = np.maximum(np.maximum(np.abs(u_prev[:m]),
                                              np.abs(u_cur[:m])), 1e-280)
                scale[~renorm] = 1.0
                u_prev[:m] /= scale
                u_cur[:m] /= scale
    check_finite(slice(0, m))

    back = np.empty_like(order)
    back[order] = np.arange(E)
    return out[back], (None if changes is None else changes[back])


def _riccati(ells, x):
    """Riccati-Bessel pair (S, C) = (x j_l(x), -x y_l(x))."""
    return x * spherical_jn(ells, x), -x * spherical_yn(ells, x)


def phase_shift_rows(V, lams, lmax):
    """Phase shifts delta_l(lam), l = 0..lmax, for every energy in lams
    from one batched sweep: row e is the principal branch at lams[e], each
    shift in (-pi/2, pi/2]."""
    lams = np.asarray(lams, dtype=float)
    bad = lams[~(lams > 0)]
    if bad.size:
        raise EnergyNonpositive(f"scattering energy must be positive, "
                                f"got {bad[0]}")
    ells = np.arange(lmax + 1)
    h, n_in, n_tot = _grid(V, lams)
    steps, first, group = np.unique(h, return_index=True,
                                    return_inverse=True)
    v_nodes = _node_potential(V, steps, n_in[first])

    # the two matching nodes: midway through the free margin, and the end
    idx_a = np.maximum(n_in + (n_tot - n_in) // 2, n_in + 2)
    rows, _ = _numerov(lams, h, n_tot, v_nodes, group, lmax,
                       np.stack([idx_a, n_tot], axis=1))
    u_a, u_b = rows[:, 0], rows[:, 1]

    k = np.sqrt(lams)[:, None]
    sa, ca = _riccati(ells, k * (h * idx_a)[:, None])
    sb, cb = _riccati(ells, k * (h * n_tot)[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        num = u_b * sa - u_a * sb
        den = u_a * cb - u_b * ca
        delta = np.arctan2(num, den)
    delta = np.where(delta > np.pi / 2, delta - np.pi, delta)
    delta = np.where(delta <= -np.pi / 2, delta + np.pi, delta)
    # overflow of the irregular Bessel branch only happens far inside the
    # centrifugally forbidden regime, where the true shift is below any
    # representable size
    delta = np.where(np.isfinite(delta), delta, 0.0)
    return delta


def phase_shifts_3d(V, lam, lmax):
    """Phase shifts delta_l, l = 0..lmax, at energy lam > 0 (principal
    branch, each in (-pi/2, pi/2])."""
    return phase_shift_rows(V, [lam], lmax)[0]


def smatrix_diag_radial(V, lam, lmax):
    """Diagonal of S(lam) on the harmonics of order <= lmax: e^{2 i
    delta_l} repeated with multiplicity 2l + 1."""
    delta = phase_shifts_3d(V, lam, lmax)
    mult = 2 * np.arange(lmax + 1) + 1
    return np.repeat(np.exp(2j * delta), mult)


def smatrix_radial(V, lam, lmax):
    """S(lam) as a diagonal matrix on the truncated harmonics space (of
    dimension (lmax+1)^2); use smatrix_diag_radial for trace sums."""
    return np.diag(smatrix_diag_radial(V, lam, lmax))


# ---------------------------------------------------------------------------
# Zero-energy solutions: bound-state counts and threshold statistics


def _zero_energy_radial(V, lmax):
    """Numerov λ=0 sweep to the support radius for channels 0..lmax.

    Returns (u(R), u'(R), interior sign-change counts).  The derivative is
    a one-sided five-point estimate on the renormalization-free tail.
    """
    h_target = 1e-3
    n_in = int(np.ceil(V.radius / h_target))
    h = V.radius / n_in
    v = _node_potential(V, [h], [n_in])
    # the sweep ends exactly at the support edge, so the final node takes
    # the one-sided interior limit, not the jump average; the averaged
    # value perturbs u(R) by O(h^2 v0) and the one-sided derivative
    # stencil amplifies that by 1/h
    v[-1] = V(V.radius * (1.0 - 1e-12))

    out, changes = _numerov(np.zeros(1), np.array([h]), np.array([n_in]), v,
                            np.zeros(1, dtype=int), lmax,
                            np.arange(n_in - 4, n_in + 1)[None, :],
                            count_nodes=True)
    rows = out[0]
    u_R = rows[-1]
    du_R = (25.0 * rows[-1] - 48.0 * rows[-2] + 36.0 * rows[-3]
            - 16.0 * rows[-4] + 3.0 * rows[-5]) / (12.0 * h)
    return u_R, du_R, changes[0]


def _tail_zero_radial(ells, u, du, R):
    """Whether A r^{l+1} + B r^{-l} has a zero beyond R, channelwise.

    aa and bb below are A R^{l+1} and B R^{-l} up to the common factor
    2l + 1; the zero lies at (-B/A)^{1/(2l+1)}, beyond R iff -bb/aa > 1.
    """
    aa = ells * u + R * du
    bb = (ells + 1.0) * u - R * du
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = -bb / aa > 1.0
    return np.where(aa != 0.0, cond, False)


def threshold_statistics_radial(V, lmax=3):
    """sigma_l = |growing coefficient| / (|growing| + |decaying|) of the
    zero-energy solution at the support radius; zero iff the channel is
    exactly at a threshold (s-resonance for l = 0, eigenvalue for l >= 1)."""
    ells = np.arange(lmax + 1)
    u, du, _ = _zero_energy_radial(V, lmax)
    aa = np.abs(ells * u + V.radius * du)
    bb = np.abs((ells + 1.0) * u - V.radius * du)
    return aa / (aa + bb + 1e-300)


def _bound_states_fd_radial(V, ell):
    L = max(FD_BOX, 3.0 * V.radius)
    h = L / (FD_POINTS + 1)
    r = h * np.arange(1, FD_POINTS + 1)
    diag = 2.0 / h ** 2 + ell * (ell + 1.0) / r ** 2 + V(r)
    off = np.full(FD_POINTS - 1, -1.0 / h ** 2)
    vals = eigvalsh_tridiagonal(diag, off, select="v",
                                select_range=(-1e8, -1e-8))
    return int(len(vals))


def bound_state_channels(V, lmax=8):
    """Per-channel bound-state counts N_l, l = 0..lmax, each obtained from
    zero-energy node counting (including the possible zero beyond the
    support) and cross-checked against a radial finite-difference
    diagonalization.  The scan stops at the first empty channel, since N_l
    is nonincreasing in l; later entries are zero by interlacing.
    """
    u, du, changes = _zero_energy_radial(V, lmax)
    ells = np.arange(lmax + 1)
    node_counts = changes + _tail_zero_radial(ells, u, du, V.radius)

    out = np.zeros(lmax + 1, dtype=int)
    for ell in range(lmax + 1):
        n_nodes = int(node_counts[ell])
        n_fd = _bound_states_fd_radial(V, ell)
        if n_fd != n_nodes:
            raise OracleDisagreement(
                f"channel l={ell}: diagonalization finds {n_fd} bound "
                f"states, node counting finds {n_nodes}")
        if n_nodes == 0:
            break
        out[ell] = n_nodes
    return out


def bound_states_radial(V, lmax=None):
    """N = sum_l (2l+1) N_l for -Delta + V in three dimensions."""
    probe = 8 if lmax is None else lmax
    counts = bound_state_channels(V, probe)
    if lmax is None and counts[-1] != 0:
        raise OracleDisagreement(
            f"bound states persist beyond l = {probe}; pass lmax explicitly")
    mult = 2 * np.arange(probe + 1) + 1
    return int(np.sum(mult * counts))


__all__ = [
    "bound_state_channels",
    "bound_states_radial",
    "choose_lmax",
    "phase_shift_rows",
    "phase_shifts_3d",
    "smatrix_diag_radial",
    "smatrix_radial",
    "threshold_statistics_radial",
]


def choose_lmax(V, lam_max):
    """Smallest l with |delta_l(lam_max)| < CHANNEL_TOL for it and
    everything above, plus a safety margin of 2."""
    guess = int(np.ceil(np.sqrt(lam_max) * V.radius)) + 40
    for trial in (guess, 4 * guess):
        delta = np.abs(phase_shifts_3d(V, lam_max, trial))
        small = delta < CHANNEL_TOL
        # suffix of channels that are all below tolerance
        idx = np.where(~small)[0]
        if small[-1] and (len(idx) == 0 or idx[-1] < trial):
            first = 0 if len(idx) == 0 else int(idx[-1]) + 1
            return first + 2
    raise IntegrationFailure(
        f"no angular cutoff found below l = {4 * guess}")
