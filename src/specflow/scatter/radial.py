"""Radial Schrödinger scattering in three dimensions.

Partial-wave phase shifts solve the reduced radial equation u'' =
(l(l+1)/r^2 + V - lam) u in one of two ways, chosen by the potential:

* A potential of constant shells (`RadialPotential(shells=...)`, and every
  `RadialPotential.square_well`) has them in closed form, `_shell_rows`.
  Inside a shell the solution is a pair of Riccati-Bessel functions of q r,
  q = sqrt(|lam - v|), or of the modified functions where v > lam.  The
  signed pair (u, u') is carried across each boundary, its zeros counted
  from the monotone Riccati-Bessel phase (Calogero's variable phase), and
  its coordinates in the free pair at the support radius give the shift
  on the absolute branch.  A whole (energies x channels) array takes a
  few vectorized Bessel evaluations per shell and no step size.  Where
  the irregular function overflows, deep inside the centrifugal barrier,
  only its log-derivative -l/r enters (the ratio form of Johnson's
  log-derivative method), so every channel stays finite.
* A bare callable (a smooth or sampled profile) has no closed form yet
  (linear or sampled pieces would need Airy functions or a
  constant-perturbation method), and its shifts come from Numerov
  integration.  The recursion is sequential in r but elementwise over
  energies and channels, so one sweep, `_numerov`, advances an energies x
  channels array node by node: each energy keeps its own step, grid length,
  renormalization cut-off and recorded nodes.  The sweep takes its nodes in
  blocks: the Numerov coefficients of a whole block come from one array
  pass, capped at BLOCK_ELEMENTS entries per array, and only the three-term
  update of u, the one step that depends on the previous node, runs once
  per node.  Matching uses the solution at two radii in the force-free
  region against Riccati-Bessel functions, which needs no normalization of
  u and no derivative estimate.  Each node takes the mean of V at the two
  half-step points beside it, which restores at a jump the accuracy that a
  naive node sample loses; only half-step points inside the support are
  evaluated, once per distinct step and in one call of V per sweep.

The zero-energy solution behind the bound-state counts and the threshold
statistics is a Numerov sweep for every potential (`_zero_energy_radial`):
the classification of wells at exactly critical depths rests on this
sweep's statistics, which the tests pin.

Both ways give every row of `phase_shift_rows` on the absolute branch,
where delta_l(inf) = 0, from the zeros of u (Pruefer's oscillation count;
`_sweep_rows`), with no unwinding over an energy grid.  `phase_shifts_3d`
reports the principal branch.
"""

import numpy as np
from scipy.special import ive, kve, spherical_jn, spherical_yn

from ..errors import (
    EnergyNonpositive,
    IntegrationFailure,
    OracleDisagreement,
)
from .onedim import FD_BOX, FD_POINTS, _fd_count

RENORM_EVERY = 100
# entries per array of f, A and B formed for one block of nodes
BLOCK_ELEMENTS = 65536
# a channel whose phase shift stays below this is negligible
CHANNEL_TOL = 1e-8
# the top channel of the threshold statistics
THRESHOLD_LMAX = 3


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


def _numerov(lams, hs, ns, v_nodes, group, lmax, records):
    """Numerov recursion for an (energies x channels) array of solutions.

    Energy e runs on nodes r_i = i hs[e], i = 0..ns[e], with node
    potential v_nodes[i, group[e]] (zero past the last row of v_nodes), so
    f = u''/u = l(l+1)/r^2 + v - lams[e].  Node 0 is unused (the
    centrifugal term is singular at the origin).  Starting values implement
    u ~ r^{l+1} (1 + c r^2) with c from the leading Taylor correction.
    Columns are renormalized periodically so steep centrifugal growth
    cannot overflow; renormalization stops before the first recorded node
    of each energy, so ratios of recorded values are exact.  Energies drop
    out of the sweep at their own last node.

    The nodes are taken in blocks.  For each block, f and the Numerov
    coefficients A = 1 - h^2 f / 12 and B = 2 + 5 h^2 f / 6 of every node
    are formed in one pass over a (nodes, energies, channels) array; only
    the three-term update u_{i+1} = (B_i u_i - A_{i-1} u_{i-1}) / A_{i+1}
    then runs node by node, into the block's own array of u rows.  A block
    holds at most BLOCK_ELEMENTS entries per array, so memory stays flat in
    the batch size, and ends after a renormalization node or at the last
    node of the next energy to finish, so the set of running energies is
    fixed inside it.  Every entry is the same floating-point operation on
    the same operands as in a node-by-node sweep, so the blocking does not
    change any result.

    records[e] lists the nodes (>= 3) whose solution rows are returned as
    out[e, j] = u(records[e, j]) over channels 0..lmax.  The sign changes
    of u over nodes 1..ns[e] (changes of u < 0, so a node where u is
    exactly zero is not counted twice) are counted per channel, once per
    block over its stored rows, except those into a node where A <= 0:
    there the recursion, not the solution, flips the sign (at node 3 for
    l >= 10).  Returns (out, changes).
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

    def w_rows(nodes, m):
        # v - lam at the given nodes, for the first m energies
        v = np.zeros((len(nodes), m))
        inside = nodes <= last_v
        v[inside] = v_nodes[nodes[inside][:, None], grp[:m]]
        return v - lam[:m]

    hc = h[:, None]
    cent_1 = cent / (hc * hc)
    f1 = cent_1 + w_rows(np.array([1]), E)[0][:, None]
    # Taylor start u ~ r^{l+1}(1 + c r^2): c uses the potential part of f
    # only, not the centrifugal term already accounted for by the power law
    c = (f1 - cent_1) / (4.0 * ells + 6.0)
    u_prev = (1.0 + c * hc * hc) * np.exp(-(ells + 1.0) * np.log(2.0))
    u_cur = 1.0 + 4.0 * c * hc * hc
    f2 = cent / ((2 * hc) * (2 * hc)) + w_rows(np.array([2]), E)[0][:, None]
    # (energies x channels) rows: scratch, and the A and B rows a block
    # carries over from the one before it
    tmp = np.empty_like(u_cur)
    A_prev, A_cur, B_cur = 1.0 - hh12 * f1, 1.0 - hh12 * f2, 2.0 + hh56 * f2
    # block arrays: at least one node row; the u rows of a block follow the
    # two rows before it
    buf_a = np.empty(max(BLOCK_ELEMENTS, u_cur.size))
    buf_b = np.empty_like(buf_a)
    buf_u = np.empty(buf_a.size + 2 * u_cur.size)

    changes = (((u_prev < 0) != (u_cur < 0)) & (A_cur > 0)).astype(int)
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
    i = 2
    while i < n[0]:
        # energies whose last node is i are complete
        m_run = m
        while n[m_run - 1] <= i:
            m_run -= 1
        if m_run < m:
            check_finite(slice(m_run, m))
            m = m_run
        # the block: iterations i..end - 1, which advance u to nodes
        # i + 1..end; it stops after a renormalization iteration and at
        # the last node of the shortest running grid
        renorm_at = -(-i // RENORM_EVERY) * RENORM_EVERY
        end = min(i + max(1, BLOCK_ELEMENTS // (m * (lmax + 1))),
                  int(n[m - 1]), renorm_at + 1)
        nodes = np.arange(i + 1, end + 1)
        # f, A and B at every node of the block, as (nodes, energies,
        # channels) arrays; f is formed in B
        shape = (len(nodes), m, lmax + 1)
        A = buf_a[:len(nodes) * m * (lmax + 1)].reshape(shape)
        B = buf_b[:A.size].reshape(shape)
        r = h[:m] * nodes[:, None]
        np.divide(cent, (r * r)[:, :, None], out=B)
        B += w_rows(nodes, m)[:, :, None]
        np.multiply(hh12[:m], B, out=A)
        np.subtract(1.0, A, out=A)
        np.multiply(hh56[:m], B, out=B)
        B += 2.0
        # u at nodes i - 1..end
        U = buf_u[:A.size + 2 * m * (lmax + 1)].reshape(
            (len(nodes) + 2, m, lmax + 1))
        U[0] = u_prev[:m]
        U[1] = u_cur[:m]

        rows, t = list(U), tmp[:m]
        a_prev, a_cur, b_cur = A_prev[:m], A_cur[:m], B_cur[:m]
        for j, (node, a_next, b_next) in enumerate(zip(nodes.tolist(), A,
                                                       B)):
            up, uc, un = rows[j], rows[j + 1], rows[j + 2]
            np.multiply(b_cur, uc, out=un)
            np.multiply(a_prev, up, out=t)
            un -= t
            un /= a_next
            a_prev, a_cur, b_cur = a_cur, a_next, b_next
            hit = by_node.get(node)
            if hit is not None:
                out[hit] = un[hit[0]]
        # the block's sign changes, each into a node where A > 0
        neg = U[1:] < 0
        flips = neg[1:] != neg[:-1]
        flips &= A > 0
        changes[:m] += np.count_nonzero(flips, axis=0)
        u_prev[:m] = U[-2]
        u_cur[:m] = U[-1]
        # a_prev is A_cur's rows when the block is one node long
        A_prev[:m] = a_prev
        A_cur[:m] = a_cur
        B_cur[:m] = b_cur

        i = end
        if (i - 1) % RENORM_EVERY == 0:
            renorm = i - 1 < no_renorm_from[:m]
            if np.any(renorm):
                scale = np.maximum(np.maximum(np.abs(u_prev[:m]),
                                              np.abs(u_cur[:m])), 1e-280)
                scale[~renorm] = 1.0
                u_prev[:m] /= scale
                u_cur[:m] /= scale
    check_finite(slice(0, m))

    back = np.empty_like(order)
    back[order] = np.arange(E)
    return out[back], changes[back]


def _level(angle, neg):
    """floor(angle / pi) for the oscillation angle of a solution u, made
    consistent with the sign of u: the integer of parity neg (the signbit
    of u) nearest angle / pi - 1/2.  The two agree wherever the angle is
    off a multiple of pi by more than its rounding; at a multiple, where
    the angle alone carries no sign, the sign of u decides."""
    return (neg + 2.0 * np.round((angle / np.pi - 0.5 - neg) / 2.0)).astype(
        int)


def _free_zeros(x, s):
    """Zeros of j_l on (0, x] for the channels l = 0..lmax of s = x j_l(x),
    one row per row of the column x.  j_0 = sin x / x has floor(x / pi)
    of them, with the sign of sin x deciding at a multiple of pi.  The
    zeros of j_l and j_{l+1} interlace, j_l's first, and each j_l is
    positive before its first zero, so j_{l+1} has as many as j_l when the
    two share a sign at x and one fewer otherwise."""
    neg = np.signbit(s)
    drops = np.cumsum(neg[:, 1:] != neg[:, :-1], axis=1)
    return _level(x, neg[:, :1]) - np.pad(drops, ((0, 0), (1, 0)))


def _phase(x, S, C):
    """The free Riccati phase phi(x), the continuous angle of (S, C) =
    (x j_l(x), -x y_l(x)), zero at the origin and increasing: n pi plus the
    angle of (S, C) mod pi, with n the zeros of j_l on (0, x]."""
    return _free_zeros(x, S) * np.pi + np.mod(np.arctan2(S, C), np.pi)


def _riccati_pair(x, q, lmax):
    """(S, S', C, C') at x = q r for channels 0..lmax, one row per row of
    the columns x and q: the Riccati-Bessel pair S = x j_l(x) and C =
    -x y_l(x), with r-derivatives S' = q ((l + 1) j_l - x j_{l+1}) and C'
    likewise from y."""
    n = np.arange(lmax + 2)
    j, y = spherical_jn(n, x), spherical_yn(n, x)
    l1 = n[:-1] + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return (x * j[:, :-1], q * (l1 * j[:, :-1] - x * j[:, 1:]),
                -x * y[:, :-1], -q * (l1 * y[:, :-1] - x * y[:, 1:]))


def _shell_pair(w, q, r, lmax):
    """Regular and irregular solutions (F, F', G, G') at radius r > 0 of
    u'' = (l(l+1)/r^2 - w) u in a constant shell, w = lam - v of one sign
    for every row, q = sqrt(|w|) a column; r-derivatives.

    w > 0: the Riccati-Bessel pair of q r.  w < 0: the modified pair,
    sqrt(x) I_{l+1/2}(x) and sqrt(x) K_{l+1/2}(x) at x = q r, divided by
    sqrt(x) e^x and sqrt(x) e^-x so that neither overflows.  w = 0: r^{l+1}
    and r^-l, divided by their values at r.  Every pair has a negative
    Wronskian F G' - F' G."""
    if w[0] > 0:
        return _riccati_pair(q * r, q, lmax)
    l1 = np.arange(lmax + 1) + 1.0
    if w[0] < 0:
        x = q * r
        nu = np.arange(lmax + 2) + 0.5
        i, k = ive(nu, x), kve(nu, x)
        with np.errstate(over="ignore", invalid="ignore"):
            return (i[:, :-1], q * (l1 / x * i[:, :-1] + i[:, 1:]),
                    k[:, :-1], q * (l1 / x * k[:, :-1] - k[:, 1:]))
    one = np.ones((len(w), lmax + 1))
    return one, one * l1 / r, one, one * (1.0 - l1) / r


def _coefficients(u, du, pair, r):
    """Coordinates (c1, c2) of the solution with value u and slope du at r
    in a pair (F, F', G, G') at r of negative Wronskian, up to one positive
    factor: u = c1 F + c2 G, c1 = du G - u G' and c2 = u F' - du F, scaled
    to max(|c1|, |c2|) = 1.

    G overflows only where r lies deep inside the centrifugal barrier,
    where G'/G = -l/r to rounding and the irregular part of any solution
    is smaller than the regular part, from r on, by more than G's own
    excess over F: there c1 takes the sign of du r + l u and c2 = 0."""
    F, dF, G, dG = pair
    with np.errstate(over="ignore", invalid="ignore"):
        c1 = du * G - u * dG
        c2 = u * dF - du * F
    deep = ~np.isfinite(c1)
    if np.any(deep):
        c1 = np.where(deep, np.sign(du * r + np.arange(u.shape[1]) * u), c1)
        c2 = np.where(deep, 0.0, c2)
    scale = np.maximum(np.abs(c1), np.abs(c2))
    scale[scale == 0.0] = 1.0
    return c1 / scale, c2 / scale


def _cross_shell(u, du, w, r0, r1, lmax):
    """Carry the solutions with values u and slopes du at r0 across the
    shell (r0, r1) of constant w = lam - v, of one sign for every row; at
    r0 = 0 they start as the regular solution.  Returns (u, du) at r1,
    scaled by a positive factor per entry to max(|u|, |du|) = 1, and the
    zeros of each solution on (r0, r1].

    Where w > 0 the solution is |(c1, c2)| |(F, G)| sin(phi + theta), with
    phi the free Riccati phase of q r and theta the angle of (c1, c2), and
    the zeros are the multiples of pi that phi + theta passes.  Where
    w <= 0 it is monotone between zeros, with at most one, seen as a sign
    change."""
    q = np.sqrt(np.abs(w))[:, None]
    F, dF, G, dG = _shell_pair(w, q, r1, lmax)
    if r0 == 0.0:
        u1, du1, theta = F, dF, 0.0
    else:
        at0 = _shell_pair(w, q, r0, lmax)
        c1, c2 = _coefficients(u, du, at0, r0)
        theta = np.arctan2(c2, c1)
        # the pairs at r1 are scaled as at r0: G by e^{2 q (r1 - r0)} and
        # (r1 / r0)^{2l+1} more than F
        if w[0] < 0:
            c2 = c2 * np.exp(-2.0 * q * (r1 - r0))
        elif w[0] == 0:
            c2 = c2 * (r0 / r1) ** (2.0 * np.arange(lmax + 1) + 1.0)
        # no irregular part where G may have overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            u1 = c1 * F + np.where(c2 == 0.0, 0.0, c2 * G)
            du1 = c1 * dF + np.where(c2 == 0.0, 0.0, c2 * dG)
    neg0, neg1 = np.signbit(u), np.signbit(u1)
    if w[0] > 0:
        zeros = _level(_phase(q * r1, F, G) + theta, neg1)
        if r0 != 0.0:
            zeros -= _level(_phase(q * r0, at0[0], at0[2]) + theta, neg0)
    else:
        zeros = (neg0 != neg1).astype(int)
    scale = np.maximum(np.abs(u1), np.abs(du1))
    if not np.all(np.isfinite(scale)):
        raise IntegrationFailure("radial shell matching produced non-finite "
                                 "values")
    # a solution below the smallest float is the regular one deep inside
    # the centrifugal barrier, u ~ r^{l+1}
    flat = scale == 0.0
    scale[flat] = 1.0
    return (np.where(flat, 1.0, u1 / scale),
            np.where(flat, (np.arange(lmax + 1) + 1.0) / r1, du1 / scale),
            zeros)


def _shell_rows(V, lams, lmax):
    """(principal, branch) of every row of a shell potential in closed
    form, as _sweep_rows returns them.

    The solution is carried across the shells as a signed pair (u, u'),
    counting its zeros.  At the support radius R its coordinates (a, b) in
    the free pair (S, C) of k r give u = |(a, b)| |(S, C)| sin(phi +
    delta), delta = atan2(b, a) + 2 pi m, and on the absolute branch,
    where delta_l(inf) = 0, floor((phi(k R) + delta) / pi) is the zero
    count on (0, R]; m follows, the sign of u(R) fixing the floor where
    phi + delta is a multiple of pi to rounding."""
    u = np.ones((len(lams), lmax + 1))
    du = np.zeros_like(u)
    zeros = np.zeros(u.shape, dtype=int)
    for r0, r1, v in V.shells:
        w = lams - v
        for rows in (w > 0, w < 0, w == 0):
            e = np.flatnonzero(rows)
            if len(e):
                u[e], du[e], z = _cross_shell(u[e], du[e], w[e], r0, r1,
                                              lmax)
                zeros[e] += z
    k = np.sqrt(lams)[:, None]
    free = _riccati_pair(k * V.radius, k, lmax)
    a, b = _coefficients(u, du, free, V.radius)
    delta = np.arctan2(b, a)
    m = (zeros - _level(_phase(k * V.radius, free[0], free[2]) + delta,
                        np.signbit(u))) // 2
    shift = (delta > np.pi / 2).astype(int) - (delta <= -np.pi / 2)
    return delta - shift * np.pi, 2 * m + shift


def _sweep_rows(V, lams, lmax):
    """One batched sweep over every energy in lams: (principal, branch),
    the matched shifts delta_l in (-pi/2, pi/2] and the integers j with
    delta_l + j pi on the absolute branch, where delta_l(inf) = 0.  A
    shell potential's rows are closed-form (`_shell_rows`); a callable's
    come from one Numerov sweep, as follows.

    Beyond the support u = S cos delta + C sin delta = |(S, C)| sin(phi +
    delta), with phi the free Riccati phase (the continuous angle of
    (S, C), zero at the origin), so u vanishes where phi + delta crosses a
    multiple of pi.  On the absolute branch phi + delta is the solution's
    oscillation angle (Pruefer's), and u has floor((phi + delta) / pi)
    zeros on (0, r].  With n_u the sign changes of u over the sweep, x_b
    the last node's k r and n_free the zeros of j_l on (0, x_b], phi(x_b)
    = n_free pi + (angle of (S, C) mod pi), and j = n_u - floor((phi(x_b)
    + delta) / pi)."""
    lams = np.asarray(lams, dtype=float)
    bad = lams[~(lams > 0)]
    if bad.size:
        raise EnergyNonpositive(f"scattering energy must be positive, "
                                f"got {bad[0]}")
    if V.shells is not None:
        return _shell_rows(V, lams, lmax)
    h, n_in, n_tot = _grid(V, lams)
    steps, first, group = np.unique(h, return_index=True,
                                    return_inverse=True)
    v_nodes = _node_potential(V, steps, n_in[first])

    # the two matching nodes: midway through the free margin, and the end
    idx_a = np.maximum(n_in + (n_tot - n_in) // 2, n_in + 2)
    rows, changes = _numerov(lams, h, n_tot, v_nodes, group, lmax,
                             np.stack([idx_a, n_tot], axis=1))
    u_a, u_b = rows[:, 0], rows[:, 1]

    k = np.sqrt(lams)[:, None]
    x_b = k * (h * n_tot)[:, None]
    sa, _, ca, _ = _riccati_pair(k * (h * idx_a)[:, None], k, lmax)
    sb, _, cb, _ = _riccati_pair(x_b, k, lmax)
    with np.errstate(over="ignore", invalid="ignore"):
        num = u_b * sa - u_a * sb
        den = u_a * cb - u_b * ca
        delta = np.arctan2(num, den)
    delta = np.where(delta > np.pi / 2, delta - np.pi, delta)
    delta = np.where(delta <= -np.pi / 2, delta + np.pi, delta)
    # overflow of the irregular Bessel branch only happens far inside the
    # centrifugally forbidden regime, where the true shift is below any
    # representable size and u has no zero
    delta = np.where(np.isfinite(delta), delta, 0.0)
    phi = _phase(x_b, sb, cb)
    return delta, changes - np.floor((phi + delta) / np.pi).astype(int)


def phase_shift_rows(V, lams, lmax):
    """Phase shifts delta_l(lam), l = 0..lmax, for every energy in lams
    from one batched sweep, each on the absolute branch where
    delta_l(inf) = 0 (the one Levinson's theorem reads), fixed by counting
    the nodes of the radial solution."""
    delta, branch = _sweep_rows(V, lams, lmax)
    return delta + branch * np.pi


def phase_shifts_3d(V, lam, lmax):
    """Phase shifts delta_l, l = 0..lmax, at energy lam > 0 (principal
    branch, each in (-pi/2, pi/2])."""
    return _sweep_rows(V, [lam], lmax)[0][0]


def smatrix_diag_radial(V, lam, lmax):
    """Diagonal of S(lam) on the harmonics of order <= lmax: e^{2 i
    delta_l} repeated with multiplicity 2l + 1."""
    delta = phase_shifts_3d(V, lam, lmax)
    mult = 2 * np.arange(lmax + 1) + 1
    return np.repeat(np.exp(2j * delta), mult)


# ---------------------------------------------------------------------------
# Zero-energy solutions: bound-state counts and threshold statistics


def _zero_energy_radial(V, lmax):
    """Numerov λ=0 sweep to the support radius for channels 0..lmax, for
    shell potentials too: the threshold classification at exactly
    critical depths rests on the statistics of this sweep.

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
                            np.arange(n_in - 4, n_in + 1)[None, :])
    rows = out[0]
    u_R = rows[-1]
    du_R = (25.0 * rows[-1] - 48.0 * rows[-2] + 36.0 * rows[-3]
            - 16.0 * rows[-4] + 3.0 * rows[-5]) / (12.0 * h)
    return u_R, du_R, changes[0]


def _exterior_coefficients(u, du, R):
    """A R^{l+1} and B R^{-l}, up to the common factor 2l + 1, of the
    exterior solution A r^{l+1} + B r^{-l} that continues the zero-energy
    solution from u(R) and u'(R), channels l = 0..len(u) - 1."""
    ells = np.arange(len(u))
    return ells * u + R * du, (ells + 1.0) * u - R * du


def _tail_zero_radial(u, du, R):
    """Whether A r^{l+1} + B r^{-l} has a zero beyond R, channelwise: it
    lies at (-B/A)^{1/(2l+1)}, beyond R iff -bb/aa > 1."""
    aa, bb = _exterior_coefficients(u, du, R)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = -bb / aa > 1.0
    return np.where(aa != 0.0, cond, False)


def _threshold_statistics(V, zero):
    """threshold_statistics_radial over the channels of one zero-energy
    sweep, zero = _zero_energy_radial(V, lmax)."""
    u, du, _ = zero
    aa, bb = np.abs(_exterior_coefficients(u, du, V.radius))
    return aa / (aa + bb + 1e-300)


def threshold_statistics_radial(V):
    """sigma_l = |growing coefficient| / (|growing| + |decaying|) of the
    zero-energy solution at the support radius, for the channels
    l = 0..THRESHOLD_LMAX; zero iff the channel is exactly at a threshold
    (s-resonance for l = 0, eigenvalue for l >= 1)."""
    return _threshold_statistics(V, _zero_energy_radial(V, THRESHOLD_LMAX))


def _bound_states_fd_radial(V, ell):
    L = max(FD_BOX, 3.0 * V.radius)
    h = L / (FD_POINTS + 1)
    r = h * np.arange(1, FD_POINTS + 1)
    return _fd_count(2.0 / h ** 2 + ell * (ell + 1.0) / r ** 2 + V(r), h)


def _channel_counts(V, zero):
    """bound_state_channels over the channels of one zero-energy sweep,
    zero = _zero_energy_radial(V, lmax)."""
    u, du, changes = zero
    ells = np.arange(len(u))
    node_counts = changes + _tail_zero_radial(u, du, V.radius)

    out = np.zeros(len(u), dtype=int)
    for ell in ells.tolist():
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


def bound_state_channels(V, lmax=8):
    """Per-channel bound-state counts N_l, l = 0..lmax, each obtained from
    zero-energy node counting (including the possible zero beyond the
    support) and cross-checked against a radial finite-difference
    diagonalization.  The scan stops at the first empty channel, since N_l
    is nonincreasing in l; later entries are zero by interlacing.
    """
    return _channel_counts(V, _zero_energy_radial(V, lmax))


def bound_states_radial(V):
    """N = sum_l (2l+1) N_l for -Delta + V in three dimensions.  The
    channel range doubles from l = 8 until its last channel is empty;
    N_l is nonincreasing in l, so every channel beyond it is empty too."""
    lmax = 8
    counts = bound_state_channels(V, lmax)
    while counts[-1]:
        lmax *= 2
        counts = bound_state_channels(V, lmax)
    mult = 2 * np.arange(lmax + 1) + 1
    return int(np.sum(mult * counts))


__all__ = [
    "bound_state_channels",
    "bound_states_radial",
    "choose_lmax",
    "phase_shift_rows",
    "phase_shifts_3d",
    "smatrix_diag_radial",
    "threshold_statistics_radial",
]


def _cutoff_rows(V, lams):
    """choose_lmax for an array of energies, with each energy's row over
    channels 0..cutoff from the same sweep (as phase_shift_rows gives it):
    (cutoffs, rows)."""
    # the channel range swept first at each energy
    guess = np.ceil(np.sqrt(lams) * V.radius).astype(int) + 40
    cut = np.full(len(lams), -1)
    out = [None] * len(lams)
    for trial in (guess, 4 * guess):
        todo = np.where(cut < 0)[0]
        if len(todo) == 0:
            break
        rows = phase_shift_rows(V, lams[todo], int(np.max(trial[todo])))
        for e, row in zip(todo.tolist(), rows):
            # the cutoff lies past the last channel at or above tolerance,
            # and at most at the top channel swept for this energy
            large = np.where(np.abs(row[:trial[e] + 1]) >= CHANNEL_TOL)[0]
            if len(large) == 0 or large[-1] + 2 < trial[e]:
                cut[e] = (0 if len(large) == 0 else int(large[-1]) + 1) + 2
                out[e] = row[:cut[e] + 1]
    if np.any(cut < 0):
        raise IntegrationFailure(
            f"no angular cutoff found below l = "
            f"{4 * int(guess[cut < 0][0])}")
    return cut, out


def choose_lmax(V, lam_max):
    """Smallest l with |delta_l(lam_max)| < CHANNEL_TOL for it and
    everything above, plus a safety margin of 2.  The shifts are on the
    absolute branch, so a channel that holds N_l bound states reads
    about N_l pi at low energy, not a small principal value.

    lam_max may also be an array of energies: all of them are swept in one
    batched recursion and the cutoffs come back as an int array.  Each
    energy reads only its own channels 0..trial, which the sweep computes
    exactly as a sweep over those channels alone would.
    """
    cut = _cutoff_rows(V, np.atleast_1d(np.asarray(lam_max, dtype=float)))[0]
    return int(cut[0]) if np.ndim(lam_max) == 0 else cut
