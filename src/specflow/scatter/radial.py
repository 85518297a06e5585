"""Radial Schrödinger scattering in three dimensions.

Every radial potential is a tuple of constant shells (`RadialPotential`),
and the reduced radial equation u'' = (l(l+1)/r^2 + V - lam) u has its
solution in closed form at every energy, lam = 0 included (`_carry`).
Inside a shell the solution is a pair of Riccati-Bessel functions of q r,
q = sqrt(|lam - v|), of the modified functions where v > lam, or r^{l+1}
and r^-l where v = lam.  The signed pair (u, u') is carried across each
boundary and its zeros counted from the monotone Riccati-Bessel phase
(Calogero's variable phase).  A whole (energies x channels) array takes a
few vectorized Bessel evaluations per shell and no step size.  Where the
irregular function overflows, deep inside the centrifugal barrier, only
its log-derivative -l/r enters (the ratio form of Johnson's log-derivative
method), so every channel stays finite.

At lam > 0 the coordinates of (u, u') in the free pair at the support
radius give every row of `phase_shift_rows` on the absolute branch, where
delta_l(inf) = 0, from the zero count (Pruefer's oscillation count), with
no unwinding over an energy grid; `phase_shifts_3d` reports the principal
branch.  The carry also takes the integral of u^2 over the support, shell
by shell from a closed-form primitive, in the running scale of (u, u'),
and that integral gives each row's exact slope d delta_l / dk (the energy
derivative of the variable phase, `_sweep_rows`).  At lam = 0 the same
carry gives u(R), u'(R) and the zeros inside the support, behind the
bound-state counts and the threshold statistics (`_zero_energy_radial`).

One rule sizes every channel range the package sweeps on its own: at
energy lam, channel l is classically forbidden on all of (0, R] once
l(l+1) >= R^2 max(0, lam - min(0, min V)), the minimum taken over the
shells and the exterior's V = 0, since then l(l+1)/r^2 >= lam - V(r) for
every r <= R (`_forbidden_channel`).  At lam = 0 no such channel holds a
bound state (`_bound_channels`); at lam > 0 neither the potential nor
the free wave reaches it inside R, so the shifts fall off past it, on a
barrier as in a well, and the rows are swept 40 channels further
(`_cutoff_rows`).
"""

import numpy as np
from scipy.special import ive, kve, spherical_jn, spherical_yn

from ..errors import (
    EnergyNonpositive,
    IntegrationFailure,
    OracleDisagreement,
)
from .onedim import FD_BOX, FD_POINTS, _fd_count, _level

# a channel whose phase shift stays below this is negligible
CHANNEL_TOL = 1e-8
# the top channel of the threshold statistics
THRESHOLD_LMAX = 3


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
    to max(|c1|, |c2|) = 1, and that factor, size, the largest of the
    unscaled |c1| and |c2|.

    G overflows only where r lies deep inside the centrifugal barrier,
    where G'/G = -l/r to rounding and the irregular part of any solution
    is smaller than the regular part, from r on, by more than G's own
    excess over F: there c1 takes the sign of du r + l u, c2 = 0 and size
    is infinite."""
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
    return c1 / scale, c2 / scale, np.where(deep, np.inf, scale)


def _primitive(u, du, w, r):
    """P(r) with P' = u^2 for the solution of u'' = (l(l+1)/r^2 - w) u with
    value u and slope du at r, w of one sign for every row (a column):
    -(u u' + (l(l+1)/r - w r) u^2 - r u'^2) / 2w, whose r-derivative is
    u^2 by the equation.  Where w = 0 it is r (a^2/(2l+3) + a b +
    b^2/(1-2l)) with u = a + b split into its parts a = A r^{l+1} and
    b = B r^-l.  Both vanish at r = 0 on the regular solution."""
    ell = np.arange(u.shape[1])
    if w[0] == 0:
        a = (ell * u + r * du) / (2.0 * ell + 1.0)
        b = u - a
        return r * (a * a / (2.0 * ell + 3.0) + a * b
                    + b * b / (1.0 - 2.0 * ell))
    w = w[:, None]
    return -(u * du + (ell * (ell + 1.0) / r - w * r) * u * u
             - r * du * du) / (2.0 * w)


def _cross_shell(u, du, norm, w, r0, r1, lmax):
    """Carry the solutions with values u and slopes du at r0 across the
    shell (r0, r1) of constant w = lam - v, of one sign for every row; at
    r0 = 0 they start as the regular solution.  norm is the integral of
    u^2 over (0, r0) in the scale of (u, du).  Returns (u, du) at r1,
    scaled by a positive factor per entry to max(|u|, |du|) = 1, the
    integral of u^2 over (0, r1) in that scale, and the zeros of each
    solution on (r0, r1].

    Where w > 0 the solution is |(c1, c2)| |(F, G)| sin(phi + theta), with
    phi the free Riccati phase of q r and theta the angle of (c1, c2), and
    the zeros are the multiples of pi that phi + theta passes.  Where
    w <= 0 it is monotone between zeros, with at most one, seen as a sign
    change.  The shell adds P(r1) - P(r0) to the integral (`_primitive`).
    c1 F + c2 G is the solution times |W| / size, W the pair's Wronskian
    at r0 and size that of `_coefficients`; so once the pair at r1 is
    scaled back to the one at r0, by f, and the result by the final
    scale, the result is the input times |W| / (size f scale)."""
    ell = np.arange(lmax + 1)
    q = np.sqrt(np.abs(w))[:, None]
    F, dF, G, dG = _shell_pair(w, q, r1, lmax)
    if r0 == 0.0:
        u1, du1, theta, carried = F, dF, 0.0, 0.0
    else:
        at0 = _shell_pair(w, q, r0, lmax)
        c1, c2, size = _coefficients(u, du, at0, r0)
        theta = np.arctan2(c2, c1)
        # the pairs at r1 are scaled as at r0: G by e^{2 q (r1 - r0)} and
        # (r1 / r0)^{2l+1} more than F; span is |W| / f
        span = q
        if w[0] < 0:
            c2 = c2 * np.exp(-2.0 * q * (r1 - r0))
            span = np.exp(-q * (r1 - r0)) / np.sqrt(r0 * r1)
        elif w[0] == 0:
            c2 = c2 * (r0 / r1) ** (2.0 * ell + 1.0)
            span = (2.0 * ell + 1.0) / r0 * (r0 / r1) ** (ell + 1.0)
        # no irregular part where G may have overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            u1 = c1 * F + np.where(c2 == 0.0, 0.0, c2 * G)
            du1 = c1 * dF + np.where(c2 == 0.0, 0.0, c2 * dG)
        carried = (span / size) ** 2 * (norm - _primitive(u, du, w, r0))
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
    # the centrifugal barrier, u ~ r^{l+1}, whose integral is r / (2l+3)
    flat = scale == 0.0
    scale[flat] = 1.0
    u1 = np.where(flat, 1.0, u1 / scale)
    du1 = np.where(flat, (ell + 1.0) / r1, du1 / scale)
    norm = np.where(flat, r1 / (2.0 * ell + 3.0),
                    carried / scale / scale + _primitive(u1, du1, w, r1))
    return u1, du1, norm, zeros


def _carry(V, lams, lmax):
    """The regular solution at every energy in lams (lam >= 0) carried
    across the shells of V: (u, u') at the support radius, each row scaled
    by a positive factor, the integral of u^2 over (0, R] in that scale,
    and the zeros of u on (0, R]."""
    u = np.ones((len(lams), lmax + 1))
    du, norm = np.zeros((2,) + u.shape)
    zeros = np.zeros(u.shape, dtype=int)
    for r0, r1, v in V.shells:
        w = lams - v
        for rows in (w > 0, w < 0, w == 0):
            e = np.flatnonzero(rows)
            if len(e):
                u[e], du[e], norm[e], z = _cross_shell(
                    u[e], du[e], norm[e], w[e], r0, r1, lmax)
                zeros[e] += z
    return u, du, norm, zeros


def _sweep_rows(V, lams, lmax):
    """(principal, branch, slope) at every energy in lams: the shifts
    delta_l in (-pi/2, pi/2], the integers j with delta_l + j pi on the
    absolute branch, where delta_l(inf) = 0, and d delta_l / dk.

    At the support radius R the coordinates (a, b) of the carried solution
    in the free pair (S, C) of k r give u = |(a, b)| |(S, C)| sin(phi +
    delta), delta = atan2(b, a) + 2 pi m, and on the absolute branch,
    floor((phi(k R) + delta) / pi) is the zero count on (0, R]; m follows,
    the sign of u(R) fixing the floor where phi + delta is a multiple of
    pi to rounding.

    The slope is closed-form too (Calogero's variable phase, differentiated
    in the energy).  The regular solution u and its lam-derivative u_lam
    obey (u u_lam' - u' u_lam)' = -u^2 and vanish at r = 0, so at R their
    Wronskian is -N, N the integral of u^2 over (0, R] that the carry
    gives.  Beyond R the free pair's lam-derivatives, r f' / 2 lam and
    (f' + r f'') / 2 lam, make that Wronskian -(a^2 + b^2) k d delta /
    d lam - P(R), P the primitive of u^2 at w = lam.  So d delta / dk =
    2 k^2 (N - P(R)) / (c1^2 + c2^2), with (c1, c2) = k (a, b) as
    `_coefficients` gives them, unscaled; a channel deep inside the
    barrier at R, whose size is infinite, reads 0."""
    lams = np.asarray(lams, dtype=float)
    bad = lams[~(lams > 0)]
    if bad.size:
        raise EnergyNonpositive(f"scattering energy must be positive, "
                                f"got {bad[0]}")
    u, du, norm, zeros = _carry(V, lams, lmax)
    k = np.sqrt(lams)[:, None]
    free = _riccati_pair(k * V.radius, k, lmax)
    a, b, size = _coefficients(u, du, free, V.radius)
    delta = np.arctan2(b, a)
    m = (zeros - _level(_phase(k * V.radius, free[0], free[2]) + delta,
                        np.signbit(u))) // 2
    shift = (delta > np.pi / 2).astype(int) - (delta <= -np.pi / 2)
    with np.errstate(over="ignore"):
        size = size ** 2 * (a * a + b * b)
    return (delta - shift * np.pi, 2 * m + shift,
            2.0 * k * k * (norm - _primitive(u, du, lams, V.radius)) / size)


def phase_shift_rows(V, lams, lmax):
    """Phase shifts delta_l(lam), l = 0..lmax, for every energy in lams
    from one batched sweep, each on the absolute branch where
    delta_l(inf) = 0 (the one Levinson's theorem reads), fixed by counting
    the nodes of the radial solution."""
    delta, branch, _ = _sweep_rows(V, lams, lmax)
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
    """The zero-energy solution for channels 0..lmax, carried across the
    shells with w = -v: (u(R), u'(R), zeros of u on (0, R]), up to one
    positive factor per channel, which no statistic built on it reads."""
    u, du, _, zeros = _carry(V, np.zeros(1), lmax)
    return u[0], du[0], zeros[0]


def _exterior_coefficients(u, du, R):
    """A R^{l+1} and B R^{-l}, up to the common factor 2l + 1, of the
    exterior solution A r^{l+1} + B r^{-l} that continues the zero-energy
    solution from u(R) and u'(R), channels l = 0..len(u) - 1."""
    ells = np.arange(len(u))
    return ells * u + R * du, (ells + 1.0) * u - R * du


def _tail_zero_radial(u, du, R):
    """Whether A r^{l+1} + B r^{-l} has a zero beyond R, channelwise.
    Times r^l it is monotone in r^{2l+1}, (2l+1) u(R) R^l = aa + bb at R
    and of the sign of aa far out, so it has one iff u(R) and aa are
    nonzero and of opposite signs.  Signs, not the ratio -bb/aa against
    1, decide, so a zero within rounding of R is still seen."""
    aa, _ = _exterior_coefficients(u, du, R)
    return (u != 0.0) & (aa != 0.0) & (np.signbit(u) != np.signbit(aa))


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


def _bound_states_fd_radial(V, ells):
    """Finite-difference Sturm counts (`_fd_count`) of the channels ells,
    yielded in order from one grid: V(r) is sampled once and each channel
    adds only its centrifugal term."""
    L = max(FD_BOX, 3.0 * V.radius)
    h = L / (FD_POINTS + 1)
    r = h * np.arange(1, FD_POINTS + 1)
    v, r2 = V(r), r ** 2
    for ell in ells:
        yield _fd_count(2.0 / h ** 2 + ell * (ell + 1.0) / r2 + v, h)


def _channel_counts(V, zero):
    """bound_state_channels over the channels of one zero-energy sweep,
    zero = _zero_energy_radial(V, lmax)."""
    u, du, changes = zero
    nodes = changes + _tail_zero_radial(u, du, V.radius)
    for ell, n_fd in enumerate(_bound_states_fd_radial(V, range(len(u)))):
        if n_fd != nodes[ell]:
            raise OracleDisagreement(
                f"channel l={ell}: the finite-difference Sturm count finds "
                f"{n_fd} bound states, node counting finds {nodes[ell]}")
        if n_fd == 0:
            break
    # channels past the first empty one hold none (N_l is nonincreasing)
    return nodes * (np.arange(len(u)) <= ell)


def bound_state_channels(V, lmax=8):
    """Per-channel bound-state counts N_l, l = 0..lmax, each obtained from
    zero-energy node counting (including the possible zero beyond the
    support) and cross-checked against a Sturm count of the radial
    finite-difference operator (no eigenvalue computed).  The scan stops
    at the first empty channel, since N_l is nonincreasing in l; later
    entries are zero by interlacing.
    """
    return _channel_counts(V, _zero_energy_radial(V, lmax))


def _forbidden_channel(V, lams):
    """The first channel classically forbidden on all of (0, R] at each
    energy of lams: the first l with l(l+1) >= R^2 max(0, lam - min(0,
    min v)), the minimum over the shells and the exterior's V = 0.  There
    l(l+1)/r^2 >= lam - v(r) for every r <= R, in that channel and every
    one above it; on a barrier the rule still reaches kR, where the free
    wave's shifts are O(1).  floor(sqrt(x)) is that l or one below it."""
    low = min(0.0, min(v for _, _, v in V.shells))
    x = V.radius ** 2 * np.maximum(0.0, lams - low)
    ell = np.floor(np.sqrt(x)).astype(int)
    return ell + (ell * (ell + 1.0) < x)


def _bound_channels(V):
    """(counts, zero): the zero-energy sweep zero = _zero_energy_radial(V,
    lmax) and its bound-state counts over channels 0..lmax, lmax the larger
    of 8 and the first channel forbidden at lam = 0 (`_forbidden_channel`).
    That channel's effective potential v + l(l+1)/r^2 is nonnegative on
    all of (0, inf), so it holds no bound state, and a count there is a
    solver fault (OracleDisagreement)."""
    zero = _zero_energy_radial(V, max(8, int(_forbidden_channel(V, 0.0))))
    counts = _channel_counts(V, zero)
    if counts[-1]:
        raise OracleDisagreement(
            f"channel l={len(counts) - 1} holds {counts[-1]} bound states, "
            f"though l(l+1) >= R^2 max(0, -min V) binds none")
    return counts, zero


def bound_states_radial(V):
    """N = sum_l (2l+1) N_l for -Delta + V in three dimensions, over the
    channels of one zero-energy sweep (`_bound_channels`): every channel
    beyond it holds no bound state."""
    counts = _bound_channels(V)[0]
    return int((2 * np.arange(len(counts)) + 1) @ counts)


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
    """choose_lmax for an array of energies, with each energy's row (as
    phase_shift_rows gives it) and the row's slopes d delta / dk from the
    same sweep: (cutoffs, rows, slopes), the rows and slopes 0.0 above each
    energy's cutoff.  One sweep runs each energy up to 40 channels past
    its first channel classically forbidden on (0, R], the exterior's
    V = 0 included (`_forbidden_channel`), where the shifts fall off; a
    row still at or above tolerance within two channels of that top has
    no cutoff (IntegrationFailure)."""
    top = _forbidden_channel(V, lams) + 40
    delta, branch, slopes = _sweep_rows(V, lams, int(np.max(top)))
    rows = delta + branch * np.pi
    ell = np.arange(rows.shape[1])
    # the last channel at or above tolerance, up to each energy's top
    last = np.max(np.where((np.abs(rows) >= CHANNEL_TOL)
                           & (ell <= top[:, None]), ell, -1), axis=1)
    if np.any(last + 2 >= top):
        raise IntegrationFailure(f"no angular cutoff found below l = "
                                 f"{int(top[last + 2 >= top][0])}")
    cut = last + 3
    keep = ell <= cut[:, None]
    return cut, np.where(keep, rows, 0.0), np.where(keep, slopes, 0.0)


def choose_lmax(V, lam_max):
    """Smallest l with |delta_l(lam_max)| < CHANNEL_TOL for it and
    everything above, plus a safety margin of 2.  The shifts are on the
    absolute branch, so a channel that holds N_l bound states reads
    about N_l pi at low energy, not a small principal value.

    The sweep at lam_max runs 40 channels past the first channel that
    is classically forbidden on all of (0, R], the first l with
    l(l+1) >= R^2 max(0, lam_max - min(0, min V)), the minimum over the
    shells and the exterior's V = 0, so at least about kR on a barrier;
    the same rule bounds the bound-state channels at lam = 0.  A shift
    still at tolerance near that top raises IntegrationFailure.

    lam_max may also be an array of energies: all of them are swept in one
    batch and the cutoffs come back as an int array.  Each energy reads
    only its own channels, which the sweep computes exactly as a sweep
    over those channels alone would.
    """
    cut = _cutoff_rows(V, np.atleast_1d(np.asarray(lam_max, dtype=float)))[0]
    return int(cut[0]) if np.ndim(lam_max) == 0 else cut
