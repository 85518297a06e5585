"""1D Schrödinger scattering for piecewise-constant potentials.

Transfer matrices propagate (psi, psi') exactly across constant segments
using even functions of the local momentum, so tunneling and oscillatory
regimes share one formula.  One kernel, `_smatrix_dk`, gives S and its
exact k-derivative at an array of wavenumbers: it multiplies the
pairs (T, dT/dlam) of the segments with elementwise 2x2 arithmetic, using
closed-form lambda-derivatives of the entries, and differentiates the
plane-wave matching, S' = A^{-1}(B' - A' X).  The product is a pairwise
tree (adjacent pairs per level, one array operation each), so a call
takes about log2(segments) array steps, and its entries are formed in
blocks of at most ENTRY_BLOCK segment-energy pairs, which bound the
memory.  `transfer_matrix` and `smatrix_1d` take one energy or a 1-D
array of energies and read the kernel's value part; `smatrix_1d(V, lam,
derivative=True)` also returns dS/dk.  The S-matrix convention is

    S(lambda) = [[t, r_plus], [r_minus, t]]

in the (right-incoming, left-incoming) basis: with this ordering the
zero-energy limit in the generic (non-resonant) case is [[0, -1], [-1, 0]].

The same entries carry one solution across each segment in one exact
step at every energy, lam = 0 included (`_carry_1d`), as `radial._carry`
does per shell: f = e^{-ikx} left of the support, whose real part's zeros
are counted per segment, from the Pruefer angle where lam exceeds the
segment's value and as a sign change elsewhere.  Its states at the
segment ends are the prefix products of the steps, which an inclusive
doubling scan over the segments forms for all energies at once with the
same elementwise 2x2 product `_mul`, in about log2(segments) array
steps.  At lam = 0 it is the zero-energy solution, behind the node count
of `bound_states_1d`, which a Sturm count of the finite-difference
operator (`_fd_count`, shared with `radial`) cross-checks, and the
zero-energy resonance statistic.  At lam > 0 the zero count puts arg f
on its continuous branch (Calogero's variable phase), and with it arg T
on the absolute branch, arg T(inf) = 0, at each k on its own:
det S = e^{2i arg T}, and arg T(0+) = pi (N - 1/2) without a resonance,
so one row reads the count that a sampled path through S would have to
unwind.  At k = 100 the half-width-1 wells of depth 400 and 1000 still
have arg T = 3.96 and 9.76 rad, past pi: a principal cap there closes a
loop whose flow is -11 and -17, not -13 and -21.  Also here: the Nyström
discretization of the free-resolvent Birman-Schwinger determinant.
"""

import numpy as np
from scipy.linalg.lapack import dstebz

from ..errors import (
    DecompositionFailure,
    EnergyNonpositive,
    NonUnitary,
    OracleDisagreement,
    QuadratureNotConverged,
)
from ..matcore import check_order
from ..rdet import DetValue, _det_p_lu

# finite-difference bound-state counts (1D and radial): box half-width or
# radius, widened to three support widths when needed, and grid points
FD_BOX = 40.0
FD_POINTS = 4096
# the counted eigenvalue window (lo, hi] of the finite-difference operator
FD_WINDOW = (-1e8, -1e-8)
# Birman-Schwinger determinant: the Nystrom node counts of the first rule
# and past which doubling stops, and the tolerance on the extrapolants
NYSTROM_NODES = 150
NYSTROM_MAX_NODES = 4800
NYSTROM_TOL = 1e-6
# |qd| below which a segment's transfer entries come from their power
# series in (qd)^2: the closed form of d(sin(qd)/q)/dlam cancels to about
# 3 eps/(qd)^2 relative, 3e-10 at the switch, where the series truncated
# after (qd)^4 is exact to rounding.  The coefficients are those of
# cos(qd), sin(qd)/(qd) and d(sin(qd)/q)/dlam / d^3.
SERIES_QD = 1e-3
# segment-energy pairs whose transfer entries are formed in one array pass
ENTRY_BLOCK = 4096
_COS_SERIES = (1.0, -1 / 2, 1 / 24)
_SINC_SERIES = (1.0, -1 / 6, 1 / 120)
_DSINC_SERIES = (-1 / 6, 1 / 60, -1 / 1680)


def _seg_entries(d, v, lams, derivative=False):
    """Entries of the transfer matrix [[c, s], [g, c]] of (psi, psi')
    across constant segments of lengths d and values v, at the energies
    lams (broadcast together): c = cos(qd), s = sin(qd)/q and g = -q^2 s
    with q^2 = lam - v.

    With derivative, also their lam-derivatives in closed form,
    dc = -d s/2, ds = (d c - s)/(2q^2) and dg = -(s + d c)/2.  All six are
    even in q, hence real.  Where lam > v, q is real and c and s come
    from real cos and sin; on tunneling entries q is taken complex, so
    one formula serves there too.  Where |qd| < SERIES_QD they come from
    their power series in (qd)^2.
    """
    nq2 = v - lams
    near = np.abs(nq2 * (d * d)) < SERIES_QD ** 2
    series = near.any()
    if series:
        # a stand-in q^2 = 1 keeps the closed forms finite there; the
        # series overwrite those entries below
        nq2 = np.where(near, -1.0, nq2)
    # real cos and sin where lam > v, and times 1/q, as numpy's complex
    # division by q + 0j rounds; the tunneling entries are redone below
    q = np.sqrt(np.abs(nq2))
    z = q * d
    c = np.cos(z)
    s = np.sin(z) * (1.0 / q)
    ev = nq2 > 0
    if ev.any():
        q = np.sqrt(-nq2[ev] + 0j)
        z = q * np.broadcast_to(d, ev.shape)[ev]
        c[ev] = np.cos(z).real
        s[ev] = (np.sin(z) / q).real
    if derivative:
        ds = (s - d * c) / (2.0 * nq2)
    if series:
        nq2 = v - lams
        z2 = -(nq2 * (d * d))[near]
        dn = np.broadcast_to(d, near.shape)[near]
        c[near] = np.polynomial.polynomial.polyval(z2, _COS_SERIES)
        s[near] = dn * np.polynomial.polynomial.polyval(z2, _SINC_SERIES)
        if derivative:
            ds[near] = dn ** 3 * np.polynomial.polynomial.polyval(
                z2, _DSINC_SERIES)
    g = nq2 * s
    if not derivative:
        return c, s, g
    return c, s, g, -0.5 * d * s, ds, -0.5 * (s + d * c)


def _transfer_dlam(V, lams, derivative=False):
    """Transfer matrix M across the support of V at the energies lams, and
    with derivative dM/dlam: P = [M, M'] (just [M] without derivative), a
    real array of shape (2 or 1, 2, 2, energies).

    The segment matrices T_0 (leftmost) to T_{m-1} multiply as a pairwise
    tree with elementwise 2x2 arithmetic.  Each level forms T_1 T_0,
    T_3 T_2, ... in one array operation by the dual pairs' rule
    (T_b, T_b')(T_a, T_a') = (T_b T_a, T_b' T_a + T_b T_a') and carries an
    odd trailing matrix to the next level, so one to three segments are
    multiplied left to right, in the operations of a sequential fold.  The
    entries are formed in blocks of a power of two of segments and at
    most ENTRY_BLOCK segment-energy pairs (one segment when the energies
    alone exceed it), so memory holds one block and one partial product
    per binary digit of the block count.  Block products merge like a
    binary counter, two of equal span as soon as both exist and the rest
    right to left at the end, which builds the tree of an unblocked call:
    the association depends on m alone, and every energy's product is
    computed the same way however many energies share the call.
    """
    lengths, values = V.segment_arrays
    n = len(lams)
    w = 2 if derivative else 1
    step = 1 << (max(1, ENTRY_BLOCK // max(n, 1)).bit_length() - 1)
    done = []
    for b, lo in enumerate(range(0, len(lengths), step), 1):
        e = _seg_entries(lengths[lo:lo + step, None],
                         values[lo:lo + step, None], lams, derivative)
        # X[i, j] is the stack of the j-th segment's T (i = 0) and T'
        # (i = 1), each of shape (2, 2, n)
        X = np.stack(e, axis=1).reshape(len(e[0]), w, 3, n)
        X = X[:, :, [[0, 1], [2, 0]]].swapaxes(0, 1)
        while X.shape[1] > 1:
            m = X.shape[1]
            P = _fold(X[:, 1::2], X[:, :m - 1:2])
            X = np.concatenate([P, X[:, -1:]], axis=1) if m % 2 else P
        while b % 2 == 0:
            X = _fold(X, done.pop())
            b //= 2
        done.append(X)
    M = done.pop()
    while done:
        M = _fold(M, done.pop())
    return M[:, 0]


def _fold(B, A):
    """Dual-pair products (T_b, T_b')(T_a, T_a') = (T_b T_a, T_b' T_a +
    T_b T_a'), the pairs stacked on axis 0 (just T without derivative)
    over matching stacks of shape (..., 2, 2, n)."""
    P = _mul(B[:1], A)
    P[1:] += _mul(B[1:], A[:1])
    return P


def _mul(A, B):
    """Elementwise 2x2 products A B over a trailing axis, for A and B of
    shapes (..., 2, 2, n) that broadcast."""
    return A[..., :1, :] * B[..., :1, :, :] + A[..., 1:, :] * B[..., 1:, :, :]


def _waves(x, ks):
    """Columns (psi, psi') of e^{-ikx} and e^{ikx} at x, and their
    k-derivatives, each of shape (2, 2, n)."""
    sig = np.array([-1j, 1j])[:, None]
    e = np.exp(sig * ks * x)
    W = np.stack([e, sig * ks * e])
    dW = np.stack([sig * x * e, (sig - ks * x) * e])
    return W, dW


def _smatrix_dk(V, ks, derivative=True):
    """S = [[t, r+], [r-, t]] at the wavenumbers ks > 0 (a 1-D array), and
    with derivative its exact k-derivative; each of shape (n, 2, 2), and
    None for the derivative without it.

    One matching matrix A serves both incoming directions.  Left-incoming:
    e^{ikx} + r- e^{-ikx} on the left, t e^{ikx} on the right, unknowns
    (r-, t).  Right-incoming: t e^{-ikx} on the left, e^{-ikx} + r+ e^{ikx}
    on the right, unknowns (t, r+).  So A X = B with A = [M w-(xL),
    -w+(xR)] and B = [-M w+(xL), w-(xR)], solved with the explicit 2x2
    inverse, and X' = A^{-1}(B' - A' X) with M' = 2k dM/dlam.
    """
    P = _transfer_dlam(V, ks * ks, derivative)
    xL, xR = V.support
    WL, dWL = _waves(xL, ks)
    WR, dWR = _waves(xR, ks)
    MW = _mul(P[0], WL)
    A = np.stack([MW[:, 0], -WR[:, 1]], axis=1)
    B = np.stack([-MW[:, 1], WR[:, 0]], axis=1)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
    X = _mul(inv, B)
    # X's columns are the incoming directions and its rows the unknowns,
    # X = [[r-, t], [t, r+]]: S swaps X's rows
    S = np.moveaxis(X[::-1], -1, 0)
    if not derivative:
        return S, None
    dMW = _mul(2.0 * ks * P[1], WL) + _mul(P[0], dWL)
    dA = np.stack([dMW[:, 0], -dWR[:, 1]], axis=1)
    dB = np.stack([-dMW[:, 1], dWR[:, 0]], axis=1)
    dX = _mul(inv, dB - _mul(dA, X))
    return S, np.moveaxis(dX[::-1], -1, 0)


def transfer_matrix(V, lam):
    """Product of segment transfer matrices across the support of V: a 2x2
    matrix for a scalar energy lam, one per energy for a 1-D array."""
    lams = np.asarray(lam, dtype=float)
    M = _transfer_dlam(V, lams.reshape(-1))[0]
    return np.moveaxis(M, -1, 0).reshape(lams.shape + (2, 2)).astype(complex)


def smatrix_1d(V, lam, derivative=False):
    """The 2x2 scattering matrix [[t, r+], [r-, t]] at energy lam > 0, or
    one per energy for a 1-D array of energies: the value part of
    `_smatrix_dk` at k = sqrt(lam).  With derivative, the pair (S, dS/dk),
    the exact k-derivative in the same shape as S.

    Unitarity is inherited from the real potential and is checked by the
    caller's tolerance when the matrix enters a path.  A transfer product
    that overflows, leaving S non-finite, raises NonUnitary.
    """
    lams = np.asarray(lam, dtype=float)
    if np.any(lams <= 0):
        raise EnergyNonpositive(
            f"scattering energies must be positive, got {lam}")
    shape = lams.shape + (2, 2)
    ks = np.sqrt(lams.reshape(-1))
    # a product that overflows, as across a thick barrier, leaves S
    # non-finite: refused here, with no floating-point warning on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        S, dS = _smatrix_dk(V, ks, derivative)
    bad = ~np.isfinite(S).all(axis=(1, 2))
    if derivative:
        bad |= ~np.isfinite(dS).all(axis=(1, 2))
    if bad.any():
        raise NonUnitary(
            f"the transfer matrix product across the support overflowed at "
            f"k = {ks[bad][0]:.6g}, so S is not finite")
    if not derivative:
        return S.reshape(shape)
    return S.reshape(shape), dS.reshape(shape)


def bound_states_1d(V):
    """Number of negative eigenvalues of -d^2/dx^2 + V, by two methods.

    (i) a Sturm count of the finite-difference operator in a large box
    (`_fd_count`, no eigenvalue computed), and (ii) node counting of the
    zero-energy solution (Sturm oscillation), exact per segment
    (`_carry_1d` at k = 0).  The two counts must agree, else
    OracleDisagreement.
    """
    return _bound_state_count(V, _carry_1d(V, np.zeros(1)))


def _bound_state_count(V, carry):
    """bound_states_1d from one carry = _carry_1d(V, ks) whose first
    wavenumber is k = 0."""
    count_fd = _bound_states_fd(V)
    u, du, zeros = (row[0] for row in carry[:3])
    # one more zero in the free region x > x_right iff u and u' oppose there
    count_nodes = zeros + (1 if u * du < 0 else 0)
    if count_fd != count_nodes:
        raise OracleDisagreement(
            f"finite differences count {count_fd} bound states but the "
            f"zero-energy solution has {count_nodes} nodes")
    return count_fd


def _fd_count(diag, h):
    """Eigenvalues in FD_WINDOW of the tridiagonal finite-difference
    operator T with this diagonal and off-diagonal -1/h^2: the bound-state
    count of the 1D and radial oracles.

    A Sturm (inertia) count, no eigenvalue: by Sylvester's law the number
    of eigenvalues of T below sigma is the number of negative pivots of
    T - sigma I, read off its Sturm sequence (Barth, Martin and Wilkinson,
    Numer. Math. 9, 1967).  LAPACK's dstebz takes that count at both ends
    of the window before it bisects, and its M is their difference; with
    an absolute tolerance as wide as the window its bisection stops at
    once, so a call costs a few O(n) passes, not a bisection per
    eigenvalue.  A non-finite diagonal, or a nonzero info, raises
    DecompositionFailure.
    """
    if not np.all(np.isfinite(diag)):
        raise DecompositionFailure(
            "finite-difference diagonal has non-finite entries")
    off = np.full(len(diag) - 1, -1.0 / h ** 2)
    lo, hi = FD_WINDOW
    m, _, _, _, info = dstebz(diag, off, 1, lo, hi, 0, 0, hi - lo, "E")
    if info != 0:
        raise DecompositionFailure(
            f"Sturm count of the finite-difference operator failed "
            f"(dstebz info = {info})")
    return int(m)


def _bound_states_fd(V):
    L = max(FD_BOX, 3.0 * V.halfwidth)
    x = np.linspace(-L, L, FD_POINTS)
    h = x[1] - x[0]
    return _fd_count(2.0 / h ** 2 + V(x), h)


def _level(angle, neg):
    """floor(angle / pi) for the oscillation angle of a solution u, made
    consistent with the sign of u: the integer of parity neg (the signbit
    of u) nearest angle / pi - 1/2.  The two agree wherever the angle is
    off a multiple of pi by more than its rounding; at a multiple, where
    the angle alone carries no sign, the sign of u decides."""
    return (neg + 2.0 * np.round((angle / np.pi - 0.5 - neg) / 2.0)).astype(
        int)


def _carry_1d(V, ks):
    """The solution f that is e^{-ikx} left of the support, carried across
    the segments in closed form at every wavenumber k >= 0 in ks (a 1-D
    array): (u, u', zeros, arg_t), each with one entry per k.  (u, u') is
    (Re f, Re f') at the right edge x_R, up to one positive factor; zeros
    counts the zeros of Re f on the support; arg_t is arg T on its
    absolute branch, where arg T(inf) = 0, and NaN at k = 0.  At k = 0, f
    is the zero-energy solution u = 1, u' = 0 left of the support.

    Each segment is one exact step, its transfer matrix T_j at lam = k^2.
    The states at the segment ends, T_j ... T_0 F with F the columns
    (Re f, Im f) at x_L, are prefix products of an associative operation,
    so an inclusive doubling scan over the stack F, T_0, ..., T_{m-1}
    (Hillis and Steele, Commun. ACM 29, 1986) forms them for all
    wavenumbers at once in ceil(log2(m + 1)) levels of `_mul`, each level
    followed by a rescale of every prefix it formed to a largest entry of
    1, a positive factor that changes no sign or angle read here.  On an
    evanescent segment (v > lam) the step is divided by cosh(kappa d), its
    entries 1, tanh(kappa d)/kappa and kappa tanh(kappa d), so no barrier
    overflows.  Where lam > v the Pruefer angle of (q u, u') advances by
    exactly q d, and the zeros are the multiples of pi that it passes, the
    sign of u deciding at a multiple (`_level`).  Elsewhere u is monotone
    or linear between zeros, with at most one, seen as a sign change.

    The Wronskian of Re f and Im f is -k, so arg f decreases strictly (the
    variable-phase construction; Calogero, Variable Phase Approach to
    Potential Scattering, 1967): arg(i f) starts at pi/2 - k x_L and passes
    a multiple of pi at each zero of Re f, which puts arg f(x_R) on its
    continuous branch.  Right of the support f = (e^{-ikx} + r e^{ikx}) / T
    with |r| < 1, so arg T = -k x_R + arg(1 + r e^{2ikx_R}) - arg f(x_R),
    the middle term principal, with r e^{2ikx_R} = (k f - i f') / (k f +
    i f') at x_R.
    """
    lengths, values = V.segment_arrays
    d, v = lengths[:, None], values[:, None]
    lams = ks * ks
    # the evanescent steps, first formed as force-free ones
    c, s, g = _seg_entries(d, np.minimum(v, lams), lams)
    ev = v > lams
    kappa = np.sqrt((v - lams)[ev])
    t = np.tanh(kappa * np.broadcast_to(d, ev.shape)[ev])
    c[ev], s[ev], g[ev] = 1.0, t / kappa, kappa * t
    # the columns (Re f, Re f') and (Im f, Im f') at the left edge, then the
    # steps: level h of the scan multiplies each prefix past the h-th by
    # the one h places before it, all wavenumbers at once, and leaves the
    # rows (Re f, Re f', Im f, Im f') at each segment's left end and at x_R
    x_left, x_right = V.support
    cos, sin = np.cos(ks * x_left), np.sin(ks * x_left)
    X = np.concatenate([np.array([[cos, -sin], [-ks * sin, -ks * cos]])[None],
                        np.array([[c, s], [g, c]]).transpose(2, 0, 1, 3)])
    h = 1
    while h < len(X):
        X[h:] = _mul(X[h:], X[:-h])
        X[h:] /= np.abs(X[h:]).max(axis=(1, 2), keepdims=True)
        h *= 2
    (us, ws), (dus, dws) = X.transpose(1, 2, 0, 3)
    neg = np.signbit(us)
    q = np.sqrt(np.maximum(lams - v, 0.0))
    angle = np.arctan2(q * us[:-1], dus[:-1])
    zeros = np.sum(np.where(lams > v, _level(angle + q * d, neg[1:])
                            - _level(angle, neg[:-1]), neg[:-1] != neg[1:]),
                   axis=0)
    # arg(i f) at x_R on its branch: its level has dropped by the zeros
    right = np.arctan2(us[-1], -ws[-1])
    level = _level(np.pi / 2 - ks * x_left, neg[0]) - zeros
    arg_f = right + 2.0 * np.pi * ((level - _level(right, neg[-1])) // 2) \
        - np.pi / 2
    f, df = us[-1] + 1j * ws[-1], dus[-1] + 1j * dws[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        reflected = (ks * f - 1j * df) / (ks * f + 1j * df)
    arg_t = -ks * x_right + np.angle(1.0 + reflected) - arg_f
    return us[-1], dus[-1], zeros, np.where(ks > 0, arg_t, np.nan)


def resonance_statistic_1d(V):
    """Scale-free size of the derivative of the zero-energy solution at the
    right edge; zero iff the solution stays bounded (a resonance)."""
    return _resonance_statistic(V, _carry_1d(V, np.zeros(1)))


def _resonance_statistic(V, carry):
    """resonance_statistic_1d from one carry = _carry_1d(V, ks) whose
    first wavenumber is k = 0."""
    u_end, du_end = carry[0][0], carry[1][0]
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


def birman_schwinger_det_1d(V, lam, branch=+1, p=1):
    """Det_p(Id + q1 R0(lam +/- i0) q2) by Nystrom discretization.

    The quadrature error is O(m^-2) in the node count m because of the
    |x - y| kink on the kernel diagonal; node doubling from NYSTROM_NODES
    plus Richardson extrapolation removes the leading term, and
    convergence is judged on successive extrapolants (the raw h^2
    differences overestimate the extrapolated error by orders of
    magnitude).  Raises QuadratureNotConverged when doubling does not
    stabilize to NYSTROM_TOL by NYSTROM_MAX_NODES nodes; the order p must
    be an integer >= 1.
    """
    p = check_order("p", p, 1, integer=True)
    if lam <= 0:
        raise EnergyNonpositive(f"need lam > 0, got {lam}")

    def det_at(m):
        K = _bs_matrix(V, lam, branch, m)
        return _det_p_lu(np.eye(K.shape[0]) + K, K, p)

    prev = det_at(NYSTROM_NODES)
    prev_rich = None
    m = 2 * NYSTROM_NODES
    while m <= NYSTROM_MAX_NODES:
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
        f"n = {NYSTROM_MAX_NODES}")
