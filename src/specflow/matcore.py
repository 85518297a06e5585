"""Dense matrix kernels shared by the spectral-flow engines.

Conventions fixed here once and for all:

* Eigenvalue branch.  Angles of unitary eigenvalues live in (-pi, pi], so the
  crossing point -1 is always represented by the angle +pi.  This is the
  matrix version of the principal logarithm Log(r e^{it}) = ln r + it with
  -pi < t <= pi.  Eigenvalues that sit on the cut within SNAP_TOL are
  snapped to +pi rather than being allowed to flip to -pi through rounding.
* Unitarity is checked in Frobenius norm, never looser than the operator
  norm, with tolerance 1e-10 by default.
* Stacks.  `check_unitary`, `eig_unitary` and `form_trace` take one
  (dim, dim) matrix or a stack (..., dim, dim), so a caller with many
  samples (Phillips' refinement rounds, a round of winding-quadrature
  nodes) checks, decomposes or traces them in one call; each member of a
  stack comes out exactly as it would alone.

Decompose only what is read.  Determinants read no spectrum: `rdet` takes
them from an LU factorization.  Every reader of a unitary's spectrum
(Phillips' eigenvalue tracking, the principal logarithm, the geodesic
caps and endpoint integrals) uses `eig_unitary`, whose vectors are
orthonormal even at degeneracies.  It decomposes a whole stack with one
`eigh` of a Hermitian matrix that shares U's eigenvectors and checks each
member's residual; a member that fails the check, where the Hermitian
matrix merges two eigenvalues that U keeps apart, takes the complex Schur
decomposition of `scipy.linalg.schur`.
`abs_power` is the one kernel of |A|^{2x} = (A*A)^x: the winding-form
trace kernel takes whole powers of A*A with matrix products and reserves
its SVD for fractional orders.

The module needs numpy alone.  `scipy.linalg` is imported only when one
of its two rare fallbacks fires: the Schur decomposition of a member that
`eigh` cannot settle, and the gesvd driver after gesdd fails to converge.
"""

import math

import numpy as np

from .errors import DecompositionFailure, InvalidOrder, NonUnitary

UNITARY_TOL = 1e-10
SNAP_TOL = 1e-12
# eig_unitary: the phase of the rotation R = e^{-i phase} in the Hermitian
# H = R U + (R U)* (irrational and far from 0 and pi), and the residual,
# per sqrt(dim), up to which H's eigenvectors are accepted for U's
HERMITIAN_PHASE = 0.377
EIG_RESIDUAL_TOL = 1e-12


def check_unitary(U, tol=UNITARY_TOL):
    """Return U as a complex ndarray, raising NonUnitary if U*U != Id.

    U is one (dim, dim) matrix or a stack (..., dim, dim); a stack fails
    if any member does.  The defect ||U*U - Id|| is measured in Frobenius
    norm, never looser than the operator norm, so it costs one matmul
    rather than an SVD; `tol` defaults to 1e-10.  A NaN or infinite entry
    makes the defect non-finite, and that is rejected too, with no
    floating-point warning from the product on the way.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim < 2 or U.shape[-1] != U.shape[-2]:
        raise NonUnitary(f"expected a square matrix, got shape {U.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        D = U.conj().mT @ U - np.eye(U.shape[-1])
        D = D.reshape(U.shape[:-2] + (U.shape[-1] ** 2,))
        worst = np.sqrt(np.vecdot(D, D).real.max(initial=0.0))
    if not worst <= tol:
        raise NonUnitary(f"unitarity defect {worst:.3e} exceeds tol {tol:.1e}")
    return U


def _branch_angles(vals):
    """Angles of unit eigenvalues in (-pi, pi], those within SNAP_TOL of
    the cut snapped to +pi, and their stable increasing order along the
    last axis."""
    angles = np.angle(vals)
    angles[np.abs(angles + np.pi) <= SNAP_TOL] = np.pi
    return angles, np.argsort(angles, axis=-1, kind="stable")


def _schur_eig(M):
    """Eigenvalues and Schur vectors (as columns) of one unitary M from
    `scipy.linalg.schur(M, output="complex")`.  Raises DecompositionFailure
    if LAPACK reports an error."""
    from scipy.linalg import schur
    try:
        T, Z = schur(M, output="complex")
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(
            f"Schur decomposition of a {M.shape[-1]}x{M.shape[-1]} unitary "
            f"failed: {exc}") from exc
    return np.diag(T), Z


def eig_unitary(U):
    """Eigen-decompose a unitary matrix into angles and orthonormal vectors.

    Returns (angles, vectors) with angles in (-pi, pi] sorted increasingly and
    vectors[:, j] the eigenvector for angles[j].  Angles within SNAP_TOL of
    the cut are snapped to +pi (the branch convention for the crossing point).
    A stack (..., dim, dim) returns angles (..., dim) and vectors
    (..., dim, dim), each member exactly as a call on it alone, and each
    matrix of vectors Fortran-ordered.

    U is normal, so the Hermitian H = R U + (R U)*, R = e^{-i HERMITIAN_PHASE},
    has U's eigenvectors; one stacked `eigh` of H gives orthonormal
    vectors Q, and the Rayleigh quotients w = diag(Q* U Q) the eigenvalues.
    A member is accepted when ||U Q - Q diag(w)|| <= EIG_RESIDUAL_TOL
    sqrt(dim) in Frobenius norm, which bounds how far the returned pair
    rebuilds U.  H merges two eigenvalues of U placed symmetrically about
    e^{i HERMITIAN_PHASE}, so `eigh` may mix their vectors; such a member
    fails the check and takes the complex Schur decomposition
    (`_schur_eig`), whose Schur vectors are orthonormal at any degeneracy.
    If `eigh` does not converge, every member of the stack takes the Schur
    route (the one case where a member may differ from its own call in the
    last bits), and DecompositionFailure is raised if that fails too.
    """
    U = check_unitary(U)
    n = U.shape[-1]
    flat = U.reshape(-1, n, n)
    RU = np.exp(-1j * HERMITIAN_PHASE) * flat
    try:
        _, Q = np.linalg.eigh(RU + RU.conj().mT)
    except np.linalg.LinAlgError:
        w = np.empty(flat.shape[:-1], dtype=complex)
        Q = np.empty(flat.shape, dtype=complex)
        failed = range(len(flat))
    else:
        UQ = flat @ Q
        w = np.vecdot(Q, UQ, axis=-2)
        D = (UQ - Q * w[:, None, :]).reshape(len(flat), n * n)
        residual = np.sqrt(np.vecdot(D, D).real)
        failed = np.flatnonzero(~(residual <= EIG_RESIDUAL_TOL * np.sqrt(n)))
    for i in failed:
        w[i], Q[i] = _schur_eig(flat[i])
    angles, order = _branch_angles(w)
    member = np.arange(len(flat))[:, None]
    # gather the sorted vectors as rows, far cheaper at dim 64 than as
    # columns, and return the transposed view: each matrix of vectors is
    # Fortran-ordered
    return (angles[member, order].reshape(U.shape[:-1]),
            Q.mT[member, order].mT.reshape(U.shape))


def principal_log_unitary(U):
    """Skew-Hermitian principal logarithm Y of a unitary U, with e^Y = U.

    Eigenvalue e^{i theta} maps to i*theta with theta in (-pi, pi]; the
    eigenvalue -1 maps to +i*pi (cut-locus convention).  A stack
    (..., dim, dim) gives the logarithm of each member.
    """
    angles, vecs = eig_unitary(U)
    return (vecs * (1j * angles)[..., None, :]) @ vecs.conj().mT


def schatten_norm(A, p):
    """Schatten p-norm of a matrix: the l^p norm of its singular values.

    p may be any real >= 1 or np.inf (operator norm).
    """
    if not (p == np.inf or p >= 1):
        raise InvalidOrder(f"Schatten order must be >= 1 or inf, got {p}")
    s = np.linalg.svd(np.asarray(A, dtype=complex), compute_uv=False)
    if p == np.inf:
        return float(s[0]) if len(s) else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def abs_power(A, x):
    """|A|^{2x} = (A*A)^x as a Hermitian PSD matrix, via singular values.

    x may be fractional; x = 1/2 gives |A| itself.  Computed from the SVD
    A = U s V*: |A|^2 = V s^2 V*, so |A|^{2x} = V s^{2x} V*.  LAPACK's
    divide-and-conquer driver (gesdd) can fail to converge, e.g. on U - Id
    with several eigenvalues of U at 1; the QR-iteration driver (gesvd) is
    then tried, and DecompositionFailure raised if it fails too.
    """
    A = np.asarray(A, dtype=complex)
    if not (np.isfinite(x) and x >= 0):
        raise InvalidOrder(f"power must be finite and >= 0, got {x} "
                           f"(negative powers of a singular A diverge)")
    try:
        _, s, Vh = np.linalg.svd(A)
    except np.linalg.LinAlgError:
        from scipy.linalg import svd
        try:
            _, s, Vh = svd(A, lapack_driver="gesvd")
        except np.linalg.LinAlgError as exc:
            raise DecompositionFailure(
                f"SVD of a {A.shape[0]}x{A.shape[1]} matrix did not converge "
                f"with gesdd or gesvd") from exc
    return (Vh.conj().T * s ** (2.0 * x)) @ Vh


def check_order(name, order, least, integer=False):
    """Return a regularisation order checked to be finite and >= `least`
    (and >= 0).

    With `integer` the order must also be a whole number and is returned
    as an int, else as a float.  This is the one order check behind the
    winding forms, endpoint integrals, determinants and Cayley identities;
    `least` is compared with a 1e-12 allowance for rounding in
    Schatten-derived bounds such as (p - 1)/2.
    """
    if not np.isfinite(order) or order < 0 or order < least - 1e-12 \
            or (integer and order != int(order)):
        kind = "an integer >= " if integer else ">= "
        raise InvalidOrder(f"{name} must be {kind}{least}, got {order}")
    return int(order) if integer else float(order)


def form_trace(X, U, kind, order):
    """Tr(X g(U - Id)) with g(A) = A^n (kind "n") or |A|^{2r} (kind "r").

    The one trace kernel of the regularised winding forms: with X = U* U'
    it is the un-normalised alpha (kind "n") or beta (kind "r") integrand.
    A whole order r takes |A|^{2r} = (A*A)^r from matrix products, as kind
    "n" takes A^n; only a fractional r needs the SVD of `abs_power`, called
    once per matrix.  X and U are (dim, dim) matrices, giving a scalar, or
    stacks (..., dim, dim), giving the trace of each member as its own
    call would.
    """
    A = U - np.eye(U.shape[-1])
    if kind == "n":
        G = np.linalg.matrix_power(A, order)
    elif order == int(order):
        G = np.linalg.matrix_power(A.conj().mT @ A, int(order))
    else:
        G = np.stack([abs_power(M, order)
                      for M in A.reshape(-1, *A.shape[-2:])]).reshape(A.shape)
    return np.trace(X @ G, axis1=-2, axis2=-1)


def gamma_constant(x):
    """The normalization constant Gamma(x+1) / (sqrt(pi) * Gamma(x+1/2)).

    Exact values used as anchors: x=0 -> 1/pi, x=1 -> 2/pi, x=3/2 -> 3/4.
    Up to x = 100 it is a ratio of `math.gamma` values whose arguments are
    all exact: above x = 1 it takes Gamma(x+1) = x Gamma(x) and
    Gamma(x+1/2) = (x-1/2) Gamma(x-1/2), since x + 1 and x + 1/2 round
    where they cross a power of two, an error Gamma's slope magnifies
    (to 7e-14 at x = 127.3).  Beyond x = 100 it is the asymptotic series
    sqrt(x/pi) (1 + 1/(8x) + 1/(128x^2) - 5/(1024x^3) - ...), whose seven
    terms leave 1.2e-17 at x = 100, and which stays finite where Gamma
    overflows.
    """
    if not (np.isfinite(x) and x >= 0):
        raise InvalidOrder(f"constant defined for finite x >= 0, got {x}")
    x = float(x)
    if x <= 1.0:
        return math.gamma(x + 1.0) / (math.sqrt(math.pi) * math.gamma(x + 0.5))
    if x <= 100.0:
        return math.gamma(x) / math.gamma(x - 0.5) * (
            x / ((x - 0.5) * math.sqrt(math.pi)))
    u = 1.0 / x
    series = 1.0 + u * (1 / 8 + u * (1 / 128 + u * (-5 / 1024 + u * (
        -21 / 32768 + u * (399 / 262144 + u * (869 / 4194304))))))
    return math.sqrt(x / math.pi) * series
