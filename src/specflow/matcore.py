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
caps and endpoint integrals) uses `eig_unitary`, whose Schur vectors are
orthonormal even at degeneracies; it calls LAPACK's zgees directly, as
`scipy.linalg.schur` would, without that wrapper's per-call overhead.
`abs_power` is the one kernel of |A|^{2x} = (A*A)^x: the winding-form
trace kernel takes whole powers of A*A with matrix products and reserves
its SVD for fractional orders.
"""

import numpy as np
from scipy.linalg import svd
from scipy.linalg.lapack import get_lapack_funcs
from scipy.special import gammaln

from .errors import DecompositionFailure, InvalidOrder, NonUnitary

UNITARY_TOL = 1e-10
SNAP_TOL = 1e-12

# complex Schur decomposition, and the workspace size that
# scipy.linalg.schur queries, kept per dimension
_ZGEES, = get_lapack_funcs(("gees",), (np.zeros((1, 1), dtype=complex),))
_ZGEES_LWORK = {}


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


def eig_unitary(U):
    """Eigen-decompose a unitary matrix into angles and orthonormal vectors.

    Returns (angles, vectors) with angles in (-pi, pi] sorted increasingly and
    vectors[:, j] the eigenvector for angles[j].  Angles within SNAP_TOL of
    the cut are snapped to +pi (the branch convention for the crossing point).
    A stack (..., dim, dim) returns angles (..., dim) and vectors
    (..., dim, dim), each member exactly as a call on it alone.

    Uses the Schur decomposition, which is exactly unitary for normal
    matrices, so the returned vectors are orthonormal even at degeneracies.
    zgees is called once per matrix as `scipy.linalg.schur(U,
    output="complex")` calls it, with the same workspace, so the output is
    bit-identical; the finite check that schur makes is the one
    `check_unitary` makes here, once for the whole stack.  Raises
    DecompositionFailure if LAPACK reports an error.
    """
    U = check_unitary(U)
    # np.linalg.eig does not guarantee orthonormal vectors at degeneracies;
    # use Schur instead (unitary U is normal, so T is diagonal and its
    # diagonal is the eigenvalue vector w).
    n = U.shape[-1]
    lwork = _ZGEES_LWORK.get(n)
    if lwork is None:
        query = _ZGEES(lambda x: None, np.eye(n, dtype=complex), lwork=-1)
        lwork = _ZGEES_LWORK[n] = int(query[-2][0].real)
    flat = U.reshape(-1, n, n)
    w = np.empty(flat.shape[:-1], dtype=complex)
    # the Schur vectors of each matrix as rows
    rows = np.empty_like(flat)
    for i, M in enumerate(flat):
        _, _, w[i], Z, _, info = _ZGEES(lambda x: None, M, lwork=lwork)
        if info != 0:
            raise DecompositionFailure(
                f"Schur decomposition of a {n}x{n} unitary failed (zgees "
                f"info {info})")
        rows[i] = Z.T
    angles, order = _branch_angles(w)
    member = np.arange(len(flat))[:, None]
    # the transposed view of the sorted rows: each matrix of vectors is
    # Fortran-ordered, as zgees returns it, so products with the vectors
    # round as they do on a single call's output
    return (angles[member, order].reshape(U.shape[:-1]),
            rows[member, order].mT.reshape(U.shape))


def principal_log_unitary(U):
    """Skew-Hermitian principal logarithm Y of a unitary U, with e^Y = U.

    Eigenvalue e^{i theta} maps to i*theta with theta in (-pi, pi]; the
    eigenvalue -1 maps to +i*pi (cut-locus convention).
    """
    angles, vecs = eig_unitary(U)
    Y = (vecs * (1j * angles)) @ vecs.conj().T
    return Y


def schatten_norm(A, p):
    """Schatten p-norm of a matrix: the l^p norm of its singular values.

    p may be any real >= 1 or np.inf (operator norm).
    """
    if p != np.inf and p < 1:
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
    if x < 0:
        raise InvalidOrder(f"negative power {x} not supported (singular A)")
    try:
        _, s, Vh = np.linalg.svd(A)
    except np.linalg.LinAlgError:
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
    Evaluated through log-gamma to stay finite for large x.
    """
    if x < 0:
        raise InvalidOrder(f"constant defined for x >= 0, got {x}")
    return float(np.exp(gammaln(x + 1.0) - gammaln(x + 0.5)) / np.sqrt(np.pi))
