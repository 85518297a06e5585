"""Self-adjoint operators on subspaces and their unitary counterparts.

A unitary U corresponds to the operator T = i (U + Id)(U - Id)^{-1} densely
defined on V = range(U - Id); eigenvalue e^{i theta} of U maps to
cot(theta/2) of T.  T is unbounded in spirit (huge eigenvalues for angles
near zero), so the stored carrier is the resolvent R = (T - i)^{-1} P_V,
which satisfies the exact algebraic identity R = -(i/2)(U - Id) and is
bounded by 1.  The pair (P_V, R) determines everything: the inverse map is
U = Id + 2iR, the graph projection has closed-form blocks in R, and the
natural metric between two operators is the Schatten norm of the resolvent
difference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidOrder, SpecflowError
from .matcore import (abs_power, check_order, check_unitary, eig_unitary,
                      form_trace, gamma_constant, schatten_norm)

ANGLE_TOL = 1e-9
RESOLVENT_TOL = 1e-10


@dataclass
class SubspaceOperator:
    """A self-adjoint operator on a closed subspace of C^n.

    projection : P_V, the orthogonal projection onto the domain subspace V.
    resolvent : R = (T - i)^{-1} P_V, supported on V (R P_V = P_V R = R)
        and extended by zero on the orthogonal complement.
    """

    ambient_dim: int
    projection: np.ndarray
    resolvent: np.ndarray

    def validate(self):
        P, R = self.projection, self.resolvent
        if P.shape != (self.ambient_dim, self.ambient_dim) or P.shape != R.shape:
            raise DimensionMismatch(f"shapes {P.shape}, {R.shape} vs ambient "
                                    f"{self.ambient_dim}")
        if np.linalg.norm(P @ P - P, ord=2) > 1e-12 \
                or np.linalg.norm(P - P.conj().T, ord=2) > 1e-12:
            raise SpecflowError("projection is not an orthogonal projection")
        if np.linalg.norm(R @ P - R, ord=2) > RESOLVENT_TOL \
                or np.linalg.norm(P @ R - R, ord=2) > RESOLVENT_TOL:
            raise SpecflowError("resolvent not supported on the subspace")
        # (T - i)^{-1} of a self-adjoint T satisfies R - R* = 2i R* R
        defect = R - R.conj().T - 2j * R.conj().T @ R
        if np.linalg.norm(defect, ord=2) > RESOLVENT_TOL:
            raise SpecflowError("resolvent does not come from a self-adjoint "
                                "operator")
        return self

    def subspace_dim(self):
        return int(np.round(np.real(np.trace(self.projection))))

    def eigenvalues(self):
        """Eigenvalues of T on V (real, sorted).

        Recovered from the resolvent spectrum: rho != 0 of R on V gives
        T-eigenvalue i + 1/rho.
        """
        if self.subspace_dim() == 0:
            return np.array([])
        # restrict R to V via an orthonormal basis of the projection range
        w, Q = np.linalg.eigh(self.projection)
        basis = Q[:, w > 0.5]
        Rv = basis.conj().T @ self.resolvent @ basis
        rho = np.linalg.eigvals(Rv)
        vals = np.real(1j + 1.0 / rho)
        return np.sort(vals)


def cayley(U):
    """The self-adjoint operator on range(U - Id) corresponding to U.

    Eigenvectors of U with angle within ANGLE_TOL of zero span the
    excluded kernel; the remaining eigenvectors span V.  U = Id gives the
    zero operator on the zero subspace.  `eig_unitary` checks that U is
    unitary.
    """
    angles, vecs = eig_unitary(U)
    n = vecs.shape[0]
    active = np.abs(angles) > ANGLE_TOL
    Va = vecs[:, active]
    P = Va @ Va.conj().T
    # R = -(i/2)(U - Id) compressed to V; eigenvalue sin(theta/2) e^{i theta/2}
    rho = -0.5j * (np.exp(1j * angles[active]) - 1.0)
    R = (Va * rho) @ Va.conj().T
    return SubspaceOperator(ambient_dim=n, projection=P, resolvent=R)


def inv_cayley(op):
    """The unitary Id + 2iR determined by a SubspaceOperator."""
    U = np.eye(op.ambient_dim) + 2j * op.resolvent
    return check_unitary(U, tol=1e-8)


def graph_projection(op):
    """Orthogonal projection onto the graph of T inside C^n + C^n.

    Blocks [[A, B], [B, Id - A]] with A = (Id + T^2)^{-1} P_V = R R* and
    B = T (Id + T^2)^{-1} P_V = (P_V + iR) R*, assembled from the resolvent
    so that no large T-eigenvalue is ever formed.  The complement of V
    contributes the 0 + Id block (graph of the nowhere-defined zero piece).
    """
    P, R = op.projection, op.resolvent
    n = op.ambient_dim
    Rs = R.conj().T
    A = R @ Rs
    B = (P + 1j * R) @ Rs
    top = np.hstack([A, B])
    bot = np.hstack([B.conj().T, np.eye(n) - A])
    return np.vstack([top, bot])


def fp_distance(op1, op2, p):
    """Schatten p-norm of the difference of the extended resolvents.

    Through R = -(i/2)(U - Id) this equals half the Schatten distance of the
    corresponding unitaries.
    """
    if op1.ambient_dim != op2.ambient_dim:
        raise DimensionMismatch(f"ambient {op1.ambient_dim} vs {op2.ambient_dim}")
    return schatten_norm(op1.resolvent - op2.resolvent, p)


def resolvent_at(op, lam):
    """(T - lam)^{-1} P_V for lam off the real axis, from the stored R.

    Uses (T - lam)^{-1} = (Id_V - (lam - i) R)^{-1} R on V; the inversion is
    done on the full space with Id on the complement, which leaves the
    support unchanged.
    """
    if np.imag(lam) == 0:
        raise InvalidOrder(f"resolvent point must be non-real, got {lam}")
    P, R = op.projection, op.resolvent
    n = op.ambient_dim
    M = np.eye(n) + P @ (-(lam - 1j) * R) @ P
    # M acts as Id on the complement and Id_V - (lam - i)R on V
    return np.linalg.solve(M, R)


def resolvent_bound_constant(lam):
    """The factor |(i + lam)/(i - lam)^2| in the resolvent-difference bound."""
    lam = complex(lam)
    return abs((1j + lam) / (1j - lam) ** 2)


def cayley_form_identity(U, X, n):
    """Both sides of the order-n winding-form correspondence.

    Returns (subspace side, full side):
      C_{n/2} (1/2i) Tr_V(X (C(U) - i)^{-n})  and
      C_{n/2} (1/2i)^{n+1} Tr(X (U - Id)^n).
    They agree because (C(U) - i)^{-1} = (1/2i)(U - Id) on V and the powers
    vanish on the complement.
    """
    n = check_order("n", n, 1, integer=True)
    U = np.asarray(U, dtype=complex)
    X = np.asarray(X, dtype=complex)
    op = cayley(U)
    const = gamma_constant(n / 2.0)
    half_i = 1.0 / 2j
    lhs = const * half_i * np.trace(X @ np.linalg.matrix_power(op.resolvent, n))
    rhs = const * half_i ** (n + 1) * form_trace(X, U, "n", n)
    return complex(lhs), complex(rhs)


def cayley_form_identity_beta(U, X, r):
    """Both sides of the order-r absolute-value-form correspondence.

    Returns (subspace side, full side):
      -C_r (1/2) Tr_V(X |C(U) - i|^{-2r})  and
      -C_r (1/2)^{2r+1} Tr(X |U - Id|^{2r}).
    """
    r = check_order("r", r, 0)
    U = np.asarray(U, dtype=complex)
    X = np.asarray(X, dtype=complex)
    op = cayley(U)
    const = -gamma_constant(r)
    lhs = const * 0.5 * np.trace(X @ abs_power(op.resolvent, r))
    rhs = const * 0.5 ** (2 * r + 1) * form_trace(X, U, "r", r)
    return complex(lhs), complex(rhs)


def sf_fp_path(op_sampler):
    """Spectral flow of a family t -> op_sampler(t), t in [0, 1], of
    SubspaceOperators: the crossing count of its unitary path.

    The family is pushed through the inverse transform to a unitary path
    and counted by `sflow.sf_phillips`.  Moving domains are allowed; the
    unitary path is what must be continuous.
    """
    from .sflow import sf_phillips
    from .upath import UnitaryPath

    return sf_phillips(UnitaryPath(lambda t: inv_cayley(op_sampler(t)),
                                   check=False))
