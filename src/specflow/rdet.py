"""Fredholm determinants, higher-order regularized determinants, and their
log-derivatives along unitary paths.

For a unitary U = Id + A the plain determinant Det(Id + A) is the product of
the eigenvalues of U.  The order-p determinant multiplies in the exponential
counterterm exp(sum_{l=1}^{p-1} ((-1)^l / l) (U - Id)^l), which cancels the
first p-1 terms of the log expansion and keeps the product convergent for
p-summable perturbations; at finite dimension the counterterm is what makes
the p-determinant's winding match the order-(p-1) regularized winding
integrals.  All logs use the principal branch (imaginary part in (-pi, pi]).

Since Det(e^X) = e^{Tr X}, Det_p(Id + K) = Det(Id + K) exp(sum_{l<p}
((-1)^l / l) Tr K^l): one LU factorization and p - 2 matrix products, no
spectrum.  `_det_p_lu` is that kernel; `det_p` (Id + K = U) and the
Birman-Schwinger determinant of `scatter.onedim` both call it.
`fredholm_det` and `det_p_perturbation` stay products over eigenvalues, so
they are the references the LU kernel is tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matcore import check_order, check_unitary, form_trace


@dataclass
class DetValue:
    value: complex
    log_value: complex  # principal branch: Im in (-pi, pi]

    def __complex__(self):
        return complex(self.value)


def _pack(factors):
    """DetValue from the multiset of eigenvalues whose product is the det."""
    factors = np.asarray(factors, dtype=complex)
    value = complex(np.prod(factors)) if len(factors) else 1.0 + 0j
    mag = abs(value)
    log_value = complex(np.log(mag), np.angle(value)) if mag > 0 else complex(
        -np.inf, 0.0)
    return DetValue(value=complex(value), log_value=log_value)


def counterterm_series(x, p):
    """sum_{l=1}^{p-1} ((-1)^l / l) x^l, elementwise over the array x.

    The per-eigenvalue exponent of the order-p counterterm: x = z - 1 for
    an eigenvalue z of a unitary, x = lam for an eigenvalue of a
    perturbation A.
    """
    x = np.asarray(x, dtype=complex)
    w = np.zeros_like(x)
    for ell in range(1, p):
        w = w + (-1) ** ell / ell * x ** ell
    return w


def fredholm_det(A):
    """Det(Id + A) as the product of (1 + eigenvalues of A)."""
    A = np.asarray(A, dtype=complex)
    lam = np.linalg.eigvals(A)
    return _pack(1.0 + lam)


def det_p_perturbation(A, p):
    """Det_p(Id + A) for an arbitrary (not necessarily normal) matrix A.

    Det_p(Id + A) = prod_i (1 + lam_i) exp(sum_{l=1}^{p-1} (-1)^l lam_i^l / l)
    over the eigenvalues lam_i of A; p = 1 recovers the plain Fredholm
    determinant.  This is the form used for discretized integral operators,
    where A is a quadrature matrix rather than a unitary defect.
    """
    p = check_order("p", p, 1, integer=True)
    lam = np.linalg.eigvals(np.asarray(A, dtype=complex))
    return _pack((1.0 + lam) * np.exp(counterterm_series(lam, p)))


def _trace_series(K, p):
    """sum_{l=1}^{p-1} ((-1)^l / l) Tr K^l from p - 2 matrix products."""
    total = 0.0 + 0j
    power = K
    for ell in range(1, p):
        if ell > 1:
            power = power @ K
        total += (-1) ** ell / ell * np.trace(power)
    return total


def counterterm_exponent(U, p):
    """sum_{l=1}^{p-1} ((-1)^l / l) Tr((U - Id)^l).

    Formed from matrix powers rather than eigenvalues, so the reduced
    formula Det(U) exp(counterterm_exponent(U, p)) with an eigenvalue
    `fredholm_det` checks `det_p` independently of its LU determinant.
    """
    U = np.asarray(U, dtype=complex)
    p = check_order("p", p, 1, integer=True)
    return _trace_series(U - np.eye(U.shape[0]), p)


def _det_p_lu(M, K, p):
    """Det_p(M) for M = Id + K from one LU factorization of M and the trace
    powers of K; the caller passes both, so M is factored as given rather
    than re-formed as Id + K.

    Log Det_p(M) = log Det(M) + sum_{l<p} ((-1)^l / l) Tr K^l, the first
    term from `np.linalg.slogdet`.  The imaginary part of the sum is
    wrapped into (-pi, pi] and the value is its exponential.  The caller
    has checked the integer order p >= 1.
    """
    sign, logabs = np.linalg.slogdet(M)
    log_value = complex(logabs, np.angle(sign)) + _trace_series(K, p)
    phase = math.remainder(log_value.imag, 2.0 * np.pi)
    if phase <= -np.pi:
        phase += 2.0 * np.pi
    log_value = complex(log_value.real, phase)
    return DetValue(value=complex(np.exp(log_value)), log_value=log_value)


def det_p(U, p):
    """The order-p regularized determinant of a unitary U.

    Det_p(U) = Det(U exp(sum_{l=1}^{p-1} ((-1)^l / l)(U - Id)^l))
             = Det(U) exp(sum_{l=1}^{p-1} ((-1)^l / l) Tr (U - Id)^l),
    since Det(e^X) = e^{Tr X}.  U is checked once and `_det_p_lu` takes
    Det(U) from an LU factorization of U itself, with U - Id formed for
    the trace series only, so no eigenvalues are computed.  The
    eigenvalue products `fredholm_det` and `det_p_perturbation` are the
    references it is tested against.
    """
    U = check_unitary(U)
    p = check_order("p", p, 1, integer=True)
    return _det_p_lu(U, U - np.eye(U.shape[0]), p)


def _logdet_sides(U, Ud, p):
    """Both sides of the Det_p log-derivative identity at one sample U_t
    and its derivative U'_t, for an order p the caller has checked:
      lhs = (-1)^{p-1} Tr(U* U' (U - Id)^{p-1})  (trace identity),
      rhs = Tr(U* U') + sum_{l=1}^{p-1} (-1)^l Tr(U' (U - Id)^{l-1}).
    """
    X = U.conj().T @ Ud
    lhs = complex((-1) ** (p - 1) * form_trace(X, U, "n", p - 1))
    rhs = complex(np.trace(X))
    B = U - np.eye(U.shape[0])
    M = np.eye(U.shape[0], dtype=complex)
    for ell in range(1, p):
        rhs += (-1) ** ell * complex(np.trace(Ud @ M))
        M = M @ B
    return lhs, rhs


def logderiv_det_p(path, t, p):
    """d/dt Log Det_p(U_t) evaluated through the trace identity.

    Equals Tr(U* U' (Id - U)^{p-1}) = (-1)^{p-1} Tr(U* U' (U - Id)^{p-1}),
    the alpha winding integrand at n = p - 1; for p = 1 this is the
    classical winding integrand Tr(U* U').
    """
    p = check_order("p", p, 1, integer=True)
    return _logdet_sides(path(t), path.derivative(t), p)[0]


def logdet_p_vs_logdet(path, t, p):
    """Both sides of the relation between the Det_p and Det log-derivatives.

    Returns (lhs, rhs) with
      lhs = d/dt Log Det_p(U_t)  (trace identity),
      rhs = d/dt Log Det(U_t) + d/dt [counterterm exponent]
          = Tr(U* U') + sum_{l=1}^{p-1} (-1)^l Tr(U' (U - Id)^{l-1}).
    Both sides are formed from one sample of U_t and U'_t.  The caller
    asserts lhs == rhs.
    """
    p = check_order("p", p, 1, integer=True)
    return _logdet_sides(path(t), path.derivative(t), p)


def unwind_log(values):
    """Continuity-unwound logarithms of a sequence of nonzero complex values.

    The first entry uses the principal branch; each subsequent imaginary part
    is shifted by the multiple of 2 pi that makes the sequence continuous.
    Accepts complex values or DetValue instances.
    """
    out = []
    prev = None
    for v in values:
        z = complex(v)
        lg = complex(np.log(abs(z)), np.angle(z))
        if prev is not None:
            k = np.round((prev.imag - lg.imag) / (2.0 * np.pi))
            lg = complex(lg.real, lg.imag + 2.0 * np.pi * k)
        out.append(lg)
        prev = lg
    return out
