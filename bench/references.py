"""Reference answers computed without specflow.

Each rule uses only numpy/scipy and the raw input description (depths,
segments, eigen-data), never a specflow object, so an answer that agrees
with it is checked by an independent route.
"""

import numpy as np
from scipy.special import spherical_jn


def bound_states_3d_square_well(depth, radius):
    """N = sum_l (2l+1) N_l for a 3D square well, by the Bessel-zero rule.

    With kappa = sqrt(depth) * radius, channel l holds one bound state for
    each zero of j_{l-1} in (0, kappa), where j_{-1}(x) = cos(x)/x has its
    zeros at (n + 1/2) pi.  Zeros of j_n move right as n grows, so the scan
    stops at the first empty channel.
    """
    kappa = np.sqrt(depth) * radius
    total = int(np.floor(kappa / np.pi + 0.5)) if kappa > np.pi / 2 else 0
    x = np.linspace(1e-6, kappa, 200001)
    ell = 1
    while True:
        j = spherical_jn(ell - 1, x)
        zeros = int(np.sum(np.sign(j[:-1]) * np.sign(j[1:]) < 0))
        if zeros == 0:
            return total
        total += (2 * ell + 1) * zeros
        ell += 1


def bound_states_1d_square_well(depth, halfwidth):
    """N = ceil(2 sqrt(depth) a / pi) for a 1D well of halfwidth a."""
    return int(np.ceil(2.0 * np.sqrt(depth) * halfwidth / np.pi))


def _piecewise_values(segments, x):
    out = np.zeros_like(x)
    for x0, x1, v in segments:
        out[(x >= x0) & (x < x1)] = v
    return out


def _negative_eigenvalue_count(diag, off):
    """Sturm count: negative pivots of the LDL^T factorization of the
    symmetric tridiagonal matrix (diag, off) equal its negative eigenvalues."""
    diag = diag.tolist()
    off2 = (off * off).tolist()
    d = diag[0]
    count = int(d < 0)
    for a, b2 in zip(diag[1:], off2):
        d = a - b2 / (d if d != 0.0 else 1e-300)
        count += d < 0
    return count


def bound_states_1d_fd(segments, box_halfwidth=30.0, h=0.004):
    """Bound states of -d^2/dx^2 + V for a piecewise-constant V.

    Counts negative eigenvalues of the Dirichlet finite-difference operator
    on [-L, L] at step h and at h/2; the two counts must agree.
    """
    counts = []
    for step in (h, h / 2.0):
        n = int(round(2.0 * box_halfwidth / step)) - 1
        x = -box_halfwidth + step * np.arange(1, n + 1)
        diag = 2.0 / step ** 2 + _piecewise_values(segments, x)
        off = np.full(n - 1, -1.0 / step ** 2)
        counts.append(_negative_eigenvalue_count(diag, off))
    if counts[0] != counts[1]:
        raise ValueError(f"finite-difference count not converged: {counts}")
    return counts[0]


def open_generator_flow(thetas):
    """Flow through -1 of t -> diag(e^{i theta_j t}), t in [0, 1].

    Each angle crosses pi + 2 pi k (k >= 0) once in its direction of motion:
    sum_j sign(theta_j) floor((|theta_j| + pi) / 2 pi).
    """
    thetas = np.asarray(thetas, dtype=float)
    return int(np.sum(np.sign(thetas)
                      * np.floor((np.abs(thetas) + np.pi) / (2.0 * np.pi))))
