"""specflow: spectral flow of identity-plus-Schatten unitary paths.

Two independent routes compute the flow of eigenvalues through -1 along
a path of unitaries: an eigenvalue-crossing count with a certified
partition, and a regularized winding one-form integral, written as the
alpha and the beta form; both forms are one quantity computed by two
quadratures, so their agreement checks only the quadrature.  The
log-derivative of a regularized Fredholm determinant,
`sf_det`, is the alpha integral at order n = p - 1 written as the paper
states it, not a further cross-check.  On top of these sit
geodesically capped open paths, the Cayley correspondence with self-adjoint
operators on subspaces, and a scattering-theory application verifying
Levinson's theorem in one and three dimensions.
"""

from . import errors
from .cayley import (
    SubspaceOperator,
    cayley,
    cayley_form_identity,
    cayley_form_identity_beta,
    fp_distance,
    graph_projection,
    inv_cayley,
    resolvent_at,
    resolvent_bound_constant,
    sf_fp_path,
)
from .errors import SpecflowError
from .matcore import (
    abs_power,
    check_unitary,
    eig_unitary,
    gamma_constant,
    principal_log_unitary,
    schatten_norm,
)
from .rdet import (
    DetValue,
    counterterm_exponent,
    det_p,
    det_p_perturbation,
    fredholm_det,
    logderiv_det_p,
    logdet_p_vs_logdet,
    unwind_log,
)
from .sflow import (
    PartitionCertificate,
    SpectralFlowReport,
    sf_alpha,
    sf_beta,
    sf_det,
    sf_open_path,
    sf_phillips,
    theta_endpoint,
    xi_endpoint,
)
from .upath import (
    UnitaryPath,
    cap_into,
    cap_outof,
    compactify,
    concatenate,
    constant_path,
    generator_path,
    geodesic_between,
    model_loop,
)
from . import scatter

__version__ = "0.1.0"

__all__ = [
    "DetValue",
    "PartitionCertificate",
    "SpecflowError",
    "SpectralFlowReport",
    "SubspaceOperator",
    "UnitaryPath",
    "abs_power",
    "cap_into",
    "cap_outof",
    "cayley",
    "cayley_form_identity",
    "cayley_form_identity_beta",
    "check_unitary",
    "compactify",
    "concatenate",
    "constant_path",
    "counterterm_exponent",
    "det_p",
    "det_p_perturbation",
    "eig_unitary",
    "errors",
    "fp_distance",
    "fredholm_det",
    "gamma_constant",
    "generator_path",
    "geodesic_between",
    "graph_projection",
    "inv_cayley",
    "logderiv_det_p",
    "logdet_p_vs_logdet",
    "model_loop",
    "principal_log_unitary",
    "resolvent_at",
    "resolvent_bound_constant",
    "scatter",
    "schatten_norm",
    "sf_alpha",
    "sf_beta",
    "sf_det",
    "sf_fp_path",
    "sf_open_path",
    "sf_phillips",
    "theta_endpoint",
    "unwind_log",
    "xi_endpoint",
]
