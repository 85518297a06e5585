"""Exception hierarchy for specflow.

All library errors derive from SpecflowError so callers can catch the whole
family.  The leaf classes mirror the failure modes of the numerical engines:
bad inputs (NonUnitary, InvalidOrder, ...), geometric preconditions that do
not hold (NotClosed, EndpointMismatch, CapMismatch), and computations that
ran but could not certify their result (PartitionFailure, NonConvergent,
OracleDisagreement, ...).
"""


class SpecflowError(Exception):
    """Base class for all specflow errors."""


class NonUnitary(SpecflowError):
    """A matrix that must be unitary fails the unitarity check."""


class InvalidOrder(SpecflowError):
    """An order parameter (n, r, p) is outside its admissible range."""


class DimensionTooSmall(SpecflowError):
    """Matrix dimension too small for the requested construction."""


class DimensionMismatch(SpecflowError):
    """Operands have incompatible shapes."""


class OutsideInterval(SpecflowError):
    """A parameter value lies outside the path's domain."""


class NoLimitAtInfinity(SpecflowError):
    """An unbounded path does not settle down at the far end."""


class EndpointMismatch(SpecflowError):
    """Concatenation endpoints do not agree within tolerance."""


class NotClosed(SpecflowError):
    """A loop computation was requested for a path that is not closed."""


class CapMismatch(SpecflowError):
    """A geodesic cap does not land on the path endpoint it should cap."""


class PartitionFailure(SpecflowError):
    """No admissible crossing-count partition found at maximum refinement."""


class NonConvergent(SpecflowError):
    """A quantity that must round to an integer is too far from one."""


class IntegrationFailure(SpecflowError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class QuadratureNotConverged(SpecflowError):
    """Grid refinement of a discretized operator did not stabilize."""


class EnergyNonpositive(SpecflowError):
    """A scattering energy that must be positive is not."""


class UnsupportedDimension(SpecflowError):
    """The requested space dimension is not supported by this operation."""


class RouteDisagreement(SpecflowError):
    """Independent computational routes disagree beyond tolerance."""


class OracleDisagreement(SpecflowError):
    """Two independent oracles for the same quantity disagree."""


class Inconclusive(SpecflowError):
    """A detector landed in its dead band and refuses to answer."""


class DecompositionFailure(SpecflowError):
    """A matrix factorization did not converge with any available driver."""


class InvalidGrid(SpecflowError):
    """A grid option is unknown or not used by the requested route."""
