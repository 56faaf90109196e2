"""Exception types shared across the package."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(EstimationError, ValueError):
    """Bad argument: a parameter outside its documented domain, a size that
    is not an integer, an unknown symbol, a bad distribution or file."""


class ResourceLimitError(EstimationError):
    """Computation refused because it would exceed a guarded size budget."""


class InsufficientDataError(EstimationError):
    """Stream too short to support the requested statistic."""


class ImpossibleEvolutionError(EstimationError):
    """State distribution pushed onto zero mass by an impossible symbol."""


class NumericError(EstimationError):
    """Numerical routine failed to reach its required residual."""
