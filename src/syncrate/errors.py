"""Exception types shared across the package."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(EstimationError, ValueError):
    """Malformed argument: unknown symbol, bad distribution, bad file."""


class InvalidParameterError(EstimationError, ValueError):
    """Parameter outside its documented domain."""


class ResourceLimitError(EstimationError):
    """Computation refused because it would exceed a guarded size budget."""


class InsufficientDataError(EstimationError):
    """Stream too short to support the requested statistic."""


class ImpossibleEvolutionError(EstimationError):
    """State distribution pushed onto zero mass by an impossible symbol."""


class NumericError(EstimationError):
    """Numerical routine failed to reach its required residual."""
