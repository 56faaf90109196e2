"""Exception types shared across the package."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(EstimationError, ValueError):
    """Bad argument: a size that is not an integer, a real parameter that is
    not a real number inside its interval (named in the message), a
    probability vector that is not finite, non-negative and summing to 1,
    an unknown symbol, a bad machine or file."""


class ResourceLimitError(EstimationError):
    """Computation refused because it would exceed a guarded size budget."""


class InsufficientDataError(EstimationError):
    """Stream too short to support the requested statistic."""


class ImpossibleEvolutionError(EstimationError):
    """State distribution pushed onto zero mass by an impossible symbol."""


class NumericError(EstimationError):
    """Numerical routine failed to reach its required residual."""
