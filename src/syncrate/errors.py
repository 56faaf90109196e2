"""Exception types shared across the package."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(EstimationError, ValueError):
    """Bad argument: a size that is not an integer, a real parameter that is
    not a real number inside its interval (named in the message), a
    probability vector that is not finite, non-negative and summing to 1,
    an unknown symbol, a bad machine or file, a word of zero probability,
    or a size that would exceed a guarded budget (the message names the
    argument to change)."""


class InsufficientDataError(EstimationError):
    """Stream too short to support the requested statistic."""
