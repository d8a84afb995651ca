"""Exception hierarchy shared across the toolkit."""


class AdaptOdError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(AdaptOdError):
    """An argument violates a documented precondition (non-finite values, bad range, ...)."""


class ShapeError(AdaptOdError):
    """Dimension mismatch between related inputs."""


class InsufficientDataError(AdaptOdError):
    """Too few samples to compute the requested quantity."""


class EnergyOverflowError(AdaptOdError):
    """A linear-scale energy value is not representable in float64."""


class UndefinedMetricError(AdaptOdError):
    """A metric is undefined for the given inputs (e.g. no positives)."""


class TrainingDivergedError(AdaptOdError):
    """Training produced a non-finite loss or parameter; the message names the step."""


class LogitFileError(AdaptOdError):
    """Malformed sample-set or checkpoint file; the message names the path and,
    for a sample-set file, the 1-based line."""


class ConfigError(AdaptOdError):
    """Invalid run configuration."""
