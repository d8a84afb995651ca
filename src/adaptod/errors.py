"""Exception hierarchy shared across the toolkit: one class per exit code of
the command line, which prints f"{kind} error: {message}" and exits with exit_code.
Also check_real, the one check of a setting that must be a real number."""

from numbers import Real


class AdaptOdError(Exception):
    """Base class for all toolkit errors."""
    exit_code: int
    kind: str


class InvalidInputError(AdaptOdError):
    """A bad argument or setting: out of range, non-finite, misshapen or too few samples."""
    exit_code, kind = 2, "config"


class DataError(AdaptOdError):
    """A malformed sample-set or checkpoint file, named by path (and line), or data a
    metric is undefined on, such as scores with no ID sample."""
    exit_code, kind = 3, "data"


class NumericError(AdaptOdError):
    """A value past float64 range: an energy, a mean of exp(logit), or a training
    loss, logit or parameter, whose step the message names."""
    exit_code, kind = 4, "numeric"


def check_real(value, name: str) -> None:
    """InvalidInputError naming name unless value is a real number (a bool is
    not) that converts to a float, so that math.isfinite takes it."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise InvalidInputError(f"{name} is too large for a float") from None
