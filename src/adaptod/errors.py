"""Exception hierarchy shared across the toolkit: one class per exit code of
the command line, which prints f"{kind} error: {message}" and exits with exit_code.
Also the one vocabulary of setting checks: check_int and check_real, with the
shared rules of check_real."""

import math
from numbers import Integral, Real


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


def check_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as an int; InvalidInputError naming name and value unless it is an
    integer (a bool is not) >= lo, and <= hi if hi is given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if hi is None and value < lo:
        raise InvalidInputError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and not lo <= value <= hi:
        raise InvalidInputError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return int(value)


# Rules of check_real: a predicate of float(value), and what it asks in words.
FINITE = (math.isfinite, "be finite")
POSITIVE = (lambda v: 0.0 < v < math.inf, "be finite and positive")
UNIT = (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")


def check_real(value, name: str, rule=None):
    """value, checked; InvalidInputError naming name unless it is a real number (a
    bool is not) that converts to a float, and, if a rule (predicate, text) is
    given, one whose float the predicate holds for: "<name> must <text>, got <value>"."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise InvalidInputError(f"{name} is too large for a float") from None
    if rule is not None and not rule[0](number):
        raise InvalidInputError(f"{name} must {rule[1]}, got {value}")
    return value
