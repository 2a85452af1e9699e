"""Exception types shared across the package, and the integer check that raises one."""

import numbers


class InvalidParameterError(ValueError):
    """A parameter is outside the domain an operation is defined on."""


class InfeasibleMatchingError(RuntimeError):
    """The matching problem admits no perfect matching."""


class InconsistentHypothesisError(ValueError):
    """A spacetime hypothesis does not reproduce the observed measurement record."""


class InvalidMoveError(ValueError):
    """A deformation move was requested at a time-boundary slice."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


class DecoderInternalError(RuntimeError):
    """A decoder invariant (syndrome/class conservation) was violated."""


def _check_count(name: str, value, low: int) -> None:
    """Refuse a step or item count that is not an integer >= ``low``."""
    if not isinstance(value, numbers.Integral) or value < low:
        raise InvalidParameterError(f"{name} must be an integer >= {low}, got {value!r}")
