"""Exception types shared across the package, and the argument checks that
raise them.

``_check_count`` refuses anything but an integer >= ``low``, and <= ``high``
when given: step, item and sample counts, code distances, seeds, indices.
``_check_number`` refuses anything but a real number in [low, below), or
>= ``low`` with no upper bound, when infinity passes: rates, inverse
temperatures, factors.  Neither takes a bool (Python counts True and False
as 1 and 0, a config's JSON true must not) and the number check refuses NaN.
Both raise ``InvalidParameterError`` unless given another class; campaign
configs raise ``ConfigError``.
``_check_anyons`` refuses a syndrome's anyons of one kind unless they are
strictly increasing integer indices into that kind's stabilizers, so a
hand-built ``Syndrome`` never indexes past them or wraps.  The matcher runs
it on every decode, so it tests for plain ints first and falls back to the
``numbers.Integral`` test only when that fails.  Checks of another shape
(open intervals, odd counts) are written where they are used.  A refusal is
one line: an argument whose repr spans several (a numpy array) is shown
with its runs of white space joined.
"""

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


def _is_number(value, kind: type) -> bool:
    """``isinstance(value, kind)`` for a ``numbers`` ABC, but never for a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _shown(value) -> str:
    """``repr(value)`` on one line: numpy wraps an array's repr over several,
    where no scalar's repr holds a newline."""
    text = repr(value)
    return " ".join(text.split()) if "\n" in text else text


def _check_count(name: str, value, low: int, error: type = InvalidParameterError,
                 high: int | None = None) -> None:
    """Refuse a value that is not an integer >= ``low``, or in [low, high]
    when ``high`` is given."""
    if (not _is_number(value, numbers.Integral) or value < low
            or high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {bound}, got {_shown(value)}")


def _check_number(name: str, value, low: float, below: float | None = None,
                  error: type = InvalidParameterError) -> None:
    """Refuse a value that is not a real number in [low, below), or >= ``low``
    when ``below`` is None; NaN fails both comparisons."""
    # a float is tested first: chains check their beta at every restart
    if not ((isinstance(value, float) or _is_number(value, numbers.Real))
            and low <= value and (below is None or value < below)):
        bound = f">= {low}" if below is None else f"in [{low}, {below})"
        raise error(f"{name} must be {bound}, got {_shown(value)}")


def _check_anyons(name: str, anyons, count: int) -> None:
    """Refuse anyons that are not strictly increasing integers in [0, count)."""
    if not ((all(type(a) is int for a in anyons)
             or all(_is_number(a, numbers.Integral) for a in anyons))
            and all(a < b for a, b in zip(anyons, anyons[1:]))
            and (not anyons or 0 <= anyons[0] and anyons[-1] < count)):
        raise InvalidParameterError(
            f"{name} must be strictly increasing integers in [0, {count}), got {_shown(anyons)}"
        )
