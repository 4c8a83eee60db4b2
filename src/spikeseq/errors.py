"""Exception types shared across the package, and the number checks that raise one."""

import math

import numpy as np


class SpikeSeqError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SpikeSeqError):
    """A parameter is out of its documented range or inconsistent."""


class DegenerateInputError(SpikeSeqError):
    """An input (zero vector, empty burst) admits no meaningful result."""


class AlphabetError(SpikeSeqError):
    """A symbol index lies outside the codebook alphabet."""


def check_int(name: str, value: object, low: int, high: int | None = None) -> None:
    """Raise ParameterError unless value is an integer in [low, high).

    Python and numpy integers pass; ``bool``, floats and anything else do
    not, even when they compare equal to an integer. ``high`` None leaves
    the range open above.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ParameterError(f"{name} must be at least {low}, got {value}")
    if high is not None and value >= high:
        raise ParameterError(f"{name} must be below {high}, got {value}")


def check_float(
    name: str, value: object, low: float = -math.inf, high: float = math.inf, closed: bool = False
) -> float:
    """``value`` as a float; ParameterError unless it is a Python or numpy
    integer or float in the open interval (low, high), or in the closed
    interval [low, high] when ``closed`` is set, and never NaN or +-inf.

    ``bool`` is not a number here, and an integer past the float range is
    out of every interval.
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    inside = low <= x <= high if closed else low < x < high
    if not (inside and math.isfinite(x)):
        interval = f"[{low}, {high}]" if closed else f"({low}, {high})"
        raise ParameterError(f"{name} must be a finite number in {interval}, got {value!r}")
    return x
