"""Exception types shared across the package, and the integer check that raises one."""

import numpy as np


class SpikeSeqError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SpikeSeqError):
    """A parameter is out of its documented range or inconsistent."""


class DegenerateInputError(SpikeSeqError):
    """An input (zero vector, empty burst) admits no meaningful result."""


class NoActiveLocationError(SpikeSeqError):
    """A memory read was attempted with no active address-decoder location."""


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
