"""Exception types shared across the package, and the argument checks that raise one.

``check_int`` and ``check_float`` check a number, and ``check_generator``
the generator that a drawing function is given. ``check_array`` converts
an argument to a float64 array, and ``check_matrix`` is the array boundary
of every step kernel and of the posenc checks: it converts a float matrix
argument and checks its 2-D shape, so a kernel states only the sizes it
needs. The caller checks the values.
"""

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


def check_generator(rng: object) -> None:
    """Raise ParameterError unless ``rng`` is a ``np.random.Generator``.

    A seed or a legacy ``RandomState`` would draw other values than the
    generator of the same seed, so neither is accepted.
    """
    if not isinstance(rng, np.random.Generator):
        raise ParameterError(f"rng must be a numpy Generator, got {rng!r:.60}")


def check_array(name: str, value: object) -> np.ndarray:
    """``value`` as a float64 array: an array keeps its memory order, and a
    float64 one is returned as it is. ParameterError when numpy cannot
    convert it (a str, a complex, a ragged list, an int past the float
    range). The caller checks the shape and the values; ``check_matrix``
    checks a 2-D shape as well.
    """
    try:
        return np.asarray(value, dtype=float)  # float64, named the cheapest way
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a float matrix") from None


def check_matrix(name: str, value: object, rows: int | None = None, cols: int | None = None):
    """``value`` as a 2-D float64 array of ``rows`` rows and ``cols`` columns.

    Converts as :func:`check_array` does. ``None`` accepts any number of
    rows or columns. ParameterError when the value does not convert, or when
    its shape is not the expected one: the message names the argument, its
    shape and the expected shape, as in ``v has shape (1, 8), expected
    (B, 4)``, where B stands for any number of rows and d for any number of
    columns.
    """
    m = check_array(name, value)
    if m.ndim != 2 or (rows is not None and m.shape[0] != rows) or (
        cols is not None and m.shape[1] != cols
    ):
        expected = f"({'B' if rows is None else rows}, {'d' if cols is None else cols})"
        raise ParameterError(f"{name} has shape {m.shape}, expected {expected}")
    return m
