"""Exception types shared across the package."""


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

