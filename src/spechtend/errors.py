"""Error types shared across the package."""
from __future__ import annotations


class InvalidParameter(ValueError):
    """A parameter is out of range or malformed."""


class DegreeMismatch(InvalidParameter):
    """Row and column margins do not sum to the same degree."""


class CapExceeded(RuntimeError):
    """A configured memory or table-count budget would be exceeded."""


class ParityError(InvalidParameter):
    """The staircase family violates the parity condition."""


class VerificationError(AssertionError):
    """A checked mathematical assertion failed."""


class InternalError(VerificationError):
    """An internal invariant of the package broke: a bug, not a failed claim."""
