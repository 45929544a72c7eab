"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["InvalidInputError", "UnsupportedSizeError"]


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class UnsupportedSizeError(InvalidInputError):
    """Raised when a problem size exceeds what an exact method supports.

    Callers hitting this should switch to the corresponding asymptotic
    approximation.
    """
