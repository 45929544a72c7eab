"""Exception types, and the argument checks shared across the package.

A check takes a value and its argument's name, and returns the value in
its canonical type or raises InvalidInputError naming that argument.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from functools import partial

import numpy as np

__all__ = ["InvalidInputError", "UnsupportedSizeError"]


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class UnsupportedSizeError(InvalidInputError):
    """Raised when a problem size exceeds what an exact method supports.

    Callers hitting this should switch to the corresponding asymptotic
    approximation.
    """


def _integer(value, name: str) -> int:
    """value as an int if it is an integer (not a bool); a float is not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _boolean(value, name: str) -> bool:
    """value as a bool if it is one (a Python or numpy bool, not 0, 1 or "no")."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def _number(value, name: str) -> float:
    """value as a float if it is a finite real number (not a bool or a string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return float(value)


def _frozen(value, name: str, ndim: int) -> np.ndarray:
    """A read-only float copy of value in ndim (1 or 2) dims if it holds finite numbers.

    This is the package's one check of an array argument. A value of
    fewer dimensions is widened as np.atleast_1d/np.atleast_2d widen it,
    so at ndim 1 a number is a 1-d array of one value; a value of more
    dimensions is refused rather than flattened. Strings, bools, complex
    numbers, other objects and ragged nested lists are refused rather than
    cast, and so are an empty array and one holding NaN or an infinity.
    The copy keeps value's memory layout, so reductions over it round as
    they would over value.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:  # a ragged nested list
        raise InvalidInputError(f"{name} must be a rectangular array of numbers") from exc
    if array.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must hold real numbers, got dtype {array.dtype}")
    if array.ndim > ndim:
        raise InvalidInputError(
            f"{name} must be a number or a {ndim}-d array, got shape {array.shape}"
        )
    array = np.array(array, dtype=float, ndmin=ndim)
    if array.size == 0:
        raise InvalidInputError(f"{name} must not be empty, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise InvalidInputError(f"{name} must be finite")
    array.flags.writeable = False
    return array


_matrix = partial(_frozen, ndim=2)  # a matrix argument or field
_vector = partial(_frozen, ndim=1)  # a vector argument or field


def _within(low, high, ends: str = "[]", check=_number, text: str | None = None):
    """Check of a value that passes `check` and lies between low and high.

    ends holds "(" or "[" and ")" or "]", whether each end is open or
    closed; text, when set, is the interval as messages show it.
    """
    open_low, open_high = ends[0] == "(", ends[1] == ")"

    def parse(value, name: str):
        value = check(value, name)
        if (value <= low if open_low else value < low) or (
            value >= high if open_high else value > high
        ):
            interval = text or f"{ends[0]}{low}, {high}{ends[1]}"
            raise InvalidInputError(f"{name} must lie in {interval}, got {value}")
        return value

    return parse


_count = _within(1, math.inf, "[)", _integer)  # a size or a count


def _list(check, empty: bool = False):
    """Check of a list or tuple (not a string) of items passing `check`, nonempty unless `empty`."""
    kind = "list" if empty else "nonempty list"

    def parse(value, name: str) -> tuple:
        if not isinstance(value, (list, tuple)) or not (value or empty):
            raise InvalidInputError(f"{name} must be a {kind}, got {value!r}")
        return tuple(check(item, name) for item in value)

    return parse


def _groups(value, name: str) -> tuple[int, ...]:
    """value as a tuple of ints if it lists two or more group sizes >= 1."""
    sizes = _list(_count)(value, name)
    if len(sizes) < 2:
        raise InvalidInputError(f"{name} must list at least 2 groups, got {value!r}")
    return sizes


def _member(kind):
    """Check of a member of the str enum `kind`, given as itself or its value."""
    choices = [m.value for m in kind]

    def parse(value, name: str):
        if value not in choices:
            raise InvalidInputError(f"{name} must be one of {choices}, got {value!r}")
        return kind(value)

    return parse


def _optional(check):
    """Check of None or of a value that passes `check`."""
    return lambda value, name: None if value is None else check(value, name)


def _record(kind):
    """Check of an instance of the record type `kind`, a subclass's included."""

    def parse(value, name: str):
        if not isinstance(value, kind):
            raise InvalidInputError(f"{name} must be a {kind.__name__}, got {value!r}")
        return value

    return parse


def _path(value, name: str) -> str:
    """value as a str path if it is a str or an os.PathLike naming one.

    An int is refused rather than opened as a file descriptor, which the
    caller's `with open(...)` would then close; bytes and None are refused
    too.
    """
    path = os.fspath(value) if isinstance(value, os.PathLike) else value
    if not isinstance(path, str):
        raise InvalidInputError(f"{name} must be a str or os.PathLike path, got {value!r}")
    return path


def _check_fields(obj, **checks) -> None:
    """Replace each named field of a frozen dataclass by its checked value.

    This and `_trusted` are the only code that sets a record's fields.
    """
    for name, check in checks.items():
        object.__setattr__(obj, name, check(getattr(obj, name), name))


def _trusted(cls, fields: dict):
    """A cls record of already checked field values, not checked again."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record
