"""Curve containers and per-occasion ranking.

The first stage of a doubly ranked test assigns, at every measurement
occasion, ranks across subjects while ignoring group membership. Ties get
mid-ranks (the average of the integer ranks they span), so ranks are stored
as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, _frozen

__all__ = ["CurveSet", "RankCurves", "rank_curves"]


@dataclass(frozen=True)
class CurveSet:
    """A sample of n curves observed on a shared grid of S occasions.

    values
        n x S matrix; row i is subject i's curve.
    grid
        strictly increasing measurement locations, length S.
    groups
        integer label per subject; labels must be exactly 1..G with every
        label present and G >= 2.

    Each array is kept as a read-only float copy.
    """

    values: np.ndarray
    grid: np.ndarray
    groups: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = _frozen(self.values, "values", 2)
        grid = _frozen(self.grid, "grid", 1)
        groups = _frozen(self.groups, "groups", 1)

        n, s = values.shape
        if n < 2:
            raise InvalidInputError(f"need at least 2 subjects, got {n}")
        if s < 1:
            raise InvalidInputError("need at least 1 measurement occasion")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("curve values must all be finite")
        if grid.shape != (s,):
            raise InvalidInputError(
                f"grid length {grid.size} does not match {s} value columns"
            )
        if not np.all(np.isfinite(grid)):
            raise InvalidInputError("grid values must be finite")
        if s > 1 and not np.all(np.diff(grid) > 0):
            raise InvalidInputError("grid must be strictly increasing")
        if groups.shape != (n,):
            raise InvalidInputError(
                f"got {groups.size} group labels for {n} subjects"
            )
        # sized by the distinct labels, not by their values
        present = np.unique(groups)
        if present.size < 2 or not np.array_equal(present, np.arange(1, present.size + 1)):
            raise InvalidInputError(
                "group labels must be integers 1..G with G >= 2 and every "
                f"label present; saw {present.tolist()}"
            )
        for name, array in (("values", values), ("grid", grid), ("groups", groups)):
            object.__setattr__(self, name, array)

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    @property
    def n_groups(self) -> int:
        return int(self.groups.max())

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(
            int(np.sum(self.groups == g)) for g in range(1, self.n_groups + 1)
        )


@dataclass(frozen=True)
class RankCurves:
    """Per-occasion mid-ranks of a curve set: one rank curve per subject.

    ranks must be a nonempty n x S matrix of mid-ranks: each column is a
    mid-rank assignment of {1..n} (tied entries share the mean of the
    ranks they span). That holds exactly when ranking each column leaves
    the matrix unchanged, which is the check made: a matrix with an entry
    that is not finite, lies outside [1, n] or breaks a column's mid-ranks
    is refused.
    """

    ranks: np.ndarray

    def __post_init__(self) -> None:
        ranks = _frozen(self.ranks, "ranks", 2)
        if ranks.size == 0:
            raise InvalidInputError(f"ranks must not be empty, got shape {ranks.shape}")
        if not np.array_equal(_midranks(ranks, axis=0), ranks):
            raise InvalidInputError(
                "ranks must be mid-ranks of each column, a matrix that ranking leaves unchanged"
            )
        object.__setattr__(self, "ranks", ranks)


def _group_labels(sizes) -> np.ndarray:
    """Labels 1..G for subjects stored group by group with these sizes."""
    return np.repeat(np.arange(1, len(sizes) + 1), sizes)


# Tie-free rank rows are kept for blocks of at most this many values (1 MiB
# of float64), so the 16 kept shapes hold at most 16 MiB
_KEEP_MAX = 1 << 17


@lru_cache(maxsize=16)
def _tie_free_ranks(rows: int, n: int) -> np.ndarray:
    """The ranks 1..n of each of rows tie-free rows, flat; read-only.

    The cache keeps one array per block shape for the process's lifetime.
    Built inside a shape's first block, it also pins the top of the C heap:
    without a long-lived allocation there, the allocator hands each block's
    freed scratch back to the system and the next block faults it in again
    (about 240 minor page faults per power_pool pass, against none with it).
    """
    ranks = np.tile(np.arange(1.0, n + 1.0), rows)
    ranks.flags.writeable = False
    return ranks


def _midranks(values: np.ndarray, axis: int) -> np.ndarray:
    """Mid-ranks of values along axis: tied values share their mean rank.

    The ranked axis is swapped last and copied into a contiguous
    (rows, n) block, which is sorted once; its sort order, offset by each
    row's start, holds flat indices that gather the sorted values and
    scatter the ranks back. Each sorted position gets rank k + 1 when no
    row has equal neighbours, else one plus the mean of the first and last
    positions of its run of equal values. Mid-ranks are exact
    half-integers, so any correct algorithm gives the same bits as scipy's
    average-method ranking. The result is a view in the memory layout
    scipy returns too (the ranked axis innermost), so reductions over it
    round the same way. The values are trusted to be finite.
    """
    a = np.swapaxes(values, axis, -1)
    n = a.shape[-1]
    rows = math.prod(a.shape[:-1])
    block = np.ascontiguousarray(a).reshape(rows, n)
    order = np.argsort(block, axis=-1)
    order += np.arange(0, rows * n, n)[:, None]
    ordered = block.take(order)
    ranks = np.empty(rows * n)
    same = ordered[:, 1:] == ordered[:, :-1]
    if same.any():
        first = np.ones((rows, n), dtype=bool)  # starts a run of equal values
        np.logical_not(same, out=first[:, 1:])
        last = np.ones((rows, n), dtype=bool)  # ends a run
        last[:, :-1] = first[:, 1:]
        pos = np.arange(n)
        start = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
        end = np.minimum.accumulate(np.where(last, pos, n - 1)[:, ::-1], axis=-1)
        ranks[order.ravel()] = ((start + end[:, ::-1]) / 2.0 + 1.0).ravel()
    elif rows * n <= _KEEP_MAX:
        ranks[order.ravel()] = _tie_free_ranks(rows, n)
    else:
        ranks[order] = np.arange(1.0, n + 1.0)
    return np.swapaxes(ranks.reshape(a.shape), axis, -1)


def rank_curves(curves: CurveSet) -> RankCurves:
    """Rank subjects within each occasion, ignoring group labels."""
    ranks = _midranks(curves.values, axis=0)
    return RankCurves(ranks)
