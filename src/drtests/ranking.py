"""Curve containers and per-occasion ranking.

The first stage of a doubly ranked test assigns, at every measurement
occasion, ranks across subjects while ignoring group membership. Ties get
mid-ranks (the average of the integer ranks they span), so ranks are stored
as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    Each array must be nonempty and finite; it is kept as a read-only
    float copy.
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
        if grid.shape != (s,):
            raise InvalidInputError(
                f"grid length {grid.size} does not match {s} value columns"
            )
        if not (grid[1:] > grid[:-1]).all():
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
    that lies outside [1, n] or breaks a column's mid-ranks is refused.
    """

    ranks: np.ndarray

    def __post_init__(self) -> None:
        ranks = _frozen(self.ranks, "ranks", 2)
        if not np.array_equal(_midranks(ranks, axis=0), ranks):
            raise InvalidInputError(
                "ranks must be mid-ranks of each column, a matrix that ranking leaves unchanged"
            )
        object.__setattr__(self, "ranks", ranks)


def _group_labels(sizes) -> np.ndarray:
    """Labels 1..G for subjects stored group by group with these sizes."""
    return np.repeat(np.arange(1, len(sizes) + 1), sizes)


def _sort_order(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Each row's sort order along axis, its sorted mid-ranks, and whether
    the sorted block has any equal neighbours.

    The ranked axis is swapped last and copied into a contiguous (rows, n)
    block, which is sorted once. The returned (rows, n) order, offset by
    each row's start, holds flat indices into that block: position k of
    row i holds the index of the row's (k + 1)-th smallest value. The tie
    test runs on the flat sorted block, so equal values straddling a row
    boundary send the block down the tied path too, whose mid-ranks are
    exact for tie-free rows as well: position k gets one plus the mean of
    the first and last positions of its run of equal values. With no equal
    neighbours the sorted mid-ranks are 1..n in every row: one read-only
    row broadcast to (rows, n). The values are trusted to be finite.
    """
    a = np.swapaxes(values, axis, -1)
    n = a.shape[-1]
    rows = math.prod(a.shape[:-1])
    block = np.ascontiguousarray(a).reshape(rows, n)
    order = np.argsort(block, axis=-1)
    order += np.arange(0, rows * n, n)[:, None]
    ordered = block.take(order.ravel())
    same = ordered[1:] == ordered[:-1]
    if not same.any():
        return order, np.broadcast_to(np.arange(1.0, n + 1.0), (rows, n)), False
    first = np.ones(rows * n, dtype=bool)  # starts a run of equal values
    np.logical_not(same, out=first[1:])
    first[::n] = True
    first = first.reshape(rows, n)
    last = np.ones((rows, n), dtype=bool)  # ends a run
    last[:, :-1] = first[:, 1:]
    pos = np.arange(n)
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
    end = np.minimum.accumulate(np.where(last, pos, n - 1)[:, ::-1], axis=-1)
    return order, (start + end[:, ::-1]) / 2.0 + 1.0, True


def _scatter_ranks(order: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """The flat mid-ranks of a `_sort_order` block, in the block's own layout."""
    ranks = np.empty(order.size)
    ranks[order] = mid
    return ranks


def _midranks(values: np.ndarray, axis: int) -> np.ndarray:
    """Mid-ranks of values along axis: tied values share their mean rank.

    `_sort_order` sorts the block and `_scatter_ranks` writes each sorted
    position's rank back through the same flat indices. Mid-ranks are
    exact half-integers, so any correct algorithm gives the same bits as
    scipy's average-method ranking. The result is a view in the memory
    layout scipy returns too (the ranked axis innermost), so reductions
    over it round the same way. The values are trusted to be finite.
    """
    a = np.swapaxes(values, axis, -1)
    order, mid, _ = _sort_order(values, axis)
    return np.swapaxes(_scatter_ranks(order, mid).reshape(a.shape), axis, -1)


def rank_curves(curves: CurveSet) -> RankCurves:
    """Rank subjects within each occasion, ignoring group labels."""
    ranks = _midranks(curves.values, axis=0)
    return RankCurves(ranks)
