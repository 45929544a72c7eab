"""Per-subject summaries of rank curves.

Each subject's rank curve collapses to one score, either the average of the
order-statistic sufficient statistic over occasions or the plain average
rank. The score vectors are what the second-stage rank tests consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, _check_fields, _member, _record, _vector
from .orderstat import _log_odds
from .ranking import RankCurves, _sort_order

__all__ = [
    "SummaryKind",
    "SummaryScores",
    "sufficient_summary",
    "average_rank_summary",
]


class SummaryKind(str, Enum):
    SUFFICIENT = "sufficient"
    AVERAGE_RANK = "average_rank"


# Each summary's term t(z, n) of a rank z among n, whose mean over a subject's
# occasions is its score, and the closed interval holding n subjects' scores
_SUMMARIES = {
    # the log-odds form of `orderstat.suff_stat`
    SummaryKind.SUFFICIENT: (
        _log_odds, lambda n: (-math.log(2.0 * n - 1.0), math.log(2.0 * n - 1.0))
    ),
    SummaryKind.AVERAGE_RANK: (lambda z, n: z, lambda n: (1.0, float(n))),
}


@dataclass(frozen=True)
class SummaryScores:
    """One score per subject plus the summary used to produce it.

    With n the number of scores, sufficient scores lie in
    [-log(2n-1), log(2n-1)]; the endpoints are attained by a subject
    ranked first (or last) at every occasion. Average-rank scores lie in
    [1, n], and their grand mean is always exactly (n+1)/2 because every
    rank column sums to n(n+1)/2.
    """

    scores: np.ndarray
    kind: SummaryKind

    def __post_init__(self) -> None:
        _check_fields(self, kind=_member(SummaryKind), scores=_vector)
        lo, hi = _SUMMARIES[self.kind][1](self.scores.size)
        if not np.all((self.scores >= lo) & (self.scores <= hi)):
            raise InvalidInputError(f"{self.kind.value} scores must lie in [{lo}, {hi}]")


# Tie-free term rows are kept for blocks of at most this many values (1 MiB
# of float64), so the 16 kept rows hold at most 16 MiB
_KEEP_MAX = 1 << 17


@lru_cache(maxsize=16)
def _tie_free_terms(kind: SummaryKind, rows: int, n: int) -> np.ndarray:
    """The kind's term of the ranks 1..n of rows tie-free rows, flat; read-only.

    Kept per (kind, rows, n) for tie-free blocks of at most _KEEP_MAX values.
    Built inside a shape's first block, a kept row also pins the top of the
    C heap: without it the allocator hands each block's freed scratch back
    to the system and the next block faults it in again (about 240 minor
    page faults per power_pool pass, against none with it).
    """
    terms = _SUMMARIES[kind][0](np.tile(np.arange(1.0, n + 1.0), rows), n)
    terms.flags.writeable = False
    return terms


def _block_scores(values: np.ndarray, kinds: Sequence[SummaryKind]) -> list[np.ndarray]:
    """The (R, n) scores under each kind of an (R, n, S) block of curves.

    The block is ranked per occasion by `ranking._sort_order`, and the
    ranks are never scattered: position k of the sorted row of replicate
    r at occasion s adds the term of its rank to bin r·n + i, i the
    subject it holds, in one weighted bincount per kind. A bin adds its
    subject's terms in occasion order s = 0..S-1, as numpy's mean does
    along a strided occasion axis (it adds pairwise along a contiguous
    one), and the sum is divided by S: a score is the bits of that loop
    written out. log/mean rounding can overshoot an endpoint of the kind's
    interval by an ulp, so the scores are clipped to it; a mean of
    half-integer ranks never leaves [1, n], so average-rank scores are
    unchanged. Mid-ranks ranked again are the same mid-ranks, so a rank
    matrix scores as its curves do. A tie-free block of at most _KEEP_MAX
    values reads its terms from the kept rows of `_tie_free_terms`. The
    values are trusted.
    """
    reps, n, s = values.shape
    order, mid, tied = _sort_order(values, axis=1)
    rows = reps * s
    kept = not tied and rows * n <= _KEEP_MAX
    # order holds the flat index (r·S + s)·n + i; subtracting
    # n·(row - r) from each row, row = r·S + s, leaves the bin r·n + i
    row = np.arange(rows)
    order -= (n * (row - row // s))[:, None]
    bins = order.ravel()
    scores = []
    for kind in kinds:
        term, interval = _SUMMARIES[kind]
        terms = _tie_free_terms(kind, rows, n) if kept else term(mid, n).ravel()
        sums = np.bincount(bins, terms, minlength=reps * n).reshape(reps, n)
        scores.append(np.clip(sums / s, *interval(n)))
    return scores


def sufficient_summary(ranks: RankCurves) -> SummaryScores:
    """Average the rank sufficient statistic over each subject's occasions."""
    ranks = _record(RankCurves)(ranks, "ranks")
    scores = _block_scores(ranks.ranks[None], [SummaryKind.SUFFICIENT])[0][0]
    return SummaryScores(scores, SummaryKind.SUFFICIENT)


def average_rank_summary(ranks: RankCurves) -> SummaryScores:
    """Average each subject's ranks over occasions."""
    ranks = _record(RankCurves)(ranks, "ranks")
    scores = _block_scores(ranks.ranks[None], [SummaryKind.AVERAGE_RANK])[0][0]
    return SummaryScores(scores, SummaryKind.AVERAGE_RANK)
