"""Per-subject summaries of rank curves.

Each subject's rank curve collapses to one score, either the average of the
order-statistic sufficient statistic over occasions or the plain average
rank. The score vectors are what the second-stage rank tests consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, _check_fields, _count, _member
from .orderstat import _log_odds
from .ranking import RankCurves, _readonly

__all__ = [
    "SummaryKind",
    "SummaryScores",
    "sufficient_summary",
    "average_rank_summary",
]


class SummaryKind(str, Enum):
    SUFFICIENT = "sufficient"
    AVERAGE_RANK = "average_rank"


@dataclass(frozen=True)
class SummaryScores:
    """One score per subject plus the summary used to produce it.

    Sufficient scores lie in [-log(2n-1), log(2n-1)]; the endpoints are
    attained by a subject ranked first (or last) at every occasion.
    Average-rank scores lie in [1, n], and their grand mean is always
    exactly (n+1)/2 because every rank column sums to n(n+1)/2.
    """

    scores: np.ndarray
    kind: SummaryKind
    n: int
    n_points: int

    def __post_init__(self) -> None:
        _check_fields(self, n=_count, n_points=_count)
        scores = _readonly(np.ravel(self.scores))
        if scores.shape != (self.n,):
            raise InvalidInputError(
                f"expected {self.n} scores, got {scores.size}"
            )
        if not np.all(np.isfinite(scores)):
            raise InvalidInputError("scores must be finite")
        kind = _member(SummaryKind)(self.kind, "kind")
        if kind is SummaryKind.SUFFICIENT:
            bound = math.log(2.0 * self.n - 1.0)
            if np.any(np.abs(scores) > bound):
                raise InvalidInputError(
                    f"sufficient scores must lie in [-{bound}, {bound}]"
                )
        else:
            if np.any(scores < 1.0) or np.any(scores > self.n):
                raise InvalidInputError("average-rank scores must lie in [1, n]")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "kind", kind)


def _summary_scores(ranks: np.ndarray, kind: SummaryKind) -> np.ndarray:
    """Per-subject scores of ... x n x S mid-ranks, without validation.

    The last two axes are subjects and occasions; any leading axes (a
    block of replicates) are kept, so an (R, n, S) block gives (R, n).
    sufficient: score_i = (1/S) * sum_k t(z_i(s_k)) with t the log-odds
    form from `orderstat.suff_stat`, applied elementwise to the ranks.
    average_rank: the mean of each subject's ranks over occasions.
    """
    if kind is SummaryKind.AVERAGE_RANK:
        return ranks.mean(axis=-1)
    n = ranks.shape[-2]
    t = _log_odds(ranks, n)
    # numpy's pairwise-summed mean keeps long grids from accumulating drift.
    # A subject at rank 1 or n on every occasion sits on the interval
    # endpoint; log/mean rounding can overshoot it by an ulp, so snap back
    bound = math.log(2.0 * n - 1.0)
    return np.clip(t.mean(axis=-1), -bound, bound)


def sufficient_summary(ranks: RankCurves) -> SummaryScores:
    """Average the rank sufficient statistic over each subject's occasions."""
    scores = _summary_scores(ranks.ranks, SummaryKind.SUFFICIENT)
    return SummaryScores(scores, SummaryKind.SUFFICIENT, ranks.n, ranks.n_points)


def average_rank_summary(ranks: RankCurves) -> SummaryScores:
    """Average each subject's ranks over occasions."""
    scores = _summary_scores(ranks.ranks, SummaryKind.AVERAGE_RANK)
    return SummaryScores(scores, SummaryKind.AVERAGE_RANK, ranks.n, ranks.n_points)
