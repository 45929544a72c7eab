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

from .errors import InvalidInputError, _check_fields, _frozen, _member
from .orderstat import _log_odds
from .ranking import RankCurves

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
        _check_fields(self, kind=_member(SummaryKind))
        scores = _frozen(self.scores, "scores", 1)
        lo, hi = _SUMMARIES[self.kind][1](scores.size)
        if not np.all((scores >= lo) & (scores <= hi)):
            raise InvalidInputError(f"{self.kind.value} scores must lie in [{lo}, {hi}]")
        object.__setattr__(self, "scores", scores)


def _summary_scores(ranks: np.ndarray, kind: SummaryKind) -> np.ndarray:
    """Per-subject scores of ... x n x S mid-ranks, without validation.

    The last two axes are subjects and occasions; any leading axes (a
    block of replicates) are kept, so an (R, n, S) block gives (R, n).
    log/mean rounding can overshoot an endpoint of the kind's interval by
    an ulp, so the scores are clipped to it; a mean of half-integer ranks
    never leaves [1, n], so average-rank scores are unchanged.
    """
    term, interval = _SUMMARIES[kind]
    n = ranks.shape[-2]
    # numpy's pairwise-summed mean keeps long grids from accumulating drift
    return np.clip(term(ranks, n).mean(axis=-1), *interval(n))


def sufficient_summary(ranks: RankCurves) -> SummaryScores:
    """Average the rank sufficient statistic over each subject's occasions."""
    scores = _summary_scores(ranks.ranks, SummaryKind.SUFFICIENT)
    return SummaryScores(scores, SummaryKind.SUFFICIENT)


def average_rank_summary(ranks: RankCurves) -> SummaryScores:
    """Average each subject's ranks over occasions."""
    scores = _summary_scores(ranks.ranks, SummaryKind.AVERAGE_RANK)
    return SummaryScores(scores, SummaryKind.AVERAGE_RANK)
