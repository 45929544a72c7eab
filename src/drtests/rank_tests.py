"""Rank-sum tests and the doubly ranked pipeline built on them.

Two-group comparisons use the Mann-Whitney-Wilcoxon statistic U (the rank
sum of the second group above its minimum), with an exact null distribution
for small tie-free samples and a tie-adjusted normal approximation
otherwise. Three or more groups use the Kruskal-Wallis statistic against a
chi-square reference. The doubly ranked variants chain per-occasion ranking
and a per-subject summary in front of these univariate tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.stats import chi2, norm, rankdata

from .errors import InvalidInputError, UnsupportedSizeError
from .preprocess import FpcaResult, _check_pve, fpca_smooth
from .ranking import CurveSet
from .summaries import SummaryKind, _summary_scores

__all__ = [
    "Alternative",
    "Method",
    "TestResult",
    "DoublyRankedConfig",
    "mww_test",
    "kruskal_wallis_test",
    "exact_mww_null_distribution",
    "doubly_ranked_test",
]


class Alternative(str, Enum):
    TWO_SIDED = "two-sided"
    LESS = "less"
    GREATER = "greater"


class Method(str, Enum):
    MWW_EXACT = "mww-exact"
    MWW_NORMAL = "mww-normal"
    KW_CHISQ = "kw-chisq"


@dataclass(frozen=True)
class TestResult:
    """Outcome of one rank test.

    statistic is U for the two-group methods (so it lies in [0, n1*n2])
    and H for the chi-square method (nonnegative). z_or_df holds the
    standard-normal deviate for the two-group methods (for the exact
    method the uncorrected deviate is reported for reference) and the
    degrees of freedom G-1 for the chi-square method.
    """

    method: Method
    statistic: float
    z_or_df: float
    p_value: float
    alternative: Alternative
    group_sizes: tuple[int, ...]
    tie_correction_applied: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "alternative", Alternative(self.alternative))
        object.__setattr__(self, "group_sizes", tuple(int(g) for g in self.group_sizes))
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidInputError(f"p_value out of [0, 1]: {self.p_value}")
        if self.method is Method.KW_CHISQ:
            if self.statistic < 0.0:
                raise InvalidInputError("chi-square statistic must be >= 0")
        else:
            n1, n2 = self.group_sizes
            if not 0.0 <= self.statistic <= n1 * n2:
                raise InvalidInputError(
                    f"U statistic must lie in [0, {n1 * n2}], got {self.statistic}"
                )


# The exact path's partition counts stay below C(n1+n2, n2), which fits
# int64 through combined sizes of 60; larger samples use the normal path.
_EXACT_MAX_TOTAL = 60


def _pooled_ranks(samples: Sequence) -> tuple[list[int], np.ndarray, bool, float]:
    """Sizes, pooled mid-ranks, whether any value ties, and sum(t^3 - t)."""
    arrays = [np.asarray(a, dtype=float).ravel() for a in samples]
    sizes = [a.size for a in arrays]
    if min(sizes) < 1:
        raise InvalidInputError("every group must be nonempty")
    combined = np.concatenate(arrays)
    if not np.all(np.isfinite(combined)):
        raise InvalidInputError("observations must be finite")
    _, counts = np.unique(combined, return_counts=True)
    tie_sum = float(np.sum(counts.astype(float) ** 3 - counts))
    return sizes, rankdata(combined), bool(np.any(counts > 1)), tie_sum


@lru_cache(maxsize=None)
def _exact_u_probs(n1: int, n2: int) -> np.ndarray:
    """Null probabilities of U over {0..n1*n2} for tie-free samples.

    Counts assignments by the recursion over partitions of u into at most
    n2 parts each at most n1: G(k, m, u) = G(k-1, m, u) + G(k, m-1, u-k).
    """
    u_max = n1 * n2
    old = np.zeros((n2 + 1, u_max + 1), dtype=np.int64)
    old[:, 0] = 1
    for _ in range(n1):
        new = np.zeros_like(old)
        new[:, 0] = 1
        for k in range(1, n2 + 1):
            new[k] = new[k - 1]
            new[k, k:] += old[k, : u_max + 1 - k]
        old = new
    counts = old[n2]
    probs = counts.astype(float) / float(counts.sum())
    probs.flags.writeable = False
    return probs


def exact_mww_null_distribution(n1: int, n2: int, max_total: int = 50) -> np.ndarray:
    """Exact null PMF of the U statistic, indexed by U in {0..n1*n2}.

    The distribution is symmetric about n1*n2/2 and assumes no ties.
    Sizes with n1+n2 beyond max_total, or beyond 60 whatever max_total
    says, raise UnsupportedSizeError; use the normal approximation there.
    """
    for name, v in (("n1", n1), ("n2", n2)):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
            raise InvalidInputError(f"{name} must be a positive integer, got {v!r}")
    limit = min(max_total, _EXACT_MAX_TOTAL)
    if n1 + n2 > limit:
        raise UnsupportedSizeError(
            f"exact null distribution supports combined sizes up to {limit}; "
            f"got {n1 + n2}. Use the normal approximation instead."
        )
    return _exact_u_probs(int(n1), int(n2))


def _check_exact_threshold(exact_threshold: int) -> None:
    if not 0 <= exact_threshold <= _EXACT_MAX_TOTAL:
        raise InvalidInputError(
            f"exact_threshold must lie in [0, {_EXACT_MAX_TOTAL}], "
            f"got {exact_threshold}"
        )


def mww_test(
    x: np.ndarray,
    y: np.ndarray,
    alternative: Alternative | str = Alternative.TWO_SIDED,
    *,
    exact_threshold: int = 50,
    continuity_correction: bool = True,
) -> TestResult:
    """Two-sample rank-sum test of y against x.

    The statistic is U = (rank sum of y) - n2(n2+1)/2, so "greater" means
    y is shifted upward relative to x. Tie-free samples with combined size
    at most exact_threshold (itself at most 60) are tested against the
    exact null distribution; larger or tied samples use the normal
    approximation with tie-adjusted variance and, by default, a continuity
    correction of one half toward the mean. Two-sided p-values are
    min(1, 2 * smaller tail).
    """
    alternative = Alternative(alternative)
    _check_exact_threshold(exact_threshold)
    (n1, n2), ranks, ties, tie_sum = _pooled_ranks((x, y))
    n = n1 + n2
    t_sum = float(ranks[n1:].sum())
    u = t_sum - n2 * (n2 + 1) / 2.0
    d = u - n1 * n2 / 2.0
    var = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    method = Method.MWW_NORMAL
    if not ties and n <= exact_threshold:
        method = Method.MWW_EXACT
        # the uncorrected deviate, reported for reference
        z = float(d / np.sqrt(n1 * n2 * (n + 1) / 12.0))
        probs = exact_mww_null_distribution(n1, n2, max_total=exact_threshold)
        u_idx = int(round(u))
        lower = float(probs[: u_idx + 1].sum())
        upper = float(probs[u_idx:].sum())
        if alternative is Alternative.TWO_SIDED:
            p = min(1.0, 2.0 * min(lower, upper))
        elif alternative is Alternative.GREATER:
            p = upper
        else:
            p = lower
    elif var <= 0.0:
        # every observation tied with every other: no evidence either way
        z = 0.0
        p = 1.0 if alternative is Alternative.TWO_SIDED else 0.5
    else:
        shift = 0.0
        if continuity_correction:
            if alternative is Alternative.TWO_SIDED:
                shift = 0.5 * float(np.sign(d))
            elif alternative is Alternative.GREATER:
                shift = 0.5
            else:
                shift = -0.5
        z = (d - shift) / float(np.sqrt(var))
        if alternative is Alternative.TWO_SIDED:
            p = min(1.0, 2.0 * float(norm.sf(abs(z))))
        elif alternative is Alternative.GREATER:
            p = float(norm.sf(z))
        else:
            p = float(norm.cdf(z))
    return TestResult(
        method=method,
        statistic=u,
        z_or_df=z,
        p_value=p,
        alternative=alternative,
        group_sizes=(n1, n2),
        tie_correction_applied=ties,
    )


def kruskal_wallis_test(groups: Sequence[np.ndarray]) -> TestResult:
    """Rank test of a location difference among G >= 2 groups.

    H = [12 / (n(n+1))] * sum_g n_g (Rbar_g - (n+1)/2)^2, divided by the
    tie correction 1 - sum(t^3 - t)/(n^3 - n), referred to chi-square with
    G-1 degrees of freedom. Samples in which every value is identical give
    H = 0 and p = 1.
    """
    if len(groups) < 2:
        raise InvalidInputError(f"need at least 2 groups, got {len(groups)}")
    sizes, ranks, ties, tie_sum = _pooled_ranks(groups)
    n = ranks.size

    g_count = len(sizes)
    bounds = np.cumsum([0] + sizes)
    h = 0.0
    for g in range(g_count):
        rbar = float(ranks[bounds[g] : bounds[g + 1]].mean())
        h += sizes[g] * (rbar - (n + 1) / 2.0) ** 2
    h *= 12.0 / (n * (n + 1))

    divisor = 1.0 - tie_sum / (n**3 - n)
    if divisor <= 0.0:
        # all observations identical
        h, p = 0.0, 1.0
    else:
        h /= divisor
        p = float(chi2.sf(h, g_count - 1))
    return TestResult(
        method=Method.KW_CHISQ,
        statistic=h,
        z_or_df=float(g_count - 1),
        p_value=p,
        alternative=Alternative.TWO_SIDED,
        group_sizes=tuple(sizes),
        tie_correction_applied=ties,
    )


@dataclass(frozen=True)
class DoublyRankedConfig:
    """Options for the doubly ranked pipeline.

    preprocess_pve, when set, smooths the curves first, keeping that
    proportion of variance. exact_threshold and continuity_correction are
    forwarded to the two-group test. One-sided alternatives apply to two
    groups only.
    """

    summary: SummaryKind = SummaryKind.SUFFICIENT
    preprocess_pve: float | None = None
    alternative: Alternative = Alternative.TWO_SIDED
    exact_threshold: int = 50
    continuity_correction: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "summary", SummaryKind(self.summary))
        object.__setattr__(self, "alternative", Alternative(self.alternative))
        if self.preprocess_pve is not None:
            pve = _check_pve(self.preprocess_pve, "preprocess_pve")
            object.__setattr__(self, "preprocess_pve", pve)
        _check_exact_threshold(self.exact_threshold)


def _doubly_ranked_scores(
    curves: CurveSet, summaries: Sequence[SummaryKind], pve: float | None
) -> tuple[list[np.ndarray], FpcaResult | None]:
    """One score vector per summary, plus the smoothing result if pve is set.

    Smooths at most once and ranks once per dataset, whatever the number
    of summaries. The inputs are trusted: no RankCurves or SummaryScores
    is built, so the per-replicate loop pays for no validation.
    """
    smoothed = None if pve is None else fpca_smooth(curves, pve)
    values = curves.values if smoothed is None else smoothed.smoothed
    ranks = rankdata(values, method="average", axis=0)
    return [_summary_scores(ranks, kind) for kind in summaries], smoothed


def _score_test(
    scores: np.ndarray, curves: CurveSet, config: DoublyRankedConfig
) -> TestResult:
    """Test subject scores across the groups of `curves`.

    Two groups route to the rank-sum test, three or more to the
    Kruskal-Wallis test; config.summary and config.preprocess_pve are not
    used here.
    """
    labels = curves.groups
    n_groups = curves.n_groups
    if n_groups == 2:
        return mww_test(
            scores[labels == 1],
            scores[labels == 2],
            alternative=config.alternative,
            exact_threshold=config.exact_threshold,
            continuity_correction=config.continuity_correction,
        )
    if config.alternative is not Alternative.TWO_SIDED:
        raise InvalidInputError(
            "one-sided alternatives are only defined for two groups"
        )
    return kruskal_wallis_test([scores[labels == g] for g in range(1, n_groups + 1)])


def doubly_ranked_test(
    curves: CurveSet, config: DoublyRankedConfig | None = None
) -> TestResult:
    """Rank curves per occasion, summarize subjects, test the summaries.

    Two groups route to the rank-sum test, three or more to the
    Kruskal-Wallis test. With a single measurement occasion and no
    preprocessing the result is identical to the univariate test on that
    column, since a subject's summary is then just its rank.
    """
    if config is None:
        config = DoublyRankedConfig()
    (scores,), _ = _doubly_ranked_scores(
        curves, (config.summary,), config.preprocess_pve
    )
    return _score_test(scores, curves, config)
