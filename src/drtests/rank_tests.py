"""Rank-sum tests and the doubly ranked pipeline built on them.

Two-group comparisons use the Mann-Whitney-Wilcoxon statistic U (the rank
sum of the second group above its minimum), with an exact null distribution
for small tie-free samples and a tie-adjusted normal approximation
otherwise. Three or more groups use the Kruskal-Wallis statistic against a
chi-square reference. The doubly ranked variants chain per-occasion ranking
and a per-subject summary in front of these univariate tests.

Each test has one implementation, which runs on an (R, n) block of score
rows at once (the Monte Carlo harness tests a block of replicates per
call); the public functions validate their input and run it with R = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import chdtrc, ndtr

from .errors import (
    InvalidInputError,
    UnsupportedSizeError,
    _boolean,
    _check_fields,
    _count,
    _frozen,
    _groups,
    _integer,
    _member,
    _number,
    _optional,
    _within,
)
from .preprocess import _check_pve, _fpca
from .ranking import CurveSet, _group_labels, _midranks
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
    degrees of freedom G-1 for the chi-square method. The fields must
    agree: a chi-square result is two-sided, and an exact result was
    computed without a tie correction.
    """

    method: Method
    statistic: float
    z_or_df: float
    p_value: float
    alternative: Alternative
    group_sizes: tuple[int, ...]
    tie_correction_applied: bool

    def __post_init__(self) -> None:
        _check_fields(
            self,
            method=_member(Method),
            alternative=_member(Alternative),
            group_sizes=_groups,
            p_value=_within(0, 1),
            z_or_df=_number,
            tie_correction_applied=_boolean,
        )
        if self.method is Method.KW_CHISQ:
            statistic = _within(0, math.inf, "[)")
            df = len(self.group_sizes) - 1
            if self.z_or_df != df:
                raise InvalidInputError(
                    f"z_or_df of a kw-chisq result must be its degrees of freedom {df}, "
                    f"got {self.z_or_df}"
                )
            if self.alternative is not Alternative.TWO_SIDED:
                raise InvalidInputError(
                    "alternative of a kw-chisq result must be two-sided, "
                    f"got {self.alternative.value!r}"
                )
        elif len(self.group_sizes) != 2:
            raise InvalidInputError(
                f"group_sizes of a {self.method.value} result must list 2 groups, "
                f"got {self.group_sizes!r}"
            )
        elif self.method is Method.MWW_EXACT and self.tie_correction_applied:
            raise InvalidInputError(
                "tie_correction_applied of an mww-exact result must be False: "
                "the exact null holds for tie-free samples only"
            )
        else:
            n1, n2 = self.group_sizes
            statistic = _within(0, n1 * n2)
        _check_fields(self, statistic=statistic)


# The exact path's partition counts stay below C(n1+n2, n2), which fits
# int64 through combined sizes of 60; larger samples use the normal path.
_EXACT_MAX_TOTAL = 60


class _Block(NamedTuple):
    """Per-row outcomes of one rank test over an (R, n) block of scores."""

    statistic: np.ndarray
    z_or_df: np.ndarray
    p_value: np.ndarray
    method: np.ndarray
    ties: np.ndarray

    def result(self, alternative: Alternative, sizes: Sequence[int]) -> TestResult:
        """Row 0 as a validated TestResult; one-off tests run with R = 1."""
        return TestResult(
            method=self.method[0],
            statistic=float(self.statistic[0]),
            z_or_df=float(self.z_or_df[0]),
            p_value=float(self.p_value[0]),
            alternative=alternative,
            group_sizes=tuple(sizes),
            tie_correction_applied=bool(self.ties[0]),
        )


def _pooled_samples(samples: dict) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Sizes, the (1, n) pooled score row and its group labels 1..G.

    samples maps each group's argument name to its observations.
    """
    arrays = [_frozen(a, name, 1) for name, a in samples.items()]
    sizes = [a.size for a in arrays]
    if min(sizes) < 1:
        raise InvalidInputError("every group must be nonempty")
    combined = np.concatenate(arrays)
    if not np.all(np.isfinite(combined)):
        raise InvalidInputError("observations must be finite")
    return sizes, combined[None, :], _group_labels(sizes)


def _pooled_ranks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mid-ranks within each row of an (R, n) block, and each row's sum(t^3 - t).

    t runs over the sizes of a row's groups of tied values, so the sum is
    0 exactly when the row has no ties. Mid-ranks give
    sum(t^3 - t) = n^3 - n - 12 sum((r - (n+1)/2)^2).
    """
    ranks = _midranks(scores, axis=1)
    n = ranks.shape[1]
    # every term is a multiple of 1/4, so the sum is exact while n^3 < 2^53
    tie_sum = n**3 - n - 12.0 * np.sum((ranks - (n + 1) / 2.0) ** 2, axis=1)
    return ranks, tie_sum


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


@lru_cache(maxsize=None)
def _exact_u_tails(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """P(U <= u) and P(U >= u) under the exact null, for u in {0..n1*n2}.

    Each entry is numpy's sum of the slice of `_exact_u_probs` it covers,
    not a running sum, which would round differently in the last place.
    """
    probs = _exact_u_probs(n1, n2)
    # a slice reaching the end of the table can sum to just above 1
    lower = np.minimum([probs[: u + 1].sum() for u in range(probs.size)], 1.0)
    upper = np.minimum([probs[u:].sum() for u in range(probs.size)], 1.0)
    lower.flags.writeable = False
    upper.flags.writeable = False
    return lower, upper


def exact_mww_null_distribution(n1: int, n2: int) -> np.ndarray:
    """Exact null PMF of the U statistic, indexed by U in {0..n1*n2}.

    The distribution is symmetric about n1*n2/2 and assumes no ties.
    Sizes with n1+n2 beyond 60 raise UnsupportedSizeError; use the normal
    approximation there.
    """
    n1, n2 = _count(n1, "n1"), _count(n2, "n2")
    if n1 + n2 > _EXACT_MAX_TOTAL:
        raise UnsupportedSizeError(
            f"exact null distribution supports combined sizes up to {_EXACT_MAX_TOTAL}; "
            f"got {n1 + n2}. Use the normal approximation instead."
        )
    return _exact_u_probs(n1, n2)


def _mww_block(
    scores: np.ndarray, labels: np.ndarray, config: DoublyRankedConfig
) -> _Block:
    """The rank-sum test of group 2 against group 1 on every row of scores.

    scores is (R, n), labels the n subjects' groups (1 or 2). The inputs
    are trusted; `mww_test` documents the statistic and both paths.
    """
    ranks, tie_sum = _pooled_ranks(scores)
    ties = tie_sum > 0.0
    n = labels.size
    n2 = int(np.count_nonzero(labels == 2))
    n1 = n - n2
    u = ranks[:, labels == 2].sum(axis=1) - n2 * (n2 + 1) / 2.0
    d = u - n1 * n2 / 2.0
    var = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    exact = ~ties & (n <= config.exact_threshold)
    # every observation tied with every other: no evidence either way, so
    # both tails stay at 1/2
    normal = ~exact & (var > 0.0)
    z = np.zeros(u.size)
    lower, upper = np.full(u.size, 0.5), np.full(u.size, 0.5)
    if exact.any():
        # the uncorrected deviate, reported for reference
        z[exact] = d[exact] / np.sqrt(n1 * n2 * (n + 1) / 12.0)
        u_idx = np.rint(u[exact]).astype(np.intp)
        lower[exact], upper[exact] = (t[u_idx] for t in _exact_u_tails(n1, n2))
    if normal.any():
        d_n = d[normal]
        shift = 0.0
        if config.continuity_correction:
            if config.alternative is Alternative.TWO_SIDED:
                shift = 0.5 * np.sign(d_n)
            else:
                shift = 0.5 if config.alternative is Alternative.GREATER else -0.5
        z[normal] = z_n = (d_n - shift) / np.sqrt(var[normal])
        # both tails in one call of the normal CDF, which scipy's norm.cdf and
        # norm.sf (as ndtr(-z)) call after their argument checks: same bits
        lower[normal], upper[normal] = ndtr([z_n, -z_n])
    if config.alternative is Alternative.TWO_SIDED:
        p = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    else:
        p = upper if config.alternative is Alternative.GREATER else lower
    method = np.where(exact, Method.MWW_EXACT.value, Method.MWW_NORMAL.value)
    return _Block(u, z, p, method, ties)


def _kw_block(scores: np.ndarray, labels: np.ndarray, n_groups: int) -> _Block:
    """The Kruskal-Wallis test among groups 1..n_groups on every row of scores.

    scores is (R, n), labels the n subjects' groups. The inputs are
    trusted; `kruskal_wallis_test` documents the statistic.
    """
    ranks, tie_sum = _pooled_ranks(scores)
    n = labels.size
    h = np.zeros(len(ranks))
    for g in range(1, n_groups + 1):
        member = labels == g
        rbar = ranks[:, member].mean(axis=1)
        # libm pow, as Python's float ** takes, so H equals the scalar
        # formula bit for bit; x * x rounds differently for ~0.1 % of x
        h += np.count_nonzero(member) * np.float_power(rbar - (n + 1) / 2.0, 2)
    h *= 12.0 / (n * (n + 1))
    divisor = 1.0 - tie_sum / (n**3 - n)
    # all observations identical: H = 0 and p = 1
    varied = divisor > 0.0
    h[~varied] = 0.0
    h[varied] /= divisor[varied]
    p = np.ones(h.size)
    if varied.any():
        # the chi-square survival function that scipy's chi2.sf calls
        p[varied] = chdtrc(n_groups - 1, h[varied])
    df = np.full(h.size, float(n_groups - 1))
    method = np.full(h.size, Method.KW_CHISQ.value)
    return _Block(h, df, p, method, tie_sum > 0.0)


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
    min(1, 2 * smaller tail). x and y are each a number or a 1-d array;
    a sample with more dimensions is refused, not flattened. The three
    options are checked as the DoublyRankedConfig fields of the same names.
    """
    config = DoublyRankedConfig(
        alternative=alternative,
        exact_threshold=exact_threshold,
        continuity_correction=continuity_correction,
    )
    sizes, scores, labels = _pooled_samples({"x": x, "y": y})
    return _mww_block(scores, labels, config).result(config.alternative, sizes)


def kruskal_wallis_test(groups: Sequence[np.ndarray]) -> TestResult:
    """Rank test of a location difference among G >= 2 groups.

    H = [12 / (n(n+1))] * sum_g n_g (Rbar_g - (n+1)/2)^2, divided by the
    tie correction 1 - sum(t^3 - t)/(n^3 - n), referred to chi-square with
    G-1 degrees of freedom. Samples in which every value is identical give
    H = 0 and p = 1. groups is a list, tuple or array of the samples;
    each is a number or a 1-d array, and a sample with more dimensions is
    refused, not flattened.
    """
    if not isinstance(groups, (list, tuple, np.ndarray)) or getattr(groups, "ndim", 1) == 0:
        raise InvalidInputError(f"groups must be a list or array of samples, got {groups!r}")
    if len(groups) < 2:
        raise InvalidInputError(f"need at least 2 groups, got {len(groups)}")
    named = {f"groups[{g}]": group for g, group in enumerate(groups)}
    sizes, scores, labels = _pooled_samples(named)
    block = _kw_block(scores, labels, len(sizes))
    return block.result(Alternative.TWO_SIDED, sizes)


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
        _check_fields(
            self,
            summary=_member(SummaryKind),
            preprocess_pve=_optional(_check_pve),
            alternative=_member(Alternative),
            exact_threshold=_within(0, _EXACT_MAX_TOTAL, check=_integer),
            continuity_correction=_boolean,
        )


def _doubly_ranked_scores(
    values: np.ndarray, summaries: Sequence[SummaryKind], pve: float | None
) -> tuple[list[np.ndarray], list[tuple[int, float]]]:
    """One (R, n) score block per summary for an (R, n, S) block of replicates.

    When pve is set each replicate is smoothed on its own, and its
    (components kept, variance ratio achieved) pair is returned in order.
    The block is then ranked once per occasion for all summaries. The
    inputs are trusted: no result type is built, so a replicate loop pays
    for no validation.
    """
    fits = [] if pve is None else [_fpca(x, pve) for x in values]
    if fits:
        values = np.stack([x for x, _, _ in fits])
    ranks = _midranks(values, axis=1)
    scores = [_summary_scores(ranks, kind) for kind in summaries]
    return scores, [(kept, achieved) for _, kept, achieved in fits]


def _score_block(
    scores: np.ndarray, labels: np.ndarray, config: DoublyRankedConfig
) -> _Block:
    """Test every row of an (R, n) score block across the groups 1..G in labels.

    Two groups route to the rank-sum test, three or more to the
    Kruskal-Wallis test; config.summary and config.preprocess_pve are not
    used here.
    """
    n_groups = int(labels.max())
    if n_groups == 2:
        return _mww_block(scores, labels, config)
    if config.alternative is not Alternative.TWO_SIDED:
        raise InvalidInputError(
            "one-sided alternatives are only defined for two groups"
        )
    return _kw_block(scores, labels, n_groups)


def _test_curves(
    curves: CurveSet, config: DoublyRankedConfig
) -> tuple[TestResult, np.ndarray, tuple[int, float] | None]:
    """`doubly_ranked_test`, plus what `drt test` reports beyond its result.

    Returns the TestResult, the (1, n) scores it tested, and the
    smoothing's (components kept, variance ratio achieved) or None.
    """
    (scores,), fits = _doubly_ranked_scores(
        curves.values[None], (config.summary,), config.preprocess_pve
    )
    block = _score_block(scores, curves.groups, config)
    result = block.result(config.alternative, curves.group_sizes)
    return result, scores, fits[0] if fits else None


def doubly_ranked_test(
    curves: CurveSet, config: DoublyRankedConfig | None = None
) -> TestResult:
    """Rank curves per occasion, summarize subjects, test the summaries.

    Two groups route to the rank-sum test, three or more to the
    Kruskal-Wallis test. With a single measurement occasion and no
    preprocessing the result is identical to the univariate test on that
    column, since a subject's summary is then just its rank.
    """
    return _test_curves(curves, config or DoublyRankedConfig())[0]
