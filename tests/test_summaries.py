import math

import numpy as np
import pytest

from drtests import (
    InvalidInputError,
    RankCurves,
    SummaryKind,
    SummaryScores,
    average_rank_summary,
    rank_curves,
    suff_stat,
    sufficient_summary,
)
from drtests.summaries import _SUMMARIES
from tests.helpers import make_curves


class TestSufficientSummary:
    def test_central_ranks_give_zero(self):
        rc = RankCurves([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        scores = sufficient_summary(rc)
        assert scores.kind is SummaryKind.SUFFICIENT
        assert np.all(scores.scores == 0.0)

    def test_antisymmetric_terms_cancel(self):
        # subject holding ranks (1, 3) with n=3: the two terms negate
        rc = RankCurves([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert sufficient_summary(rc).scores[0] == 0.0

    def test_single_occasion_equals_suff_stat(self):
        rc = RankCurves([[1.0], [2.0], [3.0]])
        assert sufficient_summary(rc).scores[0] == pytest.approx(
            suff_stat(1, 3), abs=1e-15
        )
        assert sufficient_summary(rc).scores[0] == pytest.approx(
            -math.log(5), abs=1e-14
        )

    def test_matches_scalar_suff_stat(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(7, 5))
        rc = rank_curves(make_curves(values, groups=[1, 1, 1, 2, 2, 2, 2]))
        scores = sufficient_summary(rc).scores
        for i in range(7):
            manual = np.mean([suff_stat(z, 7) for z in rc.ranks[i]])
            assert scores[i] == pytest.approx(manual, abs=1e-14)

    def test_null_mean_near_zero(self):
        # scores should center on zero when columns are independent
        # uniform rank permutations
        rng = np.random.default_rng(29)
        n, s, reps = 10, 40, 400
        total = 0.0
        for _ in range(reps):
            ranks = np.column_stack(
                [rng.permutation(n) + 1.0 for _ in range(s)]
            )
            total += sufficient_summary(RankCurves(ranks)).scores[0]
        # var of one score is about var(t)/s; average over reps shrinks more
        assert abs(total / reps) < 0.05


class TestAverageRankSummary:
    def test_constant_rank(self):
        rc = RankCurves([[3.0, 3.0], [1.5, 1.5], [1.5, 1.5], [4.0, 4.0]])
        scores = average_rank_summary(rc)
        assert scores.kind is SummaryKind.AVERAGE_RANK
        assert scores.scores[0] == 3.0

    def test_arithmetic_mean(self):
        rc = RankCurves([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert average_rank_summary(rc).scores[0] == 2.0

    def test_grand_mean_identity_exact(self):
        rng = np.random.default_rng(31)
        for n, s in ((4, 3), (9, 17), (25, 40)):
            values = rng.integers(0, 6, size=(n, s)).astype(float)  # with ties
            rc = rank_curves(
                make_curves(values, groups=[1] * (n // 2) + [2] * (n - n // 2))
            )
            scores = average_rank_summary(rc).scores
            assert scores.mean() == pytest.approx((n + 1) / 2, abs=1e-12)

    def test_variance_shrinks_with_more_occasions(self):
        # independent columns: averaging more occasions tightens scores
        rng = np.random.default_rng(37)
        n, reps = 10, 2000

        def score_var(s):
            vals = np.empty(reps)
            for i in range(reps):
                ranks = rng.permuted(
                    np.tile(np.arange(1.0, n + 1), (s, 1)), axis=1
                ).T
                vals[i] = average_rank_summary(RankCurves(ranks)).scores[0]
            return vals.var()

        assert score_var(360) < score_var(40)


class TestSummaryScores:
    def test_reorder_invariance(self):
        rng = np.random.default_rng(41)
        values = rng.normal(size=(8, 6))
        perm = rng.permutation(8)
        base = rank_curves(make_curves(values))
        shuffled = rank_curves(make_curves(values[perm]))
        for summarize in (sufficient_summary, average_rank_summary):
            assert np.array_equal(
                summarize(shuffled).scores, summarize(base).scores[perm]
            )

    def test_sufficient_bound_attained_and_enforced(self):
        n = 5
        extreme = RankCurves(
            [[5.0, 5.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
        )
        scores = sufficient_summary(extreme).scores
        assert scores[0] == pytest.approx(math.log(2 * n - 1))
        with pytest.raises(InvalidInputError):
            SummaryScores([math.log(2 * n - 1) + 0.01, 0, 0, 0, 0], SummaryKind.SUFFICIENT)

    def test_average_rank_bounds_enforced(self):
        with pytest.raises(InvalidInputError):
            SummaryScores(scores=[0.5, 2.0], kind=SummaryKind.AVERAGE_RANK)

    def test_every_kind_has_a_table_entry(self):
        assert set(_SUMMARIES) == set(SummaryKind)

    @pytest.mark.parametrize("kind", list(SummaryKind))
    def test_rejects_a_score_just_outside_the_interval(self, kind):
        n = 4
        lo, hi = _SUMMARIES[kind][1](n)
        for edge, outside in ((lo, -np.inf), (hi, np.inf)):
            inside = [edge, (lo + hi) / 2, (lo + hi) / 2, (lo + hi) / 2]
            SummaryScores(inside, kind)
            for bad in (np.nextafter(edge, outside), outside, np.nan):
                with pytest.raises(InvalidInputError, match=f"{kind.value} scores must lie"):
                    SummaryScores([bad, *inside[1:]], kind)
