import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2, kruskal, mannwhitneyu, norm

from drtests import (
    Alternative,
    DoublyRankedConfig,
    InvalidInputError,
    Method,
    SummaryKind,
    UnsupportedSizeError,
    doubly_ranked_test,
    exact_mww_null_distribution,
    fpca_smooth,
    kruskal_wallis_test,
    mww_test,
    rank_tests,
)
from tests.helpers import count_pipeline_calls, make_curves


def brute_force_u_probs(n1, n2):
    """Enumerate all rank assignments of the second group directly."""
    n = n1 + n2
    counts = np.zeros(n1 * n2 + 1)
    for ranks in itertools.combinations(range(1, n + 1), n2):
        u = sum(ranks) - n2 * (n2 + 1) // 2
        counts[u] += 1
    return counts / counts.sum()


class TestExactNullDistribution:
    def test_one_one(self):
        assert exact_mww_null_distribution(1, 1).tolist() == [0.5, 0.5]

    def test_two_two(self):
        probs = exact_mww_null_distribution(2, 2)
        assert probs.tolist() == pytest.approx(
            [1 / 6, 1 / 6, 2 / 6, 1 / 6, 1 / 6], abs=1e-15
        )

    def test_matches_enumeration_all_small_sizes(self):
        for n1 in range(1, 10):
            for n2 in range(1, 11 - n1):
                probs = exact_mww_null_distribution(n1, n2)
                expected = brute_force_u_probs(n1, n2)
                assert np.allclose(probs, expected, atol=1e-12), (n1, n2)

    def test_symmetry(self):
        for n1, n2 in ((3, 8), (7, 7), (10, 25)):
            probs = exact_mww_null_distribution(n1, n2)
            assert np.allclose(probs, probs[::-1], atol=1e-15)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_limit(self):
        # exact through the int64 cap of 60 combined, refused above it
        probs = exact_mww_null_distribution(26, 25)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert exact_mww_null_distribution(30, 30).size == 901
        with pytest.raises(UnsupportedSizeError):
            exact_mww_null_distribution(31, 30)

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidInputError):
            exact_mww_null_distribution(0, 5)

    def test_int64_table_matches_big_integers(self):
        # the same partition recursion in Python integers, which cannot overflow
        for n1, n2 in ((30, 30), (20, 40), (1, 59)):
            u_max = n1 * n2
            old = np.zeros((n2 + 1, u_max + 1), dtype=object)
            old[:, 0] = 1
            for _ in range(n1):
                new = np.zeros_like(old)
                new[:, 0] = 1
                for k in range(1, n2 + 1):
                    new[k] = new[k - 1]
                    new[k, k:] += old[k, : u_max + 1 - k]
                old = new
            assert sum(old[n2]) == math.comb(n1 + n2, n2)
            expected = old[n2].astype(float) / float(sum(old[n2]))
            probs = exact_mww_null_distribution(n1, n2)
            assert np.array_equal(probs, expected), (n1, n2)

    def test_table_is_the_relabelling_count_divided_once(self):
        for n in range(2, 15):
            for n2 in range(1, n):
                n1 = n - n2
                # U of every relabelling: its group 2's rank sum above the minimum
                ranks = np.array(list(itertools.combinations(range(1, n + 1), n2)))
                u_all = ranks.sum(axis=1) - n2 * (n2 + 1) // 2
                total = math.comb(n, n2)
                assert u_all.size == total
                u = np.arange(n1 * n2 + 1)
                below = (u_all <= u[:, None]).sum(axis=1).tolist()
                above = (u_all >= u[:, None]).sum(axis=1).tolist()
                counts = np.bincount(u_all, minlength=u.size).tolist()
                probs, lower, upper = rank_tests._exact_u_table(n1, n2)
                assert lower.tolist() == [c / total for c in below], (n1, n2)
                assert upper.tolist() == [c / total for c in above], (n1, n2)
                assert probs.tolist() == [c / total for c in counts], (n1, n2)
                assert exact_mww_null_distribution(n1, n2) is probs

    def test_read_only(self):
        probs = exact_mww_null_distribution(3, 3)
        with pytest.raises(ValueError):
            probs[0] = 1.0


class TestMwwTest:
    def test_maximal_separation(self):
        res = mww_test([1.0, 2.0], [3.0, 4.0])
        assert res.method is Method.MWW_EXACT
        assert res.statistic == 4.0
        assert res.p_value == pytest.approx(2 / 6, abs=1e-15)
        assert res.group_sizes == (2, 2)

    def test_label_swap_antisymmetry(self):
        res = mww_test([3.0, 4.0], [1.0, 2.0])
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(2 / 6, abs=1e-15)
        rng = np.random.default_rng(43)
        x, y = rng.normal(size=9), rng.normal(size=6)
        a = mww_test(x, y)
        b = mww_test(y, x)
        assert a.statistic + b.statistic == pytest.approx(9 * 6)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-14)

    def test_identical_groups_fully_tied(self):
        res = mww_test([2.0, 2.0], [2.0, 2.0])
        assert res.method is Method.MWW_NORMAL
        assert res.statistic == 2.0  # n1*n2/2
        assert res.p_value == 1.0
        assert res.z_or_df == 0.0
        assert res.tie_correction_applied

    def test_identical_groups_with_internal_spread(self):
        res = mww_test([1.0, 2.0], [1.0, 2.0])
        assert res.statistic == 2.0
        assert res.p_value == 1.0

    def test_exact_p_matches_enumeration(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            x = rng.normal(size=n1)
            y = rng.normal(size=n2)
            res = mww_test(x, y)
            probs = brute_force_u_probs(n1, n2)
            u = int(res.statistic)
            lower, upper = probs[: u + 1].sum(), probs[u:].sum()
            assert res.p_value == pytest.approx(
                min(1.0, 2 * min(lower, upper)), abs=1e-12
            )

    def test_one_sided_tails(self):
        x, y = [1.0, 2.0, 5.0], [3.0, 4.0, 6.0]
        greater = mww_test(x, y, alternative="greater")
        less = mww_test(x, y, alternative="less")
        probs = exact_mww_null_distribution(3, 3)
        u = int(greater.statistic)
        assert greater.p_value == pytest.approx(probs[u:].sum(), abs=1e-14)
        assert less.p_value == pytest.approx(probs[: u + 1].sum(), abs=1e-14)
        # the two tails overlap in exactly P(U = u)
        assert greater.p_value + less.p_value == pytest.approx(
            1.0 + probs[u], abs=1e-14
        )

    def test_one_sided_tail_over_whole_table(self):
        # P(U >= 0) and P(U <= n1*n2) count every relabelling, so each is 1
        low, high = [10.0, 11.0], [0.0, 1.0, 2.0, 3.0]
        assert mww_test(low, high, alternative="greater").p_value == 1.0
        assert mww_test(high, low, alternative="less").p_value == 1.0

    def test_normal_path_above_threshold(self):
        rng = np.random.default_rng(53)
        x, y = rng.normal(size=30), rng.normal(size=30)
        res = mww_test(x, y)
        assert res.method is Method.MWW_NORMAL
        assert not res.tie_correction_applied

    def test_exact_vs_normal_agreement(self):
        # balanced tie-free splits of 9..25 per group keep the corrected
        # normal approximation within 0.01 of the exact p-value
        rng = np.random.default_rng(59)
        for _ in range(60):
            k = int(rng.integers(9, 26))
            x = rng.normal(size=k)
            y = rng.normal(size=k)
            exact = mww_test(x, y, exact_threshold=50)
            approx = mww_test(x, y, exact_threshold=0)
            assert exact.method is Method.MWW_EXACT
            assert approx.method is Method.MWW_NORMAL
            assert abs(exact.p_value - approx.p_value) < 0.01

    def test_continuity_correction_flag(self):
        rng = np.random.default_rng(61)
        x, y = rng.normal(size=40), rng.normal(size=40)
        with_cc = mww_test(x, y)
        without = mww_test(x, y, continuity_correction=False)
        assert with_cc.p_value >= without.p_value
        assert with_cc.z_or_df != without.z_or_df

    @pytest.mark.parametrize("value", ["no", "off", 1])
    def test_continuity_correction_must_be_a_bool(self, value):
        x, y = np.arange(40.0), np.arange(40.0) + 0.5
        with pytest.raises(InvalidInputError, match="continuity_correction"):
            mww_test(x, y, continuity_correction=value)
        with pytest.raises(InvalidInputError, match="continuity_correction"):
            DoublyRankedConfig(continuity_correction=value)
        # a numpy bool is a bool
        config = DoublyRankedConfig(continuity_correction=np.False_)
        assert config.continuity_correction is False

    def test_tie_adjusted_variance(self):
        # heavy ties shrink the variance, growing |z| versus the plain formula
        x = [1.0, 1.0, 2.0, 2.0, 3.0] * 4
        y = [2.0, 2.0, 3.0, 3.0, 4.0] * 4
        res = mww_test(x, y, continuity_correction=False)
        assert res.tie_correction_applied
        n1 = n2 = 20
        n = 40
        d = res.statistic - n1 * n2 / 2
        plain_z = d / math.sqrt(n1 * n2 * (n + 1) / 12)
        assert abs(res.z_or_df) > abs(plain_z)

    def test_exact_threshold_capped_at_60(self):
        x, y = [1.0, 2.0], [3.0, 4.0]
        assert mww_test(x, y, exact_threshold=60).method is Method.MWW_EXACT
        for bad in (61, 1000, -1, 2.5, True):
            with pytest.raises(InvalidInputError):
                mww_test(x, y, exact_threshold=bad)

    def test_rejects_empty_group(self):
        # each empty or non-finite sample is named
        for x, y, message in (
            ([], [1.0], "^x must not be empty"),
            ([1.0], [], "^y must not be empty"),
            ([1.0, np.nan], [2.0], "^x must be finite"),
            ([1.0], [np.nan], "^y must be finite"),
            ([1.0], [2.0, -np.inf], "^y must be finite"),
        ):
            with pytest.raises(InvalidInputError, match=message):
                mww_test(x, y)

    @pytest.mark.parametrize(
        "x, y, name",
        [
            (["a"], [1.0], "x"),
            ([1 + 2j], [1.0], "x"),
            # a string is not read as the number it spells
            ("12", [1.0, 3.0], "x"),
            ([1.0], [True, False], "y"),
            ([1.0], [None], "y"),
            ([[1.0, 2.0], [3.0]], [1.0], "x"),
        ],
    )
    def test_rejects_non_numeric_observations(self, x, y, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must"):
            mww_test(x, y)

    @pytest.mark.parametrize(
        "x, y, name",
        [(np.arange(6.0).reshape(3, 2), [1.5], "x"), ([1.0], [[2.0, 3.0]], "y")],
    )
    def test_rejects_multi_dimensional_samples(self, x, y, name):
        # a matrix is refused, not read as one pooled sample
        with pytest.raises(InvalidInputError, match=f"^{name} must be a number or a 1-d array"):
            mww_test(x, y)

    def test_accepts_numbers_and_vectors(self):
        assert mww_test(1.0, np.array([2.0, 3.0])) == mww_test([1.0], [2.0, 3.0])


class TestResultFields:
    """A TestResult checks every field, whoever builds it."""

    FIELDS = {
        "method": "kw-chisq",
        "statistic": 1.0,
        "z_or_df": 1.0,
        "p_value": 0.5,
        "alternative": "two-sided",
        "group_sizes": (5, 5),
        "tie_correction_applied": False,
    }

    def test_checks_every_field(self):
        result = rank_tests.TestResult(**self.FIELDS)
        assert result.method is Method.KW_CHISQ
        assert result.alternative is Alternative.TWO_SIDED
        bad = {"z_or_df": "abc", "group_sizes": (5,), "tie_correction_applied": "no"}
        with pytest.raises(InvalidInputError):
            rank_tests.TestResult(**{**self.FIELDS, **bad})
        for name, value in bad.items():
            with pytest.raises(InvalidInputError, match=f"^{name} must"):
                rank_tests.TestResult(**{**self.FIELDS, name: value})

    @pytest.mark.parametrize("method", ["mww-exact", "mww-normal"])
    @pytest.mark.parametrize("sizes", [(5,), (5, 5, 5)])
    def test_two_group_methods_need_two_sizes(self, method, sizes):
        fields = {**self.FIELDS, "method": method, "group_sizes": sizes}
        with pytest.raises(InvalidInputError, match="^group_sizes"):
            rank_tests.TestResult(**fields)

    @pytest.mark.parametrize(
        "changes, name",
        [
            ({"z_or_df": 7.0, "group_sizes": (5, 5, 5)}, "z_or_df"),
            ({"z_or_df": 2.0}, "z_or_df"),
            ({"alternative": "less"}, "alternative"),
            ({"alternative": "greater", "group_sizes": (5, 5, 5), "z_or_df": 2.0}, "alternative"),
            ({"method": "mww-exact", "tie_correction_applied": True}, "tie_correction_applied"),
        ],
    )
    def test_fields_must_agree(self, changes, name):
        with pytest.raises(InvalidInputError, match=f"^{name} of an? [a-z-]+ result must"):
            rank_tests.TestResult(**{**self.FIELDS, **changes})

    def test_agreeing_fields_are_accepted(self):
        kw = {**self.FIELDS, "z_or_df": 2.0, "group_sizes": (5, 5, 5)}
        assert rank_tests.TestResult(**kw).z_or_df == 2.0
        for method, ties in (("mww-exact", False), ("mww-normal", True)):
            fields = {**self.FIELDS, "method": method, "alternative": "less"}
            result = rank_tests.TestResult(**{**fields, "tie_correction_applied": ties})
            assert result.tie_correction_applied is ties


class TestScipyOracle:
    """mww_test and kruskal_wallis_test against scipy's implementations.

    scipy's U is that of its first sample, so mww_test(x, y), whose U is
    the rank sum of y above its minimum, compares with mannwhitneyu(y, x).
    """

    alternatives = ("two-sided", "less", "greater")

    def test_mww_exact_tie_free(self):
        rng = np.random.default_rng(211)
        for i in range(150):
            x = rng.normal(size=int(rng.integers(1, 21)))
            y = rng.normal(size=int(rng.integers(1, 21)))
            alt = self.alternatives[i % 3]
            res = mww_test(x, y, alternative=alt)
            ref = mannwhitneyu(y, x, alternative=alt, method="exact")
            assert res.method is Method.MWW_EXACT
            assert res.statistic == ref.statistic
            assert res.p_value == pytest.approx(ref.pvalue, rel=0, abs=1e-12)

    def test_mww_asymptotic_tied(self):
        rng = np.random.default_rng(223)
        for i in range(150):
            x = rng.integers(0, 6, size=int(rng.integers(2, 31))).astype(float)
            y = rng.integers(0, 6, size=int(rng.integers(2, 31))).astype(float)
            if np.unique(np.concatenate([x, y])).size == 1:
                continue
            alt = self.alternatives[i % 3]
            res = mww_test(x, y, alternative=alt)
            ref = mannwhitneyu(
                y, x, alternative=alt, method="asymptotic", use_continuity=True
            )
            assert res.method is Method.MWW_NORMAL
            assert res.statistic == ref.statistic
            assert res.p_value == pytest.approx(ref.pvalue, rel=0, abs=1e-12)

    def test_kruskal_tied_and_tie_free(self):
        rng = np.random.default_rng(227)
        for i in range(150):
            sizes = rng.integers(1, 15, size=int(rng.integers(2, 6)))
            if i % 2:
                groups = [rng.integers(0, 5, size=k).astype(float) for k in sizes]
            else:
                groups = [rng.normal(size=k) for k in sizes]
            if np.unique(np.concatenate(groups)).size == 1:
                continue
            res = kruskal_wallis_test(groups)
            ref = kruskal(*groups)
            # H is summed in a different order than scipy's, so compare it
            # to rounding rather than bit for bit
            assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
            assert res.p_value == pytest.approx(ref.pvalue, rel=0, abs=1e-12)


class TestBatchedCore:
    """The block kernel behind every rank test, row by row.

    Each row of an (R, n) score block must give the p-value of a one-off
    mww_test/kruskal_wallis_test call on that row bit for bit, and scipy's
    to 1e-12. Every block carries tie-free, tied and all-tied rows.
    """

    @staticmethod
    def block(rng, sizes, decimals):
        scores = rng.normal(size=(12, sum(sizes)))
        scores[4:] = np.round(scores[4:], decimals)
        scores[-1] = 1.0  # every value tied: the zero-variance path
        return scores, np.repeat(np.arange(1, len(sizes) + 1), sizes)

    def test_mww_rows_match_single_calls_and_scipy(self):
        rng = np.random.default_rng(307)
        paths = set()
        cases = itertools.product(((4, 6), (9, 12), (30, 25)), (1, 0), (50, 0))
        for sizes, decimals, threshold in cases:
            scores, labels = self.block(rng, sizes, decimals)
            for alt, correct in itertools.product(Alternative, (True, False)):
                config = DoublyRankedConfig(
                    alternative=alt,
                    exact_threshold=threshold,
                    continuity_correction=correct,
                )
                block = rank_tests._mww_block(scores, labels, config)
                for r, row in enumerate(scores):
                    x, y = row[labels == 1], row[labels == 2]
                    one = mww_test(
                        x,
                        y,
                        alt,
                        exact_threshold=threshold,
                        continuity_correction=correct,
                    )
                    assert block.p_value[r].hex() == one.p_value.hex()
                    assert block.statistic[r].hex() == one.statistic.hex()
                    assert block.ties[r] == one.tie_correction_applied
                    assert block.method[r] == one.method.value
                    if np.ptp(row) == 0.0:
                        paths.add("all tied")
                        assert one.p_value == (0.5, 1.0)[alt is Alternative.TWO_SIDED]
                        continue
                    paths.add((one.method, alt))
                    exact = one.method is Method.MWW_EXACT
                    ref = mannwhitneyu(
                        y,
                        x,
                        alternative=alt.value,
                        method="exact" if exact else "asymptotic",
                        use_continuity=correct,
                    )
                    assert one.p_value == pytest.approx(ref.pvalue, rel=0, abs=1e-12)
        expected = {(m, a) for m in (Method.MWW_EXACT, Method.MWW_NORMAL) for a in Alternative}
        assert paths == expected | {"all tied"}

    def test_kw_rows_match_single_calls_and_scipy(self):
        rng = np.random.default_rng(311)
        for sizes in ((3, 4, 5), (10, 10, 10), (2, 7), (4, 1, 6, 3)):
            for decimals in (1, 0):
                scores, labels = self.block(rng, sizes, decimals)
                block = rank_tests._kw_block(scores, labels, len(sizes))
                for r, row in enumerate(scores):
                    groups = [row[labels == g] for g in range(1, len(sizes) + 1)]
                    one = kruskal_wallis_test(groups)
                    assert block.p_value[r].hex() == one.p_value.hex()
                    assert block.statistic[r].hex() == one.statistic.hex()
                    assert block.ties[r] == one.tie_correction_applied
                    if np.ptp(row) == 0.0:
                        assert (one.statistic, one.p_value) == (0.0, 1.0)
                        continue
                    ref = kruskal(*groups)
                    assert one.p_value == pytest.approx(ref.pvalue, rel=0, abs=1e-12)

    @pytest.mark.parametrize("sizes", [(4, 6), (3, 3, 4)])
    def test_rows_equal_only_across_a_row_boundary_are_tie_free(self, sizes):
        # each row's largest score is the next row's smallest: the sorted
        # block has equal neighbours, but no row has a tie
        rng = np.random.default_rng(317)
        n = sum(sizes)
        scores = np.array([rng.permutation(n) + r * (n - 1.0) for r in range(5)])
        labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        ranks, tie_sum = rank_tests._pooled_ranks(scores)
        assert np.array_equal(ranks, scores - scores.min(axis=1, keepdims=True) + 1.0)
        assert tie_sum.tobytes() == np.zeros(5).tobytes()
        block = rank_tests._score_block(scores, labels, DoublyRankedConfig())
        assert not block.ties.any()
        for r, row in enumerate(scores):
            one = (
                mww_test(row[labels == 1], row[labels == 2])
                if len(sizes) == 2
                else kruskal_wallis_test([row[labels == g] for g in (1, 2, 3)])
            )
            assert one.method.value == block.method[r] != Method.MWW_NORMAL.value
            assert block.p_value[r].hex() == one.p_value.hex()
            assert block.statistic[r].hex() == one.statistic.hex()

    @pytest.mark.parametrize("sizes", [(9, 12), (30, 25), (3, 4, 5), (4, 1, 6, 3)])
    def test_p_values_are_scipy_distribution_tails_bit_for_bit(self, sizes):
        # the normal path (exact_threshold=0) against norm.sf, the chi-square
        # path against chi2.sf, on tie-free, tied and all-tied rows
        rng = np.random.default_rng(313)
        scores, labels = self.block(rng, sizes, 1)
        for alt in Alternative if len(sizes) == 2 else [Alternative.TWO_SIDED]:
            config = DoublyRankedConfig(alternative=alt, exact_threshold=0)
            block = rank_tests._score_block(scores, labels, config)
            if len(sizes) > 2:
                want = chi2.sf(block.statistic, len(sizes) - 1)
            else:
                lower, upper = norm.sf(-block.z_or_df), norm.sf(block.z_or_df)
                want = {
                    Alternative.TWO_SIDED: np.minimum(1.0, 2.0 * np.minimum(lower, upper)),
                    Alternative.LESS: lower,
                    Alternative.GREATER: upper,
                }[alt]
            assert block.p_value.tobytes() == want.tobytes()

    def test_one_tied_pair_among_large_samples(self):
        # n^3 is far above 2^53 here, yet the tie sum of one pair is exactly 6
        rng = np.random.default_rng(331)
        values = rng.permutation(600_000).astype(float)
        values[values == 1.0] = 0.0
        _, tie_sum = rank_tests._pooled_ranks(values[None])
        assert tie_sum.tolist() == [6.0]
        x, y = values[:300_000], values[300_000:]
        assert mww_test(x, y).tie_correction_applied
        assert kruskal_wallis_test([x, y]).tie_correction_applied

    def test_tie_sum_of_heavy_ties_is_exact(self):
        values = np.random.default_rng(337).integers(0, 1000, size=2_000_000).astype(float)
        _, tie_sum = rank_tests._pooled_ranks(values[None])
        t = np.unique(values, return_counts=True)[1]
        assert tie_sum.tolist() == [float(np.sum(t**3 - t))]


class TestKruskalWallis:
    def test_hand_computed(self):
        res = kruskal_wallis_test([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert res.method is Method.KW_CHISQ
        assert res.statistic == pytest.approx(32 / 7, abs=1e-12)
        assert res.z_or_df == 2.0
        assert res.group_sizes == (2, 2, 2)

    def test_identical_constant_groups(self):
        res = kruskal_wallis_test([[5.0, 5.0], [5.0], [5.0, 5.0, 5.0]])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_two_groups_equals_squared_deviate(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            x = rng.normal(size=int(rng.integers(3, 15)))
            y = rng.normal(size=int(rng.integers(3, 15)))
            kw = kruskal_wallis_test([x, y])
            mww = mww_test(x, y, exact_threshold=0, continuity_correction=False)
            assert kw.statistic == pytest.approx(mww.z_or_df**2, rel=1e-10)

    def test_matches_reference_implementation(self):
        from scipy.stats import kruskal

        rng = np.random.default_rng(71)
        groups = [
            rng.integers(0, 6, size=8).astype(float),  # ties across groups
            rng.integers(0, 6, size=11).astype(float),
            rng.integers(0, 6, size=5).astype(float),
        ]
        res = kruskal_wallis_test(groups)
        ref_h, ref_p = kruskal(*groups)
        assert res.statistic == pytest.approx(ref_h, rel=1e-12)
        assert res.p_value == pytest.approx(ref_p, rel=1e-10)

    def test_rejects_single_group(self):
        with pytest.raises(InvalidInputError):
            kruskal_wallis_test([[1.0, 2.0]])

    def test_rejects_non_numeric_observations(self):
        with pytest.raises(InvalidInputError, match=r"^groups\[2\] must"):
            kruskal_wallis_test([[1.0], [2.0], ["3"]])

    def test_rejects_multi_dimensional_samples(self):
        with pytest.raises(InvalidInputError, match=r"^groups\[1\] must be a number or a 1-d"):
            kruskal_wallis_test([[1.0, 4.0], [[2.0, 5.0]], [3.0]])
        # a number is a sample of one
        assert kruskal_wallis_test([1.0, 2.0, [3.0, 4.0]]) == kruskal_wallis_test(
            [[1.0], [2.0], [3.0, 4.0]]
        )

    def test_rejects_empty_group(self):
        # each empty or non-finite sample is named by its index
        for groups, message in (
            ([[1.0], []], r"^groups\[1\] must not be empty"),
            ([[], [1.0]], r"^groups\[0\] must not be empty"),
            ([[1.0], [2.0], [3.0, np.inf]], r"^groups\[2\] must be finite"),
        ):
            with pytest.raises(InvalidInputError, match=message):
                kruskal_wallis_test(groups)

    @pytest.mark.parametrize(
        "groups", [5, None, (x for x in [[1.0], [2.0]]), np.array(3.0), "12"]
    )
    def test_rejects_groups_that_are_not_a_list_of_samples(self, groups):
        with pytest.raises(InvalidInputError, match="^groups must be a list or array of samples"):
            kruskal_wallis_test(groups)

    def test_takes_a_list_tuple_or_array_of_samples(self):
        samples = [[1.0, 4.0, 2.5], [2.0, 5.0, 7.0]]
        result = kruskal_wallis_test(samples)
        assert kruskal_wallis_test(tuple(samples)) == result
        assert kruskal_wallis_test(np.array(samples)) == result


class TestDoublyRanked:
    def test_single_occasion_reduces_to_mww(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n1, n2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            values = rng.normal(size=(n1 + n2, 1))
            curves = make_curves(values, groups=[1] * n1 + [2] * n2)
            dr = doubly_ranked_test(curves)
            uni = mww_test(values[:n1, 0], values[n1:, 0])
            assert dr.statistic == uni.statistic
            assert dr.p_value == uni.p_value
            assert dr.method == uni.method

    def test_single_occasion_reduces_to_kw(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            sizes = [int(rng.integers(2, 7)) for _ in range(3)]
            values = rng.normal(size=(sum(sizes), 1))
            labels = [g + 1 for g, sz in enumerate(sizes) for _ in range(sz)]
            curves = make_curves(values, groups=labels)
            dr = doubly_ranked_test(curves)
            uni = kruskal_wallis_test(
                np.split(values[:, 0], np.cumsum(sizes)[:-1])
            )
            assert dr.statistic == uni.statistic
            assert dr.p_value == uni.p_value

    def test_constant_shift_maximal_statistic(self):
        rng = np.random.default_rng(83)
        base = rng.normal(size=(10, 40))
        values = np.vstack([base, base + 50.0])
        curves = make_curves(values, groups=[1] * 10 + [2] * 10)
        res = doubly_ranked_test(curves)
        assert res.statistic == 100.0  # n1 * n2
        # smallest attainable exact two-sided p at (10, 10)
        probs = exact_mww_null_distribution(10, 10)
        assert res.p_value == pytest.approx(2 * probs[-1], abs=1e-15)

    def test_monotone_invariance_per_occasion(self):
        rng = np.random.default_rng(89)
        values = rng.normal(size=(12, 5))
        transforms = [
            np.exp,
            lambda c: c**3 + 2 * c,
            lambda c: np.arctan(c),
            lambda c: 3 * c + 1,
            lambda c: c,
        ]
        warped = np.column_stack(
            [f(values[:, j]) for j, f in enumerate(transforms)]
        )
        groups = [1] * 6 + [2] * 6
        for summary in SummaryKind:
            cfg = DoublyRankedConfig(summary=summary)
            a = doubly_ranked_test(make_curves(values, groups=groups), cfg)
            b = doubly_ranked_test(make_curves(warped, groups=groups), cfg)
            assert a == b

    def test_summary_choice_changes_scores_not_contract(self):
        rng = np.random.default_rng(97)
        values = rng.normal(size=(14, 9))
        curves = make_curves(values, groups=[1] * 7 + [2] * 7)
        suff = doubly_ranked_test(
            curves, DoublyRankedConfig(summary=SummaryKind.SUFFICIENT)
        )
        avg = doubly_ranked_test(
            curves, DoublyRankedConfig(summary=SummaryKind.AVERAGE_RANK)
        )
        assert suff.group_sizes == avg.group_sizes == (7, 7)

    @pytest.mark.parametrize(
        "values, pve",
        [
            (np.random.default_rng(101).normal(size=(10, 8)), 1.0),
            # one occasion, values tied at one decimal: the one component kept
            # at 0.99 carries the whole variance, so a reconstruction's
            # rounding must not break the ties
            (np.round(np.random.default_rng(1).normal(size=(12, 1)), 1), 0.99),
        ],
        ids=["untied", "tied-one-occasion"],
    )
    def test_preprocess_full_variance_is_identity(self, values, pve):
        curves = make_curves(values)
        plain = doubly_ranked_test(curves)
        smoothed = doubly_ranked_test(
            curves, DoublyRankedConfig(preprocess_pve=pve)
        )
        assert plain == smoothed

    def test_three_groups_route_to_kw(self):
        rng = np.random.default_rng(103)
        values = rng.normal(size=(9, 4))
        curves = make_curves(values, groups=[1, 1, 1, 2, 2, 2, 3, 3, 3])
        res = doubly_ranked_test(curves)
        assert res.method is Method.KW_CHISQ
        assert res.z_or_df == 2.0

    def test_one_sided_rejected_for_three_groups(self, monkeypatch):
        rng = np.random.default_rng(107)
        values = rng.normal(size=(6, 3))
        curves = make_curves(values, groups=[1, 1, 2, 2, 3, 3])
        # refused before any smoothing or ranking
        calls = count_pipeline_calls(monkeypatch)
        for alternative in (Alternative.GREATER, Alternative.LESS):
            config = DoublyRankedConfig(alternative=alternative, preprocess_pve=0.9)
            with pytest.raises(InvalidInputError, match="^alternative must be two-sided"):
                doubly_ranked_test(curves, config)
        assert calls == {"smoothings": 0, "ranked_datasets": 0}

    def test_only_a_curve_set_and_a_config_record_are_taken(self, monkeypatch):
        values = np.random.default_rng(109).normal(size=(6, 3))
        curves = make_curves(values, groups=[1, 1, 1, 2, 2, 2])
        calls = count_pipeline_calls(monkeypatch)
        # an empty mapping is not read as the defaults, nor a mapping of fields as a config
        for config in ({}, {"summary": "average_rank"}, 0, "sufficient"):
            with pytest.raises(InvalidInputError, match="^config must be a DoublyRankedConfig"):
                doubly_ranked_test(curves, config)
        for bad in (values, values.tolist(), None):
            with pytest.raises(InvalidInputError, match="^curves must be a CurveSet"):
                doubly_ranked_test(bad)
        assert calls == {"smoothings": 0, "ranked_datasets": 0}
        # None alone selects the defaults
        assert doubly_ranked_test(curves, None) == doubly_ranked_test(curves, DoublyRankedConfig())

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            DoublyRankedConfig(preprocess_pve=0.0)
        with pytest.raises(InvalidInputError):
            DoublyRankedConfig(preprocess_pve=1.5)
        with pytest.raises(InvalidInputError):
            DoublyRankedConfig(exact_threshold=-1)
        with pytest.raises(InvalidInputError):
            DoublyRankedConfig(exact_threshold=61)
        # a string is not read as a number
        with pytest.raises(InvalidInputError, match="preprocess_pve"):
            DoublyRankedConfig(preprocess_pve="0.9")
        curves = make_curves(np.arange(12.0).reshape(4, 3), groups=[1, 1, 2, 2])
        with pytest.raises(InvalidInputError, match="pve"):
            fpca_smooth(curves, "0.9")
