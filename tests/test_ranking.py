import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.stats import rankdata

from drtests import CurveSet, InvalidInputError, RankCurves, rank_curves, ranking
from drtests.ranking import _midranks
from tests.helpers import make_curves


def column_ranks(values):
    """Mid-ranks of one occasion: rank_curves of a single-column curve set."""
    return rank_curves(make_curves(np.reshape(values, (-1, 1)))).ranks[:, 0]


class TestRankVector:
    def test_distinct_values(self):
        assert column_ranks([3.0, 1.0, 2.0]).tolist() == [3.0, 1.0, 2.0]

    def test_midrank_tie(self):
        assert column_ranks([2.0, 1.0, 2.0]).tolist() == [2.5, 1.0, 2.5]

    def test_sum_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 40)
            vals = rng.integers(0, 5, size=n).astype(float)  # force ties
            assert column_ranks(vals).sum() == pytest.approx(n * (n + 1) / 2)


class TestCurveSet:
    def test_properties(self):
        cs = make_curves([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], groups=[1, 2, 2])
        assert cs.n_subjects == 3
        assert cs.n_points == 2
        assert cs.n_groups == 2
        assert cs.group_sizes == (1, 2)

    def test_arrays_read_only(self):
        cs = make_curves([[1.0], [2.0]])
        with pytest.raises(ValueError):
            cs.values[0, 0] = 7.0
        with pytest.raises(ValueError):
            cs.groups[0] = 2

    def test_rejects_single_subject(self):
        with pytest.raises(InvalidInputError):
            CurveSet(values=[[1.0, 2.0]], grid=[0.0, 1.0], groups=[1])

    def test_rejects_non_finite_values(self):
        with pytest.raises(InvalidInputError):
            make_curves([[1.0], [np.nan]])
        with pytest.raises(InvalidInputError):
            make_curves([[np.inf], [0.0]])

    @pytest.mark.parametrize(
        "values, grid, name",
        [
            ([["1"], ["2"]], [0.5], "values"),
            ([[1.0], [2 + 1j]], [0.5], "values"),
            ([[1.0, 2.0], [3.0]], [0.5, 1.0], "values"),
            ([[1.0], [2.0]], ["0.5"], "grid"),
            ([[1.0], [2.0]], [True], "grid"),
        ],
    )
    def test_rejects_non_numeric_values_and_grid(self, values, grid, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must"):
            CurveSet(values=values, grid=grid, groups=[1, 2])

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(InvalidInputError):
            CurveSet(
                values=[[1.0, 2.0], [3.0, 4.0]], grid=[0.5, 0.5], groups=[1, 2]
            )

    def test_rejects_label_gap(self):
        with pytest.raises(InvalidInputError):
            make_curves([[1.0], [2.0]], groups=[1, 3])

    def test_rejects_single_group(self):
        with pytest.raises(InvalidInputError):
            make_curves([[1.0], [2.0]], groups=[1, 1])

    def test_rejects_group_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            make_curves([[1.0], [2.0]], groups=[1, 2, 2])

    def test_rejects_fractional_labels(self):
        with pytest.raises(InvalidInputError):
            CurveSet(values=[[1.0], [2.0]], grid=[0.5], groups=[1.0, 1.5])

    @pytest.mark.parametrize(
        "groups, message",
        [
            (["a", "b", "a", "b"], "^groups must"),
            ([1.0, np.nan, 2.0, 1.0], "^groups must be finite"),
            ([1.0, 2.0, np.inf, 2.0], "^groups must be finite"),
            # complex, even with zero imaginary parts
            (np.array([1, 1, 2, 2], dtype=complex), "^groups must"),
        ],
        ids=["groups0", "groups1", "groups2", "groups3"],
    )
    def test_rejects_non_integer_labels(self, groups, message):
        # the suite turns warnings into errors, so a cast warning fails here too
        values = [[1.0], [2.0], [3.0], [4.0]]
        with pytest.raises(InvalidInputError, match=message):
            CurveSet(values=values, grid=[0.5], groups=groups)


class TestRankCurves:
    def test_two_by_one(self):
        rc = rank_curves(make_curves([[1.0], [2.0]]))
        assert rc.ranks.tolist() == [[1.0], [2.0]]

    def test_hand_ranked_columns(self):
        rc = rank_curves(make_curves([[1, 9], [2, 8], [3, 7]], groups=[1, 1, 2]))
        assert rc.ranks.tolist() == [[1, 3], [2, 2], [3, 1]]

    def test_constant_column_midranks(self):
        rc = rank_curves(make_curves([[5.0], [5.0], [5.0]], groups=[1, 2, 2]))
        assert rc.ranks.tolist() == [[2.0], [2.0], [2.0]]

    def test_ignores_groups(self):
        values = np.random.default_rng(5).normal(size=(8, 4))
        a = rank_curves(make_curves(values, groups=[1, 1, 1, 1, 2, 2, 2, 2]))
        b = rank_curves(make_curves(values, groups=[1, 2, 1, 2, 1, 2, 1, 2]))
        assert np.array_equal(a.ranks, b.ranks)

    def test_column_sums(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 4, size=(9, 5)).astype(float)
        rc = rank_curves(make_curves(values, groups=[1] * 4 + [2] * 5))
        assert np.allclose(rc.ranks.sum(axis=0), 9 * 10 / 2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(10, 6))
        perm = rng.permutation(10)
        base = rank_curves(make_curves(values))
        permuted = rank_curves(make_curves(values[perm]))
        assert np.array_equal(permuted.ranks, base.ranks[perm])

    def test_monotone_invariance_per_column(self):
        rng = np.random.default_rng(17)
        values = rng.normal(size=(12, 3))
        transformed = np.column_stack(
            [np.exp(values[:, 0]), values[:, 1] ** 3 + 2 * values[:, 1], 5 * values[:, 2] - 1]
        )
        a = rank_curves(make_curves(values))
        b = rank_curves(make_curves(transformed))
        assert np.array_equal(a.ranks, b.ranks)

    def test_null_column_uniform(self):
        # under the null each column's rank for a fixed subject is uniform
        # on {1..n}; chi-square goodness of fit over many replicates
        rng = np.random.default_rng(19)
        n, reps = 6, 3000
        # column r holds replicate r's n draws
        ranks = rank_curves(make_curves(rng.normal(size=(reps, n)).T)).ranks
        counts = np.bincount(ranks[0].astype(int) - 1, minlength=n)
        expected = reps / n
        chi2 = np.sum((counts - expected) ** 2 / expected)
        # 99.9% quantile of chi-square with 5 df is 20.5
        assert chi2 < 20.5

    def test_validation_rejects_bad_matrix(self):
        with pytest.raises(InvalidInputError):
            RankCurves(ranks=[[1.0, 1.0], [2.0, 3.0]])
        with pytest.raises(InvalidInputError):
            RankCurves(ranks=[[0.5], [2.0]])


class TestMidranks:
    """The package's one ranker against scipy's average-method rankdata."""

    @staticmethod
    def check(values, axis):
        ranks = _midranks(values, axis)
        expected = rankdata(values, method="average", axis=axis)
        assert np.array_equal(ranks, expected)
        assert ranks.shape == values.shape
        # the ranked axis innermost, as in scipy's result, so that means
        # over it round the same way
        assert ranks.strides == expected.strides

    @pytest.mark.parametrize(
        "shape, axis",
        [((6, 7), 0), ((6, 7), 1), ((4, 9, 5), 1), ((1, 30, 40), 1)],
    )
    def test_tie_free_tied_and_all_equal(self, shape, axis):
        values = np.random.default_rng(23).normal(size=shape)
        self.check(values, axis)
        self.check(np.round(values, 1), axis)
        self.check(np.full(shape, 2.5), axis)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_contiguous_views(self, axis):
        values = np.random.default_rng(31).normal(size=(5, 8, 6))
        for view in (values.T, values[::-1, :, ::-2], np.round(values, 1)[:, ::-1].T):
            assert not view.flags.c_contiguous
            self.check(view, axis)

    def test_tie_free_rows_are_kept_read_only(self):
        values = np.random.default_rng(37).normal(size=(3, 9, 4))
        self.check(values, 1)
        self.check(values[::-1], 1)
        # a tie-free block's sorted mid-ranks are one read-only 1..n row
        _, mid, tied = ranking._sort_order(values, 1)
        assert not tied and not mid.flags.writeable
        assert np.array_equal(mid, np.broadcast_to(np.arange(1.0, 10.0), (12, 9)))
        assert ranking._sort_order(np.round(values, 0), 1)[2]
        # a block of more than 2^17 values takes the same broadcast row
        big = np.random.default_rng(41).normal(size=(2, (1 << 16) + 1))
        self.check(big, 0)
        assert not ranking._sort_order(big, 0)[2]

    @pytest.mark.parametrize("shape", [(3, 1, 5), (3, 6, 1), (1, 1, 1)])
    def test_single_subject_or_occasion(self, shape):
        values = np.random.default_rng(29).integers(0, 3, size=shape).astype(float)
        self.check(values, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=3, max_side=8),
            elements=st.integers(-3, 3).map(float),
        ),
        st.data(),
    )
    def test_matches_rankdata_on_dense_ties(self, values, data):
        self.check(values, data.draw(st.integers(0, values.ndim - 1)))
