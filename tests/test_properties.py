"""The paper's invariances of the doubly ranked test, as properties.

Values are small integers, so ties are common and every increasing
transform below maps them to distinct floats in the same order.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from drtests import (
    Alternative,
    DoublyRankedConfig,
    SummaryKind,
    average_rank_summary,
    doubly_ranked_test,
    kruskal_wallis_test,
    mww_test,
    rank_curves,
    sufficient_summary,
)
from tests.helpers import make_curves

_INCREASING = (
    lambda c: 2.0 * c + 1.0,
    lambda c: c**3,
    np.exp,
    np.arctan,
    lambda c: -1.0 / (c + 10.0),
)


@st.composite
def datasets(draw, n_points=st.integers(1, 6), n_groups=st.integers(2, 3)):
    """(values, labels, config): 2 or 3 groups of 1..7 subjects, shuffled."""
    k = draw(n_groups)
    sizes = draw(st.lists(st.integers(1, 7), min_size=k, max_size=k))
    values = draw(
        arrays(
            np.float64,
            (sum(sizes), draw(n_points)),
            elements=st.integers(-6, 6).map(float),
        )
    )
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    labels = np.asarray(draw(st.permutations(labels)))
    alternative = Alternative.TWO_SIDED
    if len(sizes) == 2:
        alternative = draw(st.sampled_from(Alternative))
    config = DoublyRankedConfig(
        summary=draw(st.sampled_from(SummaryKind)), alternative=alternative
    )
    return values, labels, config


def _test(values, labels, config):
    return doubly_ranked_test(make_curves(values, groups=labels), config)


@settings(max_examples=60, deadline=None)
@given(datasets(), st.data())
def test_increasing_transform_per_occasion(dataset, data):
    values, labels, config = dataset
    picks = data.draw(
        st.lists(
            st.sampled_from(_INCREASING),
            min_size=values.shape[1],
            max_size=values.shape[1],
        )
    )
    warped = np.column_stack([f(values[:, j]) for j, f in enumerate(picks)])
    assert _test(warped, labels, config) == _test(values, labels, config)


@settings(max_examples=60, deadline=None)
@given(datasets(), st.randoms(use_true_random=False))
def test_reordering_subjects_with_labels(dataset, random):
    values, labels, config = dataset
    order = list(range(labels.size))
    random.shuffle(order)
    reordered = _test(values[order], labels[order], config)
    assert reordered == _test(values, labels, config)


@settings(max_examples=60, deadline=None)
@given(datasets(n_points=st.just(1)))
def test_single_occasion_is_the_univariate_test(dataset):
    values, labels, config = dataset
    column = values[:, 0]
    groups = [column[labels == g] for g in range(1, labels.max() + 1)]
    if len(groups) == 2:
        univariate = mww_test(*groups, alternative=config.alternative)
    else:
        univariate = kruskal_wallis_test(groups)
    assert _test(values, labels, config) == univariate


@settings(max_examples=60, deadline=None)
@given(datasets(n_groups=st.integers(3, 4)), st.randoms(use_true_random=False))
def test_relabelling_groups(dataset, random):
    values, labels, config = dataset
    perm = list(range(1, labels.max() + 1))
    random.shuffle(perm)
    relabelled = _test(values, np.asarray(perm)[labels - 1], config)
    result = _test(values, labels, config)
    # H sums its group terms in label order, so it may move by a few ulps
    assert relabelled.statistic == pytest.approx(result.statistic, rel=1e-12)
    assert relabelled.p_value == pytest.approx(result.p_value, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(datasets(n_groups=st.just(2)))
def test_negating_values(dataset):
    values, labels, config = dataset
    ranks = rank_curves(make_curves(values, groups=labels))
    flipped = rank_curves(make_curves(-values, groups=labels))
    # each rank z becomes n+1-z, and t(n+1-z) = -t(z)
    assert np.array_equal(
        sufficient_summary(flipped).scores, -sufficient_summary(ranks).scores
    )
    assert average_rank_summary(flipped).scores == pytest.approx(
        len(values) + 1 - average_rank_summary(ranks).scores, rel=1e-12
    )
    for less, greater in (
        (Alternative.LESS, Alternative.GREATER),
        (Alternative.GREATER, Alternative.LESS),
    ):
        p_flipped = _test(-values, labels, replace(config, alternative=less)).p_value
        p = _test(values, labels, replace(config, alternative=greater)).p_value
        assert p_flipped == pytest.approx(p, rel=1e-12)
