"""The four records that hold arrays, at their boundary.

Every array field is kept as a checked read-only float copy of its stated
dimension, so each refuses what the shared check refuses, naming the
field; the fuzzer requires every constructor call to return or raise
InvalidInputError.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.stats import rankdata

from drtests import (
    CurveSet,
    FpcaResult,
    InvalidInputError,
    RankCurves,
    SummaryScores,
    rank_curves,
)
from tests.helpers import make_curves

# Valid arguments of each record, and the dimensions of its array fields
VALID = {
    CurveSet: dict(values=[[1.0], [2.0]], grid=[0.5], groups=[1, 2]),
    RankCurves: dict(ranks=[[1.0], [2.0]]),
    SummaryScores: dict(scores=[1.0, 2.0], kind="average_rank"),
    FpcaResult: dict(
        smoothed=[[1.0], [2.0]], mean_curve=[1.5], components_kept=1, pve_achieved=1.0
    ),
}
ARRAYS = {
    CurveSet: {"values": 2, "grid": 1, "groups": 1},
    RankCurves: {"ranks": 2},
    SummaryScores: {"scores": 1},
    FpcaResult: {"smoothed": 2, "mean_curve": 1},
}
FIELDS = [(record, name) for record, names in ARRAYS.items() for name in names]


def bad_value(value, kind):
    """value (a valid field) as strings, bools or complex numbers, or a ragged list."""
    array = np.asarray(value, dtype=float)
    if kind == "ragged":
        return [[1.0], [2.0, 3.0]]
    return {"str": array.astype(str), "bool": array > 1, "complex": array + 0j}[kind].tolist()


@pytest.mark.parametrize("record, name", FIELDS, ids=[name for _, name in FIELDS])
class TestArrayFields:
    def test_kept_as_read_only_float_copy(self, record, name):
        given_array = np.asarray(VALID[record][name], dtype=np.int64)
        kept = getattr(record(**{**VALID[record], name: given_array}), name)
        assert kept.dtype == np.float64 and not kept.flags.writeable
        assert np.array_equal(kept.ravel(), given_array.ravel())
        assert not np.shares_memory(kept, given_array)

    @pytest.mark.parametrize("kind", ["str", "bool", "complex", "ragged"])
    def test_refuses_what_is_not_a_real_array(self, record, name, kind):
        bad = bad_value(VALID[record][name], kind)
        with pytest.raises(InvalidInputError, match=f"^{name} must"):
            record(**{**VALID[record], name: bad})

    def test_refuses_more_dimensions(self, record, name):
        # a vector field is not flattened from a matrix, nor a matrix from a stack
        ndim = ARRAYS[record][name]
        bad = np.asarray(VALID[record][name])[None]
        assert bad.ndim == ndim + 1
        message = rf"^{name} must be a number or a {ndim}-d array, got shape \(1,"
        with pytest.raises(InvalidInputError, match=message):
            record(**{**VALID[record], name: bad})


class TestRecordContracts:
    @pytest.mark.parametrize(
        "ranks, message",
        [
            # the right column sum, but not mid-ranks
            ([[1.2], [1.8]], "^ranks must be mid-ranks"),
            ([[0.5], [2.5]], "^ranks must be mid-ranks"),
            ([[2.0], [2.0]], "^ranks must be mid-ranks"),
            ([[1.0], [np.nan]], "^ranks must be finite"),
            ([[np.inf], [1.0]], "^ranks must be finite"),
        ],
        ids=["ranks0", "ranks1", "ranks2", "ranks3", "ranks4"],
    )
    def test_rank_curves_refuse_what_is_not_mid_ranks(self, ranks, message):
        with pytest.raises(InvalidInputError, match=message):
            RankCurves(ranks=ranks)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        arrays(
            np.int64,
            st.tuples(st.integers(2, 9), st.integers(1, 6)),
            elements=st.integers(-2, 2),
        ),
        st.data(),
    )
    def test_rank_curves_accept_mid_ranks_only(self, values, data):
        ranks = rank_curves(make_curves(values)).ranks
        assert np.array_equal(ranks, rankdata(values, axis=0))
        n, s = ranks.shape
        assert np.array_equal(RankCurves(ranks).ranks, ranks)
        # one changed entry changes its column's sum, which mid-ranks fix
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, s - 1))
        changed = ranks.copy()
        changed[i, j] += data.draw(st.sampled_from([-1.0, -0.5, 0.1, 0.5, 1.0]))
        with pytest.raises(InvalidInputError):
            RankCurves(changed)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_rank_curves_refuse_an_empty_matrix(self, shape):
        with pytest.raises(InvalidInputError, match="^ranks must not be empty"):
            RankCurves(np.empty(shape))

    @pytest.mark.parametrize("kind", ["sufficient", "average_rank"])
    def test_summary_scores_refuse_an_empty_vector(self, kind):
        with pytest.raises(InvalidInputError, match="^scores must not be empty"):
            SummaryScores([], kind)

    @pytest.mark.parametrize(
        "mean_curve, message",
        [
            ([1.5, 2.5], "^mean_curve must hold one value per column of smoothed"),
            ([], "^mean_curve must not be empty"),
            ([np.nan], "^mean_curve must be finite"),
            ([np.inf], "^mean_curve must be finite"),
        ],
        ids=["long", "empty", "nan", "inf"],
    )
    def test_fpca_result_refuses_a_mean_curve_unlike_its_columns(self, mean_curve, message):
        with pytest.raises(InvalidInputError, match=message):
            FpcaResult(**{**VALID[FpcaResult], "mean_curve": mean_curve})

    def test_fpca_result_keeps_at_most_min_shape_components(self):
        smoothed = np.arange(6.0).reshape(3, 2)
        fields = dict(smoothed=smoothed, mean_curve=[2.0, 3.0], pve_achieved=1.0)
        assert FpcaResult(**fields, components_kept=2).components_kept == 2
        for kept in (3, 5):
            with pytest.raises(InvalidInputError, match=r"^components_kept must be at most"):
                FpcaResult(**fields, components_kept=kept)

    def test_curve_set_label_check_is_sized_by_the_distinct_labels(self):
        # a range up to the largest label would hold 7.6 MiB here
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="^group labels must be integers 1..G"):
                CurveSet(values=[[1.0], [2.0]], grid=[0.5], groups=[1, 10**6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# Numbers up to 10^6 in size, so a label never asks for more than a few MiB,
# and the non-finite floats
NUMBERS = st.one_of(
    st.integers(-3, 10**6),
    st.floats(-1e6, 1e6),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
# array arguments: numpy arrays of each dtype kind, nested lists (scalars,
# flat or rectangular or ragged), and lists whose rows differ in length
ARRAY_ARGUMENTS = st.one_of(
    arrays(bool, SHAPES),
    arrays(np.int64, SHAPES, elements=st.integers(-3, 10**6)),
    arrays(np.uint32, SHAPES, elements=st.integers(0, 10**6)),
    arrays(np.float64, SHAPES, elements=NUMBERS.map(float)),
    arrays(complex, SHAPES, elements=NUMBERS.map(complex)),
    arrays("U24", SHAPES, elements=NUMBERS.map(str)),
    arrays(object, SHAPES, elements=st.one_of(NUMBERS, st.text(max_size=2))),
    st.recursive(
        st.one_of(NUMBERS, st.booleans(), st.text(max_size=2)),
        lambda inner: st.lists(inner, max_size=4),
        max_leaves=12,
    ),
    st.tuples(st.lists(NUMBERS, max_size=2), st.lists(NUMBERS, min_size=3, max_size=4)).map(list),
)


@st.composite
def record_calls(draw):
    """A record and its arguments, with one array field drawn at random."""
    record, name = draw(st.sampled_from(FIELDS))
    kwargs = {**VALID[record], name: draw(ARRAY_ARGUMENTS)}
    if record is SummaryScores:
        kwargs["kind"] = draw(st.sampled_from(["sufficient", "average_rank"]))
    return record, kwargs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(record_calls())
def test_record_constructors_raise_only_invalid_input(call):
    # the suite turns warnings into errors, so a cast warning fails here too
    record, kwargs = call
    try:
        record(**kwargs)
    except InvalidInputError:
        pass
