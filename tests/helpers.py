"""Shared construction helpers for the test suite."""

import numpy as np
from scipy.stats import rankdata

from drtests import CurveSet, RankCurves, rank_tests, ranking


def make_curves(values, groups=None, grid=None):
    values = np.asarray(values, dtype=float)
    n, s = values.shape
    if groups is None:
        groups = [1] * (n // 2) + [2] * (n - n // 2)
    if grid is None:
        grid = np.arange(1, s + 1) / s
    return CurveSet(values=values, grid=grid, groups=groups)


def ranks_from(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return RankCurves(ranks=matrix, n=matrix.shape[0], n_points=matrix.shape[1])


def count_pipeline_calls(monkeypatch):
    """Count the doubly ranked pipeline's smoothing and per-occasion ranking.

    Returns a dict that fills in as the pipeline runs: calls to
    fpca_smooth, and calls to rankdata along axis 0 from the modules that
    rank curves (the pooled ranking of the final rank-sum step is 1-d and
    not counted).
    """
    calls = {"fpca_smooth": 0, "rankdata_axis0": 0}
    smooth = rank_tests.fpca_smooth

    def counted_smooth(*args, **kwargs):
        calls["fpca_smooth"] += 1
        return smooth(*args, **kwargs)

    def counted_rank(*args, **kwargs):
        calls["rankdata_axis0"] += kwargs.get("axis") == 0
        return rankdata(*args, **kwargs)

    monkeypatch.setattr(rank_tests, "fpca_smooth", counted_smooth)
    for module in (ranking, rank_tests):
        monkeypatch.setattr(module, "rankdata", counted_rank, raising=False)
    return calls
