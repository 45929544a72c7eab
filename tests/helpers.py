"""Shared construction helpers for the test suite."""

import numpy as np

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
    """Count the doubly ranked pipeline's smoothings and ranked datasets.

    Returns a dict that fills in as the pipeline runs: "smoothings" counts
    calls to the FPCA core `_fpca` (each returns the smoothed matrix, the
    components kept and the variance ratio achieved), "ranked_datasets"
    the datasets ranked per occasion by the package's one ranker,
    `ranking._midranks`. A 3-d stack of replicates ranked along axis 1
    counts its leading size, a 2-d curve matrix ranked along axis 0
    counts 1. The pooled ranking of the final test step (2-d score rows
    along axis 1) is not counted.
    """
    calls = {"smoothings": 0, "ranked_datasets": 0}
    smooth, rank = rank_tests._fpca, ranking._midranks

    def counted_smooth(x, pve):
        calls["smoothings"] += 1
        smoothed, kept, achieved = fit = smooth(x, pve)
        assert smoothed.shape == x.shape and kept >= 1 and 0.0 < achieved <= 1.0
        return fit

    def counted_rank(values, axis):
        if values.ndim == 3 and axis == 1:
            calls["ranked_datasets"] += values.shape[0]
        elif values.ndim == 2 and axis == 0:
            calls["ranked_datasets"] += 1
        return rank(values, axis)

    monkeypatch.setattr(rank_tests, "_fpca", counted_smooth)
    for module in (ranking, rank_tests):
        monkeypatch.setattr(module, "_midranks", counted_rank)
    return calls
