"""Shared construction helpers for the test suite."""

import os

import numpy as np

from drtests import CurveSet, harness, rank_tests

# the real counter, looked up here so that a ShareLog pickles without it
_count_rejections = harness._count_rejections


def make_curves(values, groups=None, grid=None):
    values = np.asarray(values, dtype=float)
    n, s = values.shape
    if groups is None:
        groups = [1] * (n // 2) + [2] * (n - n // 2)
    if grid is None:
        grid = np.arange(1, s + 1) / s
    return CurveSet(values=values, grid=grid, groups=groups)


def forbid_pool(monkeypatch):
    """Fail the test if a run opens its process pool, so nothing is forked."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)


def count_pools(monkeypatch):
    """Record the pools a run opens and the tasks sent to them.

    Returns the lists (opened, tasks), which fill in as runs go: each pool
    opened appends its keyword arguments to opened, each task submitted its
    arguments to tasks.
    """
    opened, tasks = [], []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            tasks.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return opened, tasks


def count_pipeline_calls(monkeypatch):
    """Count the doubly ranked pipeline's smoothings and scored datasets.

    Returns a dict that fills in as the pipeline runs: "smoothings" counts
    calls to the FPCA core `_fpca` (each returns the smoothed matrix, the
    components kept and the variance ratio achieved), "ranked_datasets"
    the datasets ranked per occasion and scored by the block scorer
    `summaries._block_scores`: an (R, n, S) block counts R. The pooled
    ranking of the final test step is not counted.
    """
    calls = {"smoothings": 0, "ranked_datasets": 0}
    smooth, score = rank_tests._fpca, rank_tests._block_scores

    def counted_smooth(x, pve):
        calls["smoothings"] += 1
        smoothed, kept, achieved = fit = smooth(x, pve)
        assert smoothed.shape == x.shape and kept >= 1 and 0.0 < achieved <= 1.0
        return fit

    def counted_score(values, kinds):
        calls["ranked_datasets"] += values.shape[0]
        return score(values, kinds)

    monkeypatch.setattr(rank_tests, "_fpca", counted_smooth)
    monkeypatch.setattr(rank_tests, "_block_scores", counted_score)
    return calls


class ShareLog:
    """Stands in for `harness._count_rejections` and logs every share counted.

    Each call appends its share's bounds and process id to a file, so the
    shares counted in pool processes are logged as well as the one counted
    by the calling process; the log pickles with the task the pool sends.
    With count=False a share counts nothing and returns zero counts, so a
    run of any size only logs its cut.
    """

    def __init__(self, path, count=True):
        self.path, self.count = path, count

    def __call__(self, grid, shapes, start, stop):
        with open(self.path, "a") as fh:
            fh.write(f"{start} {stop} {os.getpid()}\n")
        if self.count:
            return _count_rejections(grid, shapes, start, stop)
        cells = len(shapes) * len(grid.xi_values)
        return np.zeros((cells, len(grid.summaries)), dtype=np.int64)

    def take(self):
        """The (start, stop) shares logged since the last take, in run order.

        Checks that the share at position 0 was counted by this process and
        every other share by another one.
        """
        with open(self.path) as fh:
            logged = sorted(tuple(map(int, line.split())) for line in fh)
        os.remove(self.path)
        assert [pid == os.getpid() for _, _, pid in logged] == [
            start == 0 for start, _, _ in logged
        ]
        return [(start, stop) for start, stop, _ in logged]


def log_shares(monkeypatch, tmp_path, count=True):
    """A ShareLog put in place of `harness._count_rejections`."""
    log = ShareLog(tmp_path / "shares.log", count)
    monkeypatch.setattr(harness, "_count_rejections", log)
    return log
