"""Traced replay of a workload through drtests' public functions.

The replay makes the same calls the program makes, in the same order, and
records a span around each call into a layer: `generate_dataset` (simgen),
`read_curves_csv` (io), `fpca_smooth` (preprocess), `rank_curves`
(ranking), the summary (summaries) and `mww_test`/`kruskal_wallis_test`
(rank_tests). Spans live in memory until the run ends. A harness replay
returns its rejection counts, so the caller can check that it reproduces
`run_type1`/`run_power` cell by cell.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import replace
from time import perf_counter

import numpy as np

from drtests import (
    CurveSet,
    SummaryKind,
    average_rank_summary,
    fpca_smooth,
    generate_dataset,
    kruskal_wallis_test,
    mww_test,
    rank_curves,
    read_curves_csv,
    sufficient_summary,
)

_SUMMARY_FN = {
    SummaryKind.SUFFICIENT: sufficient_summary,
    SummaryKind.AVERAGE_RANK: average_rank_summary,
}


class Tracer:
    """In-memory spans plus the counters recorded at the same boundaries.

    A span is (id, name, start, end, parent id or -1, trace id); spans of
    one pass over the workload share a trace id.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.tied: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._next = 0
        self.trace = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def add(self, span_id: int, name: str, t0: float, t1: float, parent: int) -> None:
        self.spans.append((span_id, name, t0, t1, parent, self.trace))

    def leaf(self, name: str, t0: float, t1: float, parent: int) -> None:
        self.add(self.new_id(), name, t0, t1, parent)

    def self_times(self, scale: dict[int, float]) -> dict[str, float]:
        """Per span name, summed duration minus the time its children cover.

        Each span's self time is multiplied by scale[its trace id].
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for span_id, name, t0, t1, _, trace in self.spans:
            out[name] += scale[trace] * ((t1 - t0) - child_time.get(span_id, 0.0))
        return dict(out)


def _test(scores: np.ndarray, labels: np.ndarray, n_groups: int):
    """The final step of `doubly_ranked_test`, with its default options."""
    if n_groups == 2:
        return mww_test(scores[labels == 1], scores[labels == 2])
    return kruskal_wallis_test([scores[labels == g] for g in range(1, n_groups + 1)])


def _score_and_test(tr: Tracer, curves: CurveSet, summary, parent: int):
    t0 = perf_counter()
    ranks = rank_curves(curves)
    t1 = perf_counter()
    scores = _SUMMARY_FN[summary](ranks).scores
    t2 = perf_counter()
    result = _test(scores, curves.groups, curves.n_groups)
    t3 = perf_counter()
    tr.leaf("ranking", t0, t1, parent)
    tr.leaf("summaries", t1, t2, parent)
    tr.leaf("rank_tests", t2, t3, parent)
    tied = tr.tied[summary.value]
    tied[0] += int(np.unique(scores).size < scores.size)
    tied[1] += 1
    tr.counts["ranking.calls"] += 1
    tr.counts["summaries.calls"] += 1
    tr.counts["rank_tests.calls"] += 1
    tr.counts[f"rank_tests.path.{result.method.value}"] += 1
    return result


def harness_pass(tr: Tracer, call, root: int) -> dict:
    """Replay one `run_type1`/`run_power` call; rejection counts per cell.

    The loop order and the per-summary pipeline mirror the harness:
    schemes, then grid sizes, then shift scales; each replicate is
    generated once and tested under every summary. No workload smooths
    its replicates, so the replay leaves out the harness's optional FPCA
    step; the cell-by-cell count check would catch a grid that used it.
    """
    grid = call.grid
    xis = (0.0,) if call.runner == "type1" else grid.xi_values
    counts = {}
    for scheme in grid.group_schemes:
        for n_points in grid.n_points_values:
            for xi in xis:
                config = replace(grid.base, n_per_group=scheme, n_points=n_points, xi=xi)
                n, K, S = config.n_subjects, config.n_basis, config.n_points
                cell = tr.new_id()
                c0 = perf_counter()
                hits = [0] * len(grid.summaries)
                for rep in range(grid.replicates):
                    t0 = perf_counter()
                    data = generate_dataset(config, rep)
                    tr.leaf("simgen", t0, perf_counter(), cell)
                    tr.counts["simgen.calls"] += 1
                    tr.counts["simgen.basis_flops"] += 2 * n * K * S
                    tr.counts["simgen.draw_bytes"] += 8 * n * (K + S)
                    for j, summary in enumerate(grid.summaries):
                        if _score_and_test(tr, data, summary, cell).p_value <= grid.alpha:
                            hits[j] += 1
                tr.add(cell, "harness", c0, perf_counter(), root)
                for summary, hit in zip(grid.summaries, hits):
                    counts[(scheme, n_points, xi, summary.value)] = hit
    return counts


def cli_call(tr: Tracer, path: str, pve: float, root: int):
    """Replay read -> smooth -> rank -> summarize -> test for one `drt test`."""
    t0 = perf_counter()
    curves, _ = read_curves_csv(path)
    tr.leaf("io", t0, perf_counter(), root)
    tr.counts["io.bytes_read"] += os.path.getsize(path)
    t0 = perf_counter()
    fp = fpca_smooth(curves, pve)
    tr.leaf("preprocess", t0, perf_counter(), root)
    tr.counts["preprocess.calls"] += 1
    tr.counts["preprocess.components_kept"] += fp.components_kept
    smoothed = CurveSet(values=fp.smoothed, grid=curves.grid, groups=curves.groups)
    return _score_and_test(tr, smoothed, SummaryKind.SUFFICIENT, root)
