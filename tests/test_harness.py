import csv
import json
import math
import multiprocessing
import os
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtests import (
    CellResult,
    CellSpec,
    CoeffDist,
    CurveSet,
    DoublyRankedConfig,
    ExperimentGrid,
    InvalidInputError,
    MeanShape,
    NoiseKind,
    SimConfig,
    SummaryKind,
    doubly_ranked_test,
    generate_dataset,
    grid_from_dict,
    harness,
    load_grid,
    preprocess,
    rank_tests,
    read_results,
    run_power,
    run_type1,
    simgen,
    write_results,
)
from tests.helpers import count_pipeline_calls, count_pools, forbid_pool, log_shares


def small_grid(**overrides):
    params = dict(
        base=SimConfig(
            n_per_group=(5, 5),
            n_points=8,
            n_basis=30,
            noise=NoiseKind.AR1,
            seed=314,
        ),
        n_points_values=(8,),
        group_schemes=((5, 5),),
        xi_values=(0.0, 1.5),
        replicates=120,
        alpha=0.05,
    )
    params.update(overrides)
    return ExperimentGrid(**params)


class TestRunType1:
    def test_cell_layout_and_stderr(self):
        results = run_type1(small_grid())
        assert len(results) == 2  # one scheme x one grid size x two summaries
        for res in results:
            assert res.cell.xi == 0.0
            assert res.replicates_used == 120
            assert res.mc_stderr == pytest.approx(
                np.sqrt(res.rejection_rate * (1 - res.rejection_rate) / 120)
            )
        assert results[0].cell.summary is SummaryKind.SUFFICIENT
        assert results[1].cell.summary is SummaryKind.AVERAGE_RANK

    def test_rate_near_alpha(self):
        results = run_type1(small_grid(replicates=400))
        for res in results:
            assert abs(res.rejection_rate - 0.05) < 0.05

    def test_worker_determinism(self, monkeypatch):
        # a share of a single curve value, so these small runs fork
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        # also fewer replicates than 2 * workers, and than workers
        for replicates in (120, 4, 2):
            grid = small_grid(replicates=replicates)
            serial = run_type1(grid, workers=1)
            parallel = run_type1(grid, workers=3)
            assert serial == parallel

    def test_forces_zero_shift(self):
        # even if the template carries a shift, type-1 cells run at xi = 0
        grid = small_grid(
            base=SimConfig(
                n_per_group=(5, 5),
                n_points=8,
                n_basis=30,
                noise=NoiseKind.AR1,
                mean_shape="linear",
                xi=2.0,
                seed=314,
            )
        )
        results = run_type1(grid)
        for res in results:
            assert res.cell.xi == 0.0
            assert res.rejection_rate < 0.2


@st.composite
def cut_runs(draw):
    """Small shapes and shifts, replicates, a budget, and a cut of the replicates into ranges."""
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from([(2, 2), (3, 2), (2, 2, 3)]), st.integers(1, 5)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    xi_values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=1, max_size=4))
    replicates = draw(st.integers(1, 8))
    budget = draw(st.one_of(st.just(1), st.integers(2, 60), st.just(10**9)))
    cuts = draw(st.lists(st.booleans(), min_size=replicates - 1, max_size=replicates - 1))
    bounds = [0, *(r for r, cut in enumerate(cuts, start=1) if cut), replicates]
    return pairs, tuple(xi_values), replicates, budget, bounds


class TestPipelineCalls:
    def test_smooth_and_rank_once_per_replicate(self, monkeypatch):
        # two summaries share one smoothing and one ranking of each dataset
        calls = count_pipeline_calls(monkeypatch)
        grid = small_grid(replicates=6, preprocess_pve=0.9)
        assert len(grid.summaries) == 2
        assert len(run_type1(grid)) == 2
        assert calls == {"smoothings": 6, "ranked_datasets": 6}

    def test_no_curveset_or_testresult_per_replicate(self, monkeypatch):
        built = {"CurveSet": 0, "TestResult": 0}
        # rank_tests.TestResult, since a bare Test* name would be collected
        for cls in (CurveSet, rank_tests.TestResult):

            def counted(self, post_init=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        grid = small_grid(
            replicates=6, preprocess_pve=0.9, group_schemes=((5, 5), (3, 3, 4))
        )
        shapes = [replace(grid.base, n_per_group=s) for s in grid.group_schemes]
        # one share of both shapes' 6 replicates at 2 shifts: (cells, summaries) counts
        counts = harness._count_rejections(grid, shapes, 0, 6)
        assert counts.shape == (4, 2) and counts.dtype == np.int64
        assert built == {"CurveSet": 0, "TestResult": 0}
        # the counters do see the one-off path
        doubly_ranked_test(generate_dataset(grid.base))
        assert built == {"CurveSet": 1, "TestResult": 1}

    def test_smoothed_grid_builds_no_fpca_result(self, monkeypatch):
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            group_schemes=((5, 5), (3, 3, 4)),
            replicates=20,
            preprocess_pve=0.9,
        )
        # one block holds both shifts' 40 replicates of a scheme (n = 10)
        assert 2 * grid.replicates * 10 * 8 < harness._BUDGET
        # rows run by scheme, then summary, then shift
        expected = []
        for scheme in grid.group_schemes:
            for kind in grid.summaries:
                for xi in grid.xi_values:
                    config = replace(grid.base, n_per_group=scheme, xi=xi)
                    rejected = 0
                    for r in range(grid.replicates):
                        curves = generate_dataset(config, replicate=r)
                        fit = preprocess.fpca_smooth(curves, grid.preprocess_pve)
                        smoothed = CurveSet(fit.smoothed, curves.grid, curves.groups)
                        test = DoublyRankedConfig(summary=kind)
                        p = doubly_ranked_test(smoothed, test).p_value
                        rejected += p <= grid.alpha
                    expected.append(rejected / grid.replicates)

        built = []
        post_init = preprocess.FpcaResult.__post_init__
        monkeypatch.setattr(
            preprocess.FpcaResult,
            "__post_init__",
            lambda self: (built.append(self), post_init(self)),
        )
        rates = [r.rejection_rate for r in run_power(grid)]
        assert built == []
        assert rates == expected
        assert 0 < sum(rates) < len(rates)

    def test_counts_do_not_depend_on_block_bounds(self, monkeypatch):
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            n_points_values=(120,),
            group_schemes=((10, 10), (6, 6, 6)),
            xi_values=(0.0, 0.6),
            replicates=40,
        )
        # a block holds 13 (two groups) or 15 (three groups) replicates, so
        # 1, 2 and 3 workers cut the replicate range at different points
        assert 20 * 120 < harness._BUDGET < 40 * 18 * 120
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        reference = run_power(grid)
        assert 0 < sum(r.rejection_rate for r in reference) < len(reference)
        for workers in (2, 3):
            assert run_power(grid, workers=workers) == reference
        for budget in (1, 2 * 20 * 120, 7 * 20 * 120, 10**9):
            monkeypatch.setattr(harness, "_BUDGET", budget)
            assert run_power(grid) == reference

    def test_score_rows_are_tested_in_batches_of_whole_blocks(self, monkeypatch):
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            group_schemes=((5, 5), (4, 4, 4)),
            xi_values=(0.0, 0.5, 1.0, 2.0),
            replicates=6,
        )
        shapes = [replace(grid.base, n_per_group=scheme) for scheme in grid.group_schemes]
        reference = harness._count_rejections(grid, shapes, 0, 6)
        tested, score_block = [], harness._score_block

        def counted(scores, labels, config):
            tested.append((labels.size, len(scores)))
            return score_block(scores, labels, config)

        monkeypatch.setattr(harness, "_score_block", counted)
        # n·S of 80 and 96 exceed the budget, so each curve block is one
        # position, and a batch holds 50 // n of them: 5 (n = 10) or 4 (n = 12)
        monkeypatch.setattr(harness, "_BUDGET", 50)
        counts = harness._count_rejections(grid, shapes, 0, 6)
        assert np.array_equal(counts, reference) and 0 < counts.sum() < counts.size * 6
        # one call per summary per batch, not one per position
        per_batch = [5] * 4 + [4] + [4] * 6
        size = [10] * 5 + [12] * 6
        assert tested == [(n, rows) for n, rows in zip(size, per_batch) for _ in range(2)]
        # shares that end inside a batch count the same in their processes:
        # of the 3 shares of replicates 0..1, 2..3 and 4..5 at 4 shifts, the
        # first stops at position 8 of the first shape, inside its batch 5..9
        monkeypatch.setattr(harness, "_score_block", score_block)
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        parts = [harness._count_rejections(grid, shapes, a, a + 2) for a in (0, 2, 4)]
        assert np.array_equal(sum(parts), reference)
        serial = run_power(grid)
        for workers in (2, 3):
            assert run_power(grid, workers=workers) == serial
        # rows run by scheme, then summary, then shift
        cells = reference.reshape(2, 4, 2).transpose(0, 2, 1).ravel()
        assert [round(r.rejection_rate * 6) for r in serial] == list(cells)

    def test_blocks_stop_where_the_shape_changes(self, monkeypatch):
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="parabola"),
            xi_values=(0.0, 3.0),
            replicates=6,
        )
        shapes = [
            replace(grid.base, n_per_group=(5, 5)),
            replace(grid.base, n_per_group=(4, 4, 4), n_points=6),
        ]
        # blocks of 7 positions (n·S of 80) or 8 (n·S of 72) would cross from
        # the first shape's 12 positions into the second's if they did not stop
        monkeypatch.setattr(harness, "_BUDGET", 7 * 80 + 70)
        counts = harness._count_rejections(grid, shapes, 0, 6)
        alone = [harness._count_rejections(grid, [s], 0, 6) for s in shapes]
        assert np.array_equal(counts, np.vstack(alone))
        # shares that start and stop inside a shape's blocks count the same
        bounds = ((0, 2), (2, 5), (5, 6))
        parts = [harness._count_rejections(grid, shapes, a, b) for a, b in bounds]
        assert np.array_equal(sum(parts), counts)
        assert counts[1].sum() > counts[0].sum() and counts[3].sum() > counts[2].sum()

    def test_counts_go_to_their_cell(self, monkeypatch):
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            xi_values=(0.0, 0.5, 1.0, 2.0, 4.0),
            replicates=5,
        )
        # blocks of 3 positions (n·S = 80) span cells; 5 replicates leave a
        # remainder at 2, 3 and 4 workers, and 7 workers cut one share each
        monkeypatch.setattr(harness, "_BUDGET", 3 * 80)
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        reference = run_power(grid)
        assert len({r.rejection_rate for r in reference}) > 2
        for workers in (2, 3, 4, 7):
            assert run_power(grid, workers=workers) == reference
        # a single-shift run cannot span cells, so a row credited to a
        # neighbouring cell shows here
        alone = [run_power(replace(grid, xi_values=(xi,))) for xi in grid.xi_values]
        assert reference == [rows[j] for j in range(2) for rows in alone]

    def test_each_replicate_drawn_once_per_shape(self, monkeypatch):
        drawn = []
        base_values = harness._base_values

        def counted(config, replicates):
            # a block inside a replicate's cells reuses it without a call
            assert len(replicates) > 0
            drawn.extend((config.n_per_group, r) for r in replicates)
            return base_values(config, replicates)

        monkeypatch.setattr(harness, "_base_values", counted)
        # blocks of 3 positions cut through the 4 shift cells of a replicate
        monkeypatch.setattr(harness, "_BUDGET", 3 * 100)
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            group_schemes=((5, 5), (4, 4, 4)),
            xi_values=(0.0, 0.5, 1.0, 2.0),
            replicates=6,
        )
        run_power(grid)
        assert drawn == [(s, r) for s in grid.group_schemes for r in range(6)]
        # one position per block: every block after a replicate's first
        # lies inside its cells
        drawn.clear()
        monkeypatch.setattr(harness, "_BUDGET", 1)
        run_power(grid)
        assert drawn == [(s, r) for s in grid.group_schemes for r in range(6)]

    def test_replicates_drawn_in_chunks_of_whole_replicates(self, monkeypatch):
        drawn = []
        base_values = harness._base_values

        def counted(config, replicates):
            drawn.append((config.n_per_group, list(replicates)))
            return base_values(config, replicates)

        monkeypatch.setattr(harness, "_base_values", counted)
        # blocks of 3 positions cut through the 4 shift cells of a replicate
        monkeypatch.setattr(harness, "_BUDGET", 3 * 100)
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            group_schemes=((5, 5), (4, 4, 4)),
            xi_values=(0.0, 0.5, 1.0, 2.0),
            replicates=6,
        )
        shapes = [replace(grid.base, n_per_group=s) for s in grid.group_schemes]
        chunks = [max(1, harness._BUDGET // (c.n_subjects * c.n_points)) for c in shapes]
        assert chunks == [3, 3]
        reference = run_power(grid)
        # one call per chunk of whole replicates per shape, not one per block
        assert drawn == [
            (shape.n_per_group, list(range(r, min(r + chunk, 6))))
            for shape, chunk in zip(shapes, chunks)
            for r in range(0, 6, chunk)
        ]
        # shares that end inside a chunk (replicates 0..1 of 0..2) or start
        # inside one (2..3) count the same and draw each of their replicates
        # once, in chunks of whole replicates, each of `chunk` replicates but
        # the last
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        for workers in (2, 3):
            assert run_power(grid, workers=workers) == reference
            bounds = [6 * j // workers for j in range(workers + 1)]
            for a, b in zip(bounds, bounds[1:]):
                drawn.clear()
                harness._count_rejections(grid, shapes, a, b)
                assert drawn == [
                    (shape.n_per_group, list(range(r, min(r + chunk, b))))
                    for shape, chunk in zip(shapes, chunks)
                    for r in range(a, b, chunk)
                ]

    def test_one_unchecked_shift_call_per_run(self, monkeypatch):
        runs, shift = [], harness._shift

        def counted_shift(config, xi_values):
            runs.append((config.n_per_group, xi_values))
            return shift(config, xi_values)

        monkeypatch.setattr(harness, "_shift", counted_shift)
        # blocks of 3 positions cut through the 4 shift cells of a replicate
        monkeypatch.setattr(harness, "_BUDGET", 3 * 100)
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="beta-bump"),
            group_schemes=((5, 5), (4, 4, 4)),
            xi_values=(0.0, 0.5, 1.0, 2.0),
            replicates=6,
        )
        run_power(grid)  # one share, counted in this process
        assert runs == [(scheme, grid.xi_values) for scheme in grid.group_schemes]

    def test_one_checked_config_per_shape(self, monkeypatch):
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            n_points_values=(8, 12),
            group_schemes=((5, 5), (4, 4, 4)),
            xi_values=harness._DEFAULT_XI,
            replicates=2,
        )
        assert len(grid.xi_values) == 26
        checked, post_init = [], SimConfig.__post_init__

        def counted(self):
            checked.append((self.n_per_group, self.n_points))
            post_init(self)

        monkeypatch.setattr(SimConfig, "__post_init__", counted)
        run_power(grid)
        # one per (scheme, grid size), none per shift
        assert checked == [(g, s) for g in grid.group_schemes for s in grid.n_points_values]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cut_runs())
    def test_any_cut_of_whole_replicates_counts_the_same(self, run):
        pairs, xi_values, replicates, budget, bounds = run
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            xi_values=xi_values,
            replicates=replicates,
            alpha=0.5,
        )
        shapes = [replace(grid.base, n_per_group=g, n_points=s) for g, s in pairs]
        drawn, base_values = [], harness._base_values

        def counted(config, chunk):
            drawn.append((shapes.index(config), list(chunk)))
            return base_values(config, chunk)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_BUDGET", budget)
            mp.setattr(harness, "_base_values", counted)
            whole = harness._count_rejections(grid, shapes, 0, replicates)
            parts = []
            for a, b in zip(bounds, bounds[1:]):
                drawn.clear()
                parts.append(harness._count_rejections(grid, shapes, a, b))
                # replicates a..b - 1 of every shape, each drawn once, shape by shape
                assert [(k, r) for k, chunk in drawn for r in chunk] == [
                    (k, r) for k in range(len(shapes)) for r in range(a, b)
                ]
        assert np.array_equal(sum(parts), whole)


class TestRunPower:
    def test_ordering_and_null_cell(self):
        grid = small_grid(
            base=SimConfig(
                n_per_group=(5, 5),
                n_points=8,
                n_basis=30,
                noise=NoiseKind.AR1,
                mean_shape="linear",
                seed=314,
            )
        )
        power = run_power(grid)
        # per summary: consecutive xi rows
        assert [r.cell.xi for r in power] == [0.0, 1.5, 0.0, 1.5]
        assert [r.cell.summary for r in power] == [
            SummaryKind.SUFFICIENT,
            SummaryKind.SUFFICIENT,
            SummaryKind.AVERAGE_RANK,
            SummaryKind.AVERAGE_RANK,
        ]
        # the xi=0 rows reuse the null datasets, so they equal type-1 cells
        type1 = run_type1(grid)
        assert power[0].rejection_rate == type1[0].rejection_rate
        assert power[2].rejection_rate == type1[1].rejection_rate

    def test_shift_raises_rejection(self):
        grid = small_grid(
            base=SimConfig(
                n_per_group=(5, 5),
                n_points=8,
                n_basis=30,
                noise=NoiseKind.AR1,
                mean_shape="parabola",
                seed=314,
            ),
            xi_values=(0.0, 3.0),
        )
        power = run_power(grid)
        assert power[1].rejection_rate > power[0].rejection_rate + 0.3

    def test_worker_determinism(self, monkeypatch):
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        grid = small_grid(
            base=SimConfig(
                n_per_group=(5, 5),
                n_points=8,
                n_basis=30,
                mean_shape="linear",
                seed=271,
            ),
            xi_values=(0.0, 2.0),
            replicates=90,
        )
        # also fewer replicates than 2 * workers, and than workers
        for replicates in (90, 3, 1):
            grid = replace(grid, replicates=replicates)
            assert run_power(grid, workers=1) == run_power(grid, workers=2)

    def test_rows_equal_rows_built_by_the_checked_constructors(self):
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            group_schemes=((5, 5), (3, 3, 4)),
            replicates=7,
            preprocess_pve=0.9,
        )
        rows, base = run_power(grid), grid.base
        checked = [
            CellSpec(
                coeff_dist=base.coeff_dist.value,
                mean_shape=base.mean_shape.value,
                xi=xi,
                noise=base.noise.value,
                rho=base.rho,
                n_points=8,
                n_basis=base.n_basis,
                group_sizes=list(scheme),
                summary=kind.value,
                alpha=grid.alpha,
                seed=base.seed,
                preprocess_pve=grid.preprocess_pve,
            )
            for scheme in grid.group_schemes
            for kind in grid.summaries
            for xi in grid.xi_values
        ]
        assert [row.cell for row in rows] == checked
        for row, cell in zip(rows, checked):
            assert type(row.rejection_rate) is float and type(row.mc_stderr) is float
            built = CellResult(cell, row.rejection_rate, grid.replicates, row.mc_stderr)
            assert row == built and hash(row) == hash(built)
            assert hash(row.cell) == hash(cell)
            assert pickle.loads(pickle.dumps(row)) == row
        assert 0 < sum(row.rejection_rate for row in rows) < len(rows)

    def test_one_pool_per_run(self, monkeypatch):
        opened, tasks = count_pools(monkeypatch)
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        grid = small_grid(replicates=8)
        assert len(grid.xi_values) == 2
        # 8 replicates of equal cost at 2 shifts: one share per process; this
        # process counts the first, and the pool's workers − 1 processes take
        # one task each
        for workers in (2, 3):
            run_power(grid, workers=workers)
            assert opened[-1]["max_workers"] == workers - 1
            assert len(tasks) == workers - 1
            tasks.clear()
        assert len(opened) == 2
        run_power(grid, workers=1)
        assert len(opened) == 2 and not tasks
        # a single share opens no pool
        run_power(small_grid(replicates=1, xi_values=(0.0,)), workers=2)
        assert len(opened) == 2

    def test_a_run_uses_at_most_one_process_per_replicate(self, monkeypatch):
        # two shapes of 2 replicates: 2 shares at 4 workers, one counted here
        # and one in a pool of a single process
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            group_schemes=((5, 5), (3, 3, 4)),
            replicates=2,
        )
        serial = run_power(grid)
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        opened, tasks = count_pools(monkeypatch)
        assert run_power(grid, workers=4) == serial
        assert opened == [{"max_workers": 1}] and len(tasks) == 1

    def test_small_run_counts_in_this_process(self, monkeypatch):
        # the perfbench power_pool grid at two processors: 104 positions of
        # n·S = 800 hold fewer than 2 · _SHARE_MIN curve values
        grid = ExperimentGrid(
            base=SimConfig(
                n_per_group=(10, 10),
                n_points=40,
                n_basis=200,
                mean_shape="linear",
                noise=NoiseKind.AR1,
                seed=1,
            ),
            n_points_values=(40,),
            group_schemes=((10, 10),),
            replicates=4,
        )
        assert 26 * 4 * 800 < 2 * harness._SHARE_MIN
        serial = run_power(grid)
        forbid_pool(monkeypatch)
        assert run_power(grid, workers=2) == serial

    def test_run_above_twice_the_floor_opens_one_pool(self, monkeypatch):
        # 2 shifts of n·S = 800 per replicate: the fewest replicates whose
        # curve values reach 2 · _SHARE_MIN, and one replicate fewer
        per_replicate = 2 * 800
        above = -(-2 * harness._SHARE_MIN // per_replicate)
        grid = small_grid(
            n_points_values=(40,), group_schemes=((10, 10),), replicates=above
        )
        assert 2 * harness._SHARE_MIN <= above * per_replicate < 3 * harness._SHARE_MIN
        serial = run_power(grid)
        opened, tasks = count_pools(monkeypatch)
        for workers in (2, 3):
            assert run_power(grid, workers=workers) == serial
            assert opened[-1]["max_workers"] == 1 and len(tasks) == 1
            tasks.clear()
        assert len(opened) == 2
        run_power(replace(grid, replicates=above - 1), workers=2)
        assert len(opened) == 2 and not tasks

    def test_default_grid_cuts_one_share_per_worker(self, monkeypatch, tmp_path):
        # the paper's 3 x 3 x 26 grid at 2000 replicates; the stub logs each
        # share's bounds and counts nothing
        grid = ExperimentGrid(base=SimConfig(n_per_group=(10, 10), n_points=40, seed=1))
        n_s = sum(sum(g) * s for g in grid.group_schemes for s in grid.n_points_values)
        total = n_s * 26 * 2000
        log = log_shares(monkeypatch, tmp_path, count=False)
        for workers in (1, 2, 3):
            run_power(grid, workers=workers)
            shares = log.take()
            assert len(shares) == min(workers, total // harness._SHARE_MIN) == workers
            bounds = [2000 * j // workers for j in range(workers + 1)]
            assert shares == list(zip(bounds, bounds[1:]))
        # a floor of half the run caps it at two shares whatever workers says
        monkeypatch.setattr(harness, "_SHARE_MIN", total // 2)
        run_power(grid, workers=3)
        assert len(log.take()) == 2

    @pytest.mark.parametrize(
        "factors, floor",
        [
            # n·S of 80 and 800 at 3 shifts
            (dict(group_schemes=((5, 5), (50, 50)), xi_values=(0.0, 1.0, 2.0), replicates=10), 1),
            # n·S of 4000, 800, 400, 80, 400 and 80, at 7 replicates: no cut of
            # 2 or more is even
            (
                dict(
                    group_schemes=((50, 50), (5, 5), (3, 3, 4)),
                    n_points_values=(40, 8),
                    xi_values=(0.0,),
                    replicates=7,
                ),
                1,
            ),
            # 4560 curve values per replicate: 240 replicates hold 4 times the
            # shipped floor, so it cuts one share per worker
            (
                dict(
                    n_points_values=(40,),
                    group_schemes=((10, 10), (6, 6, 6)),
                    xi_values=(0.0, 0.5, 1.0),
                    replicates=240,
                ),
                harness._SHARE_MIN,
            ),
            # a run of 2 replicates at the shipped floor counts in this process
            (dict(group_schemes=((5, 5), (50, 50)), replicates=2), harness._SHARE_MIN),
        ],
        ids=["mixed-shapes", "odd-replicates", "shipped-floor", "one-share"],
    )
    def test_shares_are_replicate_ranges_of_every_shape(
        self, monkeypatch, tmp_path, factors, floor
    ):
        grid = small_grid(base=replace(small_grid().base, mean_shape="linear"), **factors)
        reps, m = grid.replicates, len(grid.xi_values)
        # the curve values of one replicate of every shape at every shift, and of the run
        one = m * sum(sum(g) * s for g in grid.group_schemes for s in grid.n_points_values)
        total = reps * one
        reference = run_power(grid)
        monkeypatch.setattr(harness, "_SHARE_MIN", floor)
        log = log_shares(monkeypatch, tmp_path)
        for workers in (1, 2, 3, 4):
            assert run_power(grid, workers=workers) == reference
            k = max(1, min(workers, reps, total // floor))
            shares = log.take()
            assert shares == [(reps * j // k, reps * (j + 1) // k) for j in range(k)]
            # each share is within one replicate of every shape of total / k
            for a, b in shares:
                assert abs((b - a) * one * k - total) < one * k
        assert 0 < sum(r.rejection_rate for r in reference) < len(reference)

    def test_cut_builds_nothing_per_replicate(self, monkeypatch, tmp_path):
        # 500 000 replicates of two shapes; one int64 per replicate would be 3.8 MiB
        grid = small_grid(group_schemes=((5, 5), (6, 6)), xi_values=(0.0,), replicates=500_000)
        log = log_shares(monkeypatch, tmp_path, count=False)
        tracemalloc.start()
        try:
            run_power(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.take() == [(0, 500_000)]
        assert peak < 1 << 20

    def test_floor_leaves_counts_unchanged(self, monkeypatch, tmp_path):
        # two shapes of 3 shifts: 4560 curve values per replicate, so 130
        # replicates hold between 2 and 3 times the shipped floor
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="linear"),
            n_points_values=(40,),
            group_schemes=((10, 10), (6, 6, 6)),
            xi_values=(0.0, 0.5, 1.0),
            replicates=130,
        )
        total = 130 * 3 * (20 + 18) * 40
        assert 2 * harness._SHARE_MIN <= total < 3 * harness._SHARE_MIN
        reference = run_power(grid)
        assert len({r.rejection_rate for r in reference}) > 2
        log = log_shares(monkeypatch, tmp_path)
        for floor, cuts in ((harness._SHARE_MIN, (2, 2)), (1, (2, 3))):
            monkeypatch.setattr(harness, "_SHARE_MIN", floor)
            for workers, shares in zip((2, 3), cuts):
                assert run_power(grid, workers=workers) == reference
                assert len(log.take()) == shares

    @pytest.mark.parametrize("replicate", [0, 7])
    def test_a_failing_share_raises_and_leaves_no_child(self, monkeypatch, replicate):
        # 2 shifts x 8 replicates at 2 workers: replicates 0..3 are this
        # process's share, 4..7 the pool's
        draw = harness._base_values

        def failing_draw(config, replicates):
            if replicate in replicates:
                raise RuntimeError(f"replicate {replicate} failed")
            return draw(config, replicates)

        monkeypatch.setattr(harness, "_base_values", failing_draw)
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
        with pytest.raises(RuntimeError, match=f"replicate {replicate} failed"):
            run_power(small_grid(replicates=8), workers=2)
        assert multiprocessing.active_children() == []

    def test_rows_follow_grid_order(self):
        # unsorted shifts over two schemes: row k·m + i of a summary is shift i
        # of shape k, as in a run of that shift alone
        grid = small_grid(
            base=replace(small_grid().base, mean_shape="parabola"),
            group_schemes=((5, 5), (3, 3, 4)),
            xi_values=(2.0, 0.0, 1.0),
            replicates=30,
        )
        power = run_power(grid)
        assert [(r.cell.group_sizes, r.cell.summary, r.cell.xi) for r in power] == [
            (scheme, summary, xi)
            for scheme in grid.group_schemes
            for summary in grid.summaries
            for xi in grid.xi_values
        ]
        assert len({r.rejection_rate for r in power}) > 2
        assert power[0].rejection_rate > power[2].rejection_rate > power[1].rejection_rate
        alone = [run_power(replace(grid, xi_values=(xi,))) for xi in grid.xi_values]
        assert power == [rows[j] for j in range(4) for rows in alone]

    def test_empty_xi_rejected(self):
        # the grid refuses an empty shift list before any run
        with pytest.raises(InvalidInputError, match="nonempty"):
            small_grid(xi_values=())

    def test_workers_positive(self):
        for workers in (0, -2, 2.5):
            with pytest.raises(InvalidInputError, match="workers"):
                run_power(small_grid(), workers=workers)

    def test_workers_ceiling(self, monkeypatch):
        # a pool forks all its processes at once, so a huge count is refused
        # before one opens
        forbid_pool(monkeypatch)
        ceiling = max(64, os.cpu_count() or 1)
        for workers in (ceiling + 1, 100_000):
            with pytest.raises(InvalidInputError, match="workers must be at most"):
                run_power(small_grid(), workers=workers)
        # the ceiling itself is allowed: a run of one position opens no pool
        one = small_grid(xi_values=(0.0,), replicates=1)
        assert run_power(one, workers=ceiling) == run_power(one)


class TestResultsIo:
    def sample_results(self):
        return run_type1(small_grid(replicates=40))

    def test_csv_round_trip(self, tmp_path):
        results = self.sample_results()
        path = tmp_path / "out.csv"
        write_results(results, path)
        assert read_results(path) == results

    def test_jsonl_round_trip(self, tmp_path):
        results = self.sample_results()
        path = tmp_path / "out.jsonl"
        write_results(results, path)
        back = read_results(path)
        assert back == results
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == len(results)

    def test_preprocess_pve_round_trip(self, tmp_path):
        for pve in (None, 0.9):
            results = run_type1(small_grid(replicates=5, preprocess_pve=pve))
            assert [r.cell.preprocess_pve for r in results] == [pve, pve]
            for fmt in ("csv", "jsonl"):
                path = tmp_path / f"out.{fmt}"
                write_results(results, path)
                assert read_results(path) == results

    def test_byte_order_mark_skipped(self, tmp_path):
        results = self.sample_results()
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"out.{fmt}"
            write_results(results, path)
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert read_results(path) == results

    def test_reads_files_without_preprocess_pve(self, tmp_path):
        results = self.sample_results()
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"out.{fmt}"
            write_results(results, path)
            if fmt == "csv":
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                with open(path, "w", newline="") as fh:
                    fields = [k for k in rows[0] if k != "preprocess_pve"]
                    writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
                    writer.writeheader()
                    writer.writerows(rows)
            else:
                records = [json.loads(line) for line in path.read_text().splitlines()]
                for rec in records:
                    del rec["preprocess_pve"]
                path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
            assert "preprocess_pve" not in path.read_text()
            assert read_results(path) == results

    def test_format_follows_extension(self, tmp_path):
        results = self.sample_results()
        for name, start in (("out.csv", "coeff_dist,"), ("out.jsonl", "{")):
            path = tmp_path / name
            write_results(results, path)
            assert path.read_text().startswith(start)
            assert read_results(path) == results

    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path)
        text = path.read_text().strip().splitlines()
        assert len(text) == 1
        assert text[0].startswith("coeff_dist,")
        assert read_results(path) == []

    def test_every_row_must_be_a_cell_result(self, tmp_path):
        # checked before the file is opened, so a refused list writes nothing
        path = tmp_path / "out.csv"
        rows = self.sample_results()
        for bad in ([*rows, {}], (rows[0], None), [rows[0].cell]):
            with pytest.raises(InvalidInputError, match="^results must be a CellResult, got "):
                write_results(bad, path)
        assert not path.exists()
        write_results(tuple(rows), path)
        assert read_results(path) == rows

    def test_cell_result_checks_its_fields(self):
        row = self.sample_results()[0]
        fields = dict(
            cell=row.cell, rejection_rate=0.25, replicates_used=40, mc_stderr=0.01
        )
        assert CellResult(**fields) == replace(row, rejection_rate=0.25, mc_stderr=0.01)
        for name, bad, message in (
            ("cell", None, "must be a CellSpec, got None"),
            ("cell", {}, "must be a CellSpec"),
            ("rejection_rate", 1.5, r"must lie in \[0, 1\]"),
            ("rejection_rate", "0.5", "must be a number"),
            ("replicates_used", 0, r"must lie in \[1, inf\)"),
            ("replicates_used", 2.5, "must be an integer"),
            ("mc_stderr", -1.0, r"must lie in \[0, inf\)"),
            ("mc_stderr", float("nan"), "must be finite"),
        ):
            with pytest.raises(InvalidInputError, match=f"^{name} {message}"):
                CellResult(**{**fields, name: bad})

    def test_version_and_seed_recorded(self, tmp_path):
        from drtests import __version__

        path = tmp_path / "out.csv"
        write_results(self.sample_results(), path)
        rows = path.read_text().strip().splitlines()
        header = rows[0].split(",")
        first = rows[1].split(",")
        assert first[header.index("version")] == __version__
        assert first[header.index("seed")] == "314"

    def test_stable_column_order(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results(self.sample_results(), path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "coeff_dist,mean_shape,xi,noise,rho,n_points,n_basis,"
            "group_sizes,summary,alpha,seed,preprocess_pve,replicates,"
            "rejection_rate,"
            "mc_stderr,version"
        )

    def test_csv_content_in_jsonl_file_rejected(self, tmp_path):
        results = self.sample_results()
        csv_path, path = tmp_path / "out.csv", tmp_path / "out.jsonl"
        write_results(results, csv_path)
        path.write_text(csv_path.read_text())
        with pytest.raises(InvalidInputError, match=r"out\.jsonl line 1: "):
            read_results(path)

    def test_jsonl_row_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(InvalidInputError, match=r"out\.jsonl line 1: "):
            read_results(path)

    def test_out_of_range_cell_value_rejected(self, tmp_path):
        results = self.sample_results()
        rate, stderr = results[0].rejection_rate, results[0].mc_stderr
        assert 0.0 < rate < 1.0
        for fmt, old, new, field in (
            ("csv", ",0.05,314,", ",2.0,314,", "alpha"),
            ("jsonl", '"alpha": 0.05', '"alpha": 2.0', "alpha"),
            ("csv", ",5+5,", ",0+5,", "group_sizes"),
            ("jsonl", '"seed": 314', '"seed": 1.5', "seed"),
            # a negative shift, a correlation outside (-1, 1), a single group
            ("csv", ",none,0.0,ar1,", ",none,-1.0,ar1,", "xi"),
            ("jsonl", '"xi": 0.0', '"xi": -1.0', "xi"),
            ("csv", ",ar1,0.5,", ",ar1,5.0,", "rho"),
            ("jsonl", '"rho": 0.5', '"rho": 5.0', "rho"),
            ("csv", ",5+5,", ",3,", "group_sizes"),
            ("jsonl", '"group_sizes": [5, 5]', '"group_sizes": [3]', "group_sizes"),
            # the result columns: a count >= 1, a rate in [0, 1], a finite
            # standard error >= 0
            ("jsonl", '"replicates": 40', '"replicates": 2.5', "replicates"),
            ("jsonl", '"replicates": 40', '"replicates": 0', "replicates"),
            ("jsonl", '"replicates": 40', '"replicates": true', "replicates"),
            ("csv", f",40,{rate},", f",0,{rate},", "replicates"),
            ("csv", f",{rate},{stderr},", f",1.5,{stderr},", "rejection_rate"),
            ("jsonl", f'"rejection_rate": {rate}', '"rejection_rate": 7', "rejection_rate"),
            ("csv", f",{rate},{stderr},", f",nan,{stderr},", "rejection_rate"),
            ("jsonl", f'"rejection_rate": {rate}', '"rejection_rate": NaN', "rejection_rate"),
            ("csv", f",{rate},{stderr},", f",{rate},-1,", "mc_stderr"),
            ("jsonl", f'"mc_stderr": {stderr}', '"mc_stderr": -Infinity', "mc_stderr"),
        ):
            path = tmp_path / f"out.{fmt}"
            write_results(results, path)
            text = path.read_text()
            assert old in text
            path.write_text(text.replace(old, new, 1))  # the first row
            line = 2 if fmt == "csv" else 1
            with pytest.raises(
                InvalidInputError, match=rf"out\.{fmt} line {line}: .*{field} must"
            ):
                read_results(path)

    def test_csv_extra_fields_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results(self.sample_results(), path)
        header, first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text(header + first.rstrip("\r\n") + ",extra,more\r\n" + "".join(rest))
        with pytest.raises(
            InvalidInputError, match=r"out\.csv line 2: .*2 fields more than the header"
        ):
            read_results(path)

    def test_csv_lacking_columns_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results(self.sample_results(), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["coeff_dist", "xi"], extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        # the header is refused before any row is read
        with pytest.raises(
            InvalidInputError, match=r"out\.csv line 1: .*missing columns \['mean_shape'"
        ):
            read_results(path)

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        # a header lacking result columns is refused even with no rows
        path.write_text("coeff_dist,xi\n")
        with pytest.raises(
            InvalidInputError, match=r"out\.csv line 1: .*missing columns \['mean_shape'"
        ):
            read_results(path)
        path.write_text("")
        with pytest.raises(InvalidInputError, match=r"out\.csv .*missing columns"):
            read_results(path)
        # the header of an empty result list (test_empty_results_header_only)
        # without preprocess_pve, as files written before it existed have it
        write_results([], path)
        header = path.read_text().replace("preprocess_pve,", "")
        assert header.startswith("coeff_dist,") and "preprocess_pve" not in header
        path.write_text(header)
        assert read_results(path) == []


class TestGridConfig:
    def test_from_dict_minimal(self):
        grid = grid_from_dict({"seed": 7})
        assert grid.base.seed == 7
        assert grid.n_points_values == (40, 120, 360)
        assert grid.base.noise is NoiseKind.AR1

    def test_from_dict_full(self):
        grid = grid_from_dict(
            {
                "seed": 3,
                "coeff_dist": "t2",
                "noise": "white",
                "n_basis": 64,
                "n_points": [10, 20],
                "groups": [[4, 4], [6, 6, 6]],
                "xi": {"start": 0, "stop": 1, "step": 0.5},
                "replicates": 50,
                "alpha": 0.1,
                "summaries": ["sufficient"],
                "preprocess_pve": 0.95,
            }
        )
        assert grid.xi_values == (0.0, 0.5, 1.0)
        assert grid.group_schemes == ((4, 4), (6, 6, 6))
        assert grid.preprocess_pve == 0.95
        assert grid.summaries == (SummaryKind.SUFFICIENT,)

    def test_missing_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            grid_from_dict({})

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            grid_from_dict({"seed": 1, "replciates": 10})

    def test_spec_must_be_a_dict(self):
        # not read as missing keys, nor a string's letters as unknown keys
        for spec in (None, 5, [], "seed", [("seed", 1)]):
            with pytest.raises(InvalidInputError, match="^spec must be a dict, got "):
                grid_from_dict(spec)

    def test_wrong_typed_values_rejected(self):
        for key, value in (
            ("groups", 5),
            ("groups", [[10, "a"]]),
            ("groups", [[10.5, 10]]),
            ("groups", [[True, 10]]),
            ("replicates", "x"),
            ("replicates", 2.7),
            ("seed", 1.5),
            # a Philox key has 128 bits; a seed outside them would alias another
            ("seed", -1),
            ("seed", 2**128),
            ("n_points", 40),
            ("coeff_dist", "normal"),
            ("xi", {"stop": 1.0}),
            ("preprocess_pve", "x"),
            # a string where a list belongs is not read character by character
            ("xi", "123"),
            # a bool is not a number
            ("rho", False),
            ("preprocess_pve", True),
            ("xi", [True]),
            # non-finite shifts and range bounds (json reads Infinity)
            ("xi", [float("inf")]),
            ("xi", {"stop": float("inf"), "step": 1}),
            ("xi", {"stop": 1e300, "step": 1e-300}),
            # out of range: a negative shift, |rho| >= 1, a single group
            ("xi", [0.5, -1.0]),
            ("rho", 5.0),
            ("groups", [[10, 10], [3]]),
        ):
            with pytest.raises(InvalidInputError, match=key):
                grid_from_dict({"seed": 1, key: value})

    def test_reversed_xi_range_rejected(self):
        # named for its key, not left to yield no shifts
        with pytest.raises(InvalidInputError, match="'xi' range stop must be >= start"):
            grid_from_dict({"seed": 1, "xi": {"start": 2, "stop": 1, "step": 0.5}})
        grid = grid_from_dict({"seed": 1, "xi": {"start": 2, "stop": 2, "step": 0.5}})
        assert grid.xi_values == (2.0,)

    def test_xi_range_length_bounded(self):
        # 10 000 shifts are accepted; one more is refused before any is built
        grid = grid_from_dict({"seed": 1, "xi": {"stop": 9999, "step": 1}})
        assert len(grid.xi_values) == 10_000 and grid.xi_values[-1] == 9999.0
        with pytest.raises(InvalidInputError, match="xi.*more than 10000 shifts"):
            grid_from_dict({"seed": 1, "xi": {"stop": 10_000, "step": 1}})

    def test_load_grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        text = json.dumps({"seed": 11, "n_points": [6], "replicates": 5})
        path.write_text(text)
        grid = load_grid(path)
        assert grid.base.seed == 11
        assert grid.replicates == 5
        # the byte-order mark some editors write is skipped
        path.write_text(text, encoding="utf-8-sig")
        assert load_grid(path) == grid

    def test_load_grid_invalid_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError):
            load_grid(path)
        path.write_bytes('{"seed": 1, "noise": "wei\u00df"}'.encode("latin-1"))
        with pytest.raises(InvalidInputError, match="invalid JSON"):
            load_grid(path)

    def test_load_grid_refuses_a_config_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidInputError, match="grid config .* must be a JSON object"):
            load_grid(path)


class TestGridValidation:
    def test_alpha_range(self):
        with pytest.raises(InvalidInputError):
            small_grid(alpha=0.0)

    def test_base_must_be_a_sim_config(self):
        for base in (None, {"n_per_group": (5, 5), "n_points": 8}):
            with pytest.raises(InvalidInputError, match="^base must be a SimConfig"):
                small_grid(base=base)

    def test_replicates_positive(self):
        with pytest.raises(InvalidInputError):
            small_grid(replicates=0)

    def test_wrong_typed_values_rejected(self):
        # neither truncated, nor read as 1, nor left to fail inside a run
        for key, value in (
            ("replicates", 2.5),
            ("replicates", True),
            ("alpha", "0.05"),
            ("n_points_values", (8.7,)),
            ("group_schemes", ((5.5, 5),)),
            ("xi_values", ("0.5",)),
            ("xi_values", (0.0, -1.0)),
            ("group_schemes", ((5, 5), (3,))),
        ):
            with pytest.raises(InvalidInputError, match=key):
                small_grid(**{key: value})
        grid = small_grid(replicates=np.int64(7), alpha=np.float64(0.1))
        assert type(grid.replicates) is int and type(grid.alpha) is float

    def test_preprocess_pve_range(self):
        for pve in (0.0, 1.5):
            with pytest.raises(InvalidInputError, match="preprocess_pve"):
                small_grid(preprocess_pve=pve)

    def test_summaries_nonempty(self):
        for key in ("summaries", "n_points_values", "group_schemes"):
            with pytest.raises(InvalidInputError, match="nonempty"):
                small_grid(**{key: ()})

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("n_points", 8.7),
            ("seed", 1.5),
            ("seed", -1),
            ("group_sizes", (0, 5)),
            ("alpha", 2.0),
            ("preprocess_pve", 7.0),
            ("coeff_dist", "normal"),
            ("xi", -1.0),
            ("rho", 5.0),
            ("group_sizes", (3,)),
        ],
    )
    def test_cell_spec_checks_its_fields(self, field, bad):
        # neither truncated nor accepted, and each error names its field
        fields = dict(
            coeff_dist="gaussian",
            mean_shape="none",
            xi=0.0,
            noise="white",
            rho=0.5,
            n_points=4,
            n_basis=8,
            group_sizes=(2, 2),
            summary="sufficient",
            alpha=0.05,
            seed=1,
        )
        CellSpec(**fields)
        with pytest.raises(InvalidInputError, match=f"^{field} must"):
            CellSpec(**{**fields, field: bad})

    def test_cell_spec_coerces_enums(self):
        spec = CellSpec(
            coeff_dist="gaussian",
            mean_shape="none",
            xi=0.0,
            noise="white",
            rho=0.5,
            n_points=4,
            n_basis=8,
            group_sizes=[2, 2],
            summary="sufficient",
            alpha=0.05,
            seed=1,
        )
        assert spec.summary is SummaryKind.SUFFICIENT
        assert spec.group_sizes == (2, 2)


# Each numeric check: the interval its messages show, values it accepts
# (its closed ends, or just inside an open one) and values it refuses (its
# open ends, or just past a closed one)
_INTERVALS = {
    "n_points": ("[1, inf)", [1], [0]),
    "n_basis": ("[1, inf)", [1], [0]),
    "replicates": ("[1, inf)", [1], [0]),
    "seed": ("[0, 2^128)", [0, 2**128 - 1], [-1, 2**128]),
    "xi": ("[0, inf)", [0.0], [-1e-9]),
    "mc_stderr": ("[0, inf)", [0.0], [-1e-9]),
    "rho": ("(-1, 1)", [-1 + 1e-9, 1 - 1e-9], [-1.0, 1.0]),
    "alpha": ("(0, 1)", [1e-9, 1 - 1e-9], [0.0, 1.0]),
    "rejection_rate": ("[0, 1]", [0.0, 1.0], [-1e-9, 1 + 1e-9]),
    "preprocess_pve": ("(0, 1]", [1e-9, 1.0], [0.0, 1 + 1e-9]),
    "exact_threshold": ("[0, 60]", [0, 60], [-1, 61]),
}
# The checks of an enum member or a list, not of one number
_NOT_NUMBERS = {
    "n_per_group", "group_sizes", "coeff_dist", "mean_shape", "noise", "summary",
    "n_points_values", "group_schemes", "xi_values", "summaries",
}


def _test_config_check(value, name):
    return getattr(DoublyRankedConfig(**{name: value}), name)


@pytest.mark.parametrize(
    "checks",
    [
        simgen._SIM_CHECKS,
        harness._GRID_CHECKS,
        harness._ROW,
        harness._RESULT,
        dict.fromkeys(("preprocess_pve", "exact_threshold"), _test_config_check),
    ],
    ids=["sim", "grid", "row", "result", "test-config"],
)
def test_numeric_checks_hold_their_intervals(checks):
    numbers = {name: check for name, check in checks.items() if name not in _NOT_NUMBERS}
    assert numbers and set(numbers) <= set(_INTERVALS)
    for name, check in numbers.items():
        interval, inside, outside = _INTERVALS[name]
        for value in inside:
            assert check(value, name) == value
        for value in outside:
            message = rf"^{name} must lie in {re.escape(interval)}, got "
            with pytest.raises(InvalidInputError, match=message):
                check(value, name)
        for value in (True, math.nan, math.inf, -math.inf, "1"):
            with pytest.raises(InvalidInputError, match=f"^{name} must"):
                check(value, name)


# The boundary fuzzers: every drawn grid config and every mutated results
# file either reads or raises InvalidInputError, never another exception.
_WORDS = [m.value for kind in (CoeffDist, MeanShape, NoiseKind, SummaryKind) for m in kind]
# what json.load can return, with the keys of an xi range among its keys
_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 2**130),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(_WORDS),
        st.text(max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["start", "stop", "step", "x"]), inner, max_size=4),
    ),
    max_leaves=8,
)
_SMALL = st.integers(1, 12)
# a value of each grid config key that its check accepts, so that a spec
# mixing them with wrong values reaches every check
_GRID_VALUES = {
    "seed": st.integers(0, 2**128 - 1),
    "coeff_dist": st.sampled_from([m.value for m in CoeffDist]),
    "mean_shape": st.sampled_from([m.value for m in MeanShape]),
    "noise": st.sampled_from([m.value for m in NoiseKind]),
    "rho": st.floats(-0.99, 0.99),
    "n_basis": _SMALL,
    "n_points": st.lists(_SMALL, min_size=1, max_size=3),
    "groups": st.lists(st.lists(_SMALL, min_size=2, max_size=3), min_size=1, max_size=2),
    "xi": st.one_of(
        st.lists(st.floats(0, 5), min_size=1, max_size=3),
        st.fixed_dictionaries(
            {"stop": st.floats(0, 50), "step": st.floats(0.05, 2)},
            optional={"start": st.floats(0, 5)},
        ),
    ),
    "replicates": _SMALL,
    "alpha": st.floats(0.01, 0.5),
    "summaries": st.lists(st.sampled_from([m.value for m in SummaryKind]), min_size=1),
    "preprocess_pve": st.one_of(st.none(), st.floats(0.01, 1)),
}
assert set(_GRID_VALUES) == set(harness._GRID_KEYS)
_VALID_SPECS = st.fixed_dictionaries(
    {"seed": _GRID_VALUES["seed"]},
    optional={key: values for key, values in _GRID_VALUES.items() if key != "seed"},
)


@st.composite
def grid_specs(draw):
    """A grid config whose values are valid but for up to two drawn at random."""
    spec = draw(_VALID_SPECS)
    for key in draw(st.lists(st.sampled_from([*_GRID_VALUES, "bogus"]), max_size=2)):
        spec[key] = draw(_JSON)
    return spec


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid_specs())
def test_grid_from_dict_raises_only_invalid_input(spec):
    try:
        assert isinstance(grid_from_dict(spec), ExperimentGrid)
    except InvalidInputError:
        pass


@pytest.fixture(scope="module")
def results_files(tmp_path_factory):
    """The bytes of a small run's eight results, as CSV and as JSON lines."""
    folder = tmp_path_factory.mktemp("results")
    grid = small_grid(
        n_points_values=(8, 12),
        group_schemes=((5, 5), (3, 3, 3)),
        replicates=2,
        preprocess_pve=0.9,
    )
    results = run_type1(grid)
    assert len(results) == 8
    files = {}
    for fmt in ("csv", "jsonl"):
        write_results(results, folder / f"out.{fmt}")
        files[fmt] = (folder / f"out.{fmt}").read_bytes()
    return folder, files


# bytes that the two formats give meaning to, a byte-order mark and a byte
# that is not UTF-8
_BYTES = st.one_of(
    st.sampled_from([bytes([b]) for b in b',\n\r"{}[]:+-.e0159 ']),
    st.sampled_from([b"NaN", b"inf", b"null", b"true", b"\xef\xbb\xbf", b"\xff"]),
)
# each edit replaces, inserts or deletes at a fraction of the file's length
_EDITS = st.lists(
    st.tuples(st.floats(0, 1), st.sampled_from(["replace", "insert", "delete"]), _BYTES),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["csv", "jsonl"]), _EDITS)
def test_read_results_raises_only_invalid_input(results_files, fmt, edits):
    folder, files = results_files
    data = bytearray(files[fmt])
    for where, edit, piece in edits:
        at = int(where * len(data))
        if edit == "insert":
            data[at:at] = piece
        else:
            data[at : at + len(piece)] = piece if edit == "replace" else b""
    path = folder / f"fuzzed.{fmt}"
    path.write_bytes(bytes(data))
    try:
        read_results(path)
    except InvalidInputError:
        pass
