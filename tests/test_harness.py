import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from drtests import (
    CellResult,
    CellSpec,
    CurveSet,
    ExperimentGrid,
    InvalidInputError,
    NoiseKind,
    SimConfig,
    SummaryKind,
    doubly_ranked_test,
    generate_dataset,
    grid_from_dict,
    harness,
    load_grid,
    rank_tests,
    read_results,
    run_power,
    run_type1,
    write_results,
)
from tests.helpers import count_pipeline_calls


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

    def test_worker_determinism(self):
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
        for scheme in grid.group_schemes:
            config = replace(grid.base, n_per_group=scheme)
            assert harness._count_rejections(grid, config, 0, 6).shape == (2,)
        assert built == {"CurveSet": 0, "TestResult": 0}
        # the counters do see the one-off path
        doubly_ranked_test(generate_dataset(grid.base))
        assert built == {"CurveSet": 1, "TestResult": 1}

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
        reference = run_power(grid)
        assert 0 < sum(r.rejection_rate for r in reference) < len(reference)
        for workers in (2, 3):
            assert run_power(grid, workers=workers) == reference
        for budget in (1, 2 * 20 * 120, 7 * 20 * 120, 10**9):
            monkeypatch.setattr(harness, "_BUDGET", budget)
            assert run_power(grid) == reference


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

    def test_worker_determinism(self):
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

    def test_one_pool_per_run(self, monkeypatch):
        opened = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        grid = small_grid(replicates=8)
        assert len(grid.xi_values) == 2
        run_power(grid, workers=2)
        assert len(opened) == 1
        # 2 shifts x 2 blocks are 4 tasks, run by no more than 2 processes
        assert opened[0]["max_workers"] == 2
        run_power(grid, workers=1)
        assert len(opened) == 1
        # a single task opens no pool
        run_power(small_grid(replicates=1, xi_values=(0.0,)), workers=2)
        assert len(opened) == 1

    def test_empty_xi_rejected(self):
        with pytest.raises(InvalidInputError):
            run_power(small_grid(xi_values=()))

    def test_workers_positive(self):
        for workers in (0, -2, 2.5):
            with pytest.raises(InvalidInputError, match="workers"):
                run_power(small_grid(), workers=workers)


class TestResultsIo:
    def sample_results(self):
        return run_type1(small_grid(replicates=40))

    def test_csv_round_trip(self, tmp_path):
        results = self.sample_results()
        path = tmp_path / "out.csv"
        write_results(results, path, format="csv")
        assert read_results(path) == results

    def test_jsonl_round_trip(self, tmp_path):
        results = self.sample_results()
        path = tmp_path / "out.jsonl"
        write_results(results, path, format="jsonl")
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
                write_results(results, path, format=fmt)
                assert read_results(path) == results

    def test_reads_files_without_preprocess_pve(self, tmp_path):
        results = self.sample_results()
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"out.{fmt}"
            write_results(results, path, format=fmt)
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
        write_results([], path, format="csv")
        text = path.read_text().strip().splitlines()
        assert len(text) == 1
        assert text[0].startswith("coeff_dist,")
        assert read_results(path) == []

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
        ):
            with pytest.raises(InvalidInputError, match=key):
                grid_from_dict({"seed": 1, key: value})

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


class TestGridValidation:
    def test_alpha_range(self):
        with pytest.raises(InvalidInputError):
            small_grid(alpha=0.0)

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
        with pytest.raises(InvalidInputError):
            small_grid(summaries=())

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
