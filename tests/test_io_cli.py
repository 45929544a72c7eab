import json

import numpy as np
import pytest

from drtests import (
    CsvFormatError,
    MeanShape,
    grid_from_dict,
    mww_test,
    read_curves_csv,
    read_results,
    write_curves_csv,
)
from drtests import cli
from drtests.cli import build_parser, main
from drtests.harness import _GRID_KEYS
from tests.helpers import count_pipeline_calls, make_curves


def write_text(path, text):
    path.write_text(text)
    return str(path)


class TestWideCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        curves = make_curves(rng.normal(size=(8, 5)))
        path = tmp_path / "curves.csv"
        write_curves_csv(curves, path)
        back, info = read_curves_csv(path)
        assert np.array_equal(back.values, curves.values)
        assert np.array_equal(back.grid, curves.grid)
        assert np.array_equal(back.groups, curves.groups)
        assert info.grid_source == "header"
        assert info.warnings == ()

    def test_numeric_header_becomes_grid(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv",
            "id,group,0.1,0.4,0.9\na,x,1,2,3\nb,x,4,5,6\nc,y,7,8,9\nd,y,1,3,2\n",
        )
        curves, info = read_curves_csv(path)
        assert np.array_equal(curves.grid, [0.1, 0.4, 0.9])
        assert info.grid_source == "header"

    def test_non_numeric_header_defaults_grid(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv",
            "id,group,t1,t2,t3\na,x,1,2,3\nb,y,4,5,6\n",
        )
        curves, info = read_curves_csv(path)
        assert np.array_equal(curves.grid, np.linspace(0, 1, 3))
        assert info.grid_source == "default"
        assert len(info.warnings) == 1

    def test_non_increasing_header_defaults_grid(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv",
            "id,group,2,1,3\na,x,1,2,3\nb,y,4,5,6\n",
        )
        _, info = read_curves_csv(path)
        assert info.grid_source == "default"

    def test_group_labels_numeric_sort(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv",
            "id,group,0,1\na,10,1,2\nb,2,3,4\nc,10,5,6\nd,2,7,8\n",
        )
        curves, info = read_curves_csv(path)
        assert info.group_labels == ("2", "10")  # numeric, not lexicographic
        assert list(curves.groups) == [2, 1, 2, 1]

    def test_group_labels_lexicographic_fallback(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv",
            "id,group,0,1\na,ctrl,1,2\nb,active,3,4\n",
        )
        curves, info = read_curves_csv(path)
        assert info.group_labels == ("active", "ctrl")
        assert list(curves.groups) == [2, 1]

    def test_single_point_curves(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv", "id,group,0.5\na,1,3.2\nb,1,1.1\nc,2,2.7\nd,2,0.4\n"
        )
        curves, _ = read_curves_csv(path)
        assert curves.n_points == 1
        assert curves.n_subjects == 4

    def test_bad_number_reports_row_and_column(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv", "id,group,0,1\na,x,1,2\nb,y,oops,4\n"
        )
        with pytest.raises(CsvFormatError, match=r"row 3.*column '0'"):
            read_curves_csv(path)

    def test_duplicate_subject_rejected(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv", "id,group,0,1\na,x,1,2\na,y,3,4\n"
        )
        with pytest.raises(CsvFormatError, match="duplicate subject"):
            read_curves_csv(path)

    def test_single_group_rejected(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv", "id,group,0,1\na,x,1,2\nb,x,3,4\n"
        )
        with pytest.raises(CsvFormatError, match="2 distinct groups"):
            read_curves_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        for name, text in (
            ("w.csv", "id,group,0,1\na,x,1\nb,y,3,4\n"),
            ("l.csv", "id,group,s,value\na,x,0\nb,y,0,4\n"),
        ):
            path = write_text(tmp_path / name, text)
            with pytest.raises(CsvFormatError, match="expected 4 fields"):
                read_curves_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_text(tmp_path / "w.csv", "")
        with pytest.raises(CsvFormatError, match="empty"):
            read_curves_csv(path)

    def test_overlong_field_rejected(self, tmp_path):
        path = write_text(
            tmp_path / "w.csv", "id,group,0\na,x,1\nb,y," + "9" * 200_000 + "\n"
        )
        with pytest.raises(CsvFormatError, match="field limit.*row 3"):
            read_curves_csv(path)

    def test_header_only_rejected(self, tmp_path):
        for name, text in (("w.csv", "id,group,0,1\n"), ("l.csv", "id,group,s,value\n")):
            path = write_text(tmp_path / name, text)
            with pytest.raises(CsvFormatError, match="no data rows"):
                read_curves_csv(path)


class TestLongCsv:
    def long_text(self):
        return (
            "id,group,s,value\n"
            "a,x,0.0,1.0\na,x,0.5,2.0\na,x,1.0,3.0\n"
            "b,x,0.0,4.0\nb,x,0.5,5.0\nb,x,1.0,6.0\n"
            "c,y,0.0,7.0\nc,y,0.5,9.0\nc,y,1.0,8.0\n"
            "d,y,0.0,2.5\nd,y,0.5,0.5\nd,y,1.0,1.5\n"
        )

    def test_parse_matches_wide(self, tmp_path):
        long_path = write_text(tmp_path / "l.csv", self.long_text())
        wide_path = write_text(
            tmp_path / "w.csv",
            "id,group,0.0,0.5,1.0\na,x,1,2,3\nb,x,4,5,6\nc,y,7,9,8\nd,y,2.5,0.5,1.5\n",
        )
        long_curves, long_info = read_curves_csv(long_path)
        wide_curves, _ = read_curves_csv(wide_path)
        assert np.array_equal(long_curves.values, wide_curves.values)
        assert np.array_equal(long_curves.grid, wide_curves.grid)
        assert np.array_equal(long_curves.groups, wide_curves.groups)
        assert long_info.grid_source == "column"

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        plain = read_curves_csv(write_text(tmp_path / "l.csv", self.long_text()))
        path = tmp_path / "bom.csv"
        path.write_text(self.long_text(), encoding="utf-8-sig")
        curves, info = read_curves_csv(path)
        assert info == plain[1]
        for name in ("values", "grid", "groups"):
            assert np.array_equal(getattr(curves, name), getattr(plain[0], name))

    def test_auto_detects_shuffled_header(self, tmp_path):
        path = write_text(
            tmp_path / "l.csv",
            "Value,ID,S,Group\n1,a,0,x\n2,a,1,x\n3,b,0,y\n4,b,1,y\n",
        )
        curves, info = read_curves_csv(path)
        assert info.grid_source == "column"
        assert curves.n_points == 2

    def test_rows_in_any_order(self, tmp_path):
        shuffled = self.long_text().splitlines()
        body = shuffled[1:]
        body.reverse()
        path = write_text(tmp_path / "l.csv", "\n".join([shuffled[0]] + body) + "\n")
        curves, info = read_curves_csv(path)
        # subject order follows first appearance, grid is sorted regardless
        assert np.array_equal(curves.grid, [0.0, 0.5, 1.0])
        assert info.subject_ids == ("d", "c", "b", "a")

    def test_incomplete_curve_rejected(self, tmp_path):
        text = self.long_text().replace("d,y,0.5,0.5\n", "")
        path = write_text(tmp_path / "l.csv", text)
        with pytest.raises(CsvFormatError, match=r"missing 1 of 3.*s=0.5"):
            read_curves_csv(path)

    def test_duplicate_measurement_rejected(self, tmp_path):
        text = self.long_text() + "d,y,1.0,9.9\n"
        path = write_text(tmp_path / "l.csv", text)
        with pytest.raises(CsvFormatError, match="duplicate measurement"):
            read_curves_csv(path)

    def test_group_conflict_rejected(self, tmp_path):
        text = self.long_text() + "a,y,0.25,9.9\n"
        path = write_text(tmp_path / "l.csv", text)
        with pytest.raises(CsvFormatError, match="appears in groups"):
            read_curves_csv(path)

    def test_padded_fields_read_as_unpadded(self, tmp_path):
        wide = "id,group,0.0,0.5,1.0\na,x,1,2,3\nb,x,4,5,6\nc,y,7,9,8\nd,y,2.5,0.5,1.5\n"
        for name, text in (("l.csv", self.long_text()), ("w.csv", wide)):
            plain = read_curves_csv(write_text(tmp_path / name, text))
            padded = "\n".join(
                ", ".join(f" {field} " for field in line.split(","))
                for line in text.splitlines()
            )
            curves, info = read_curves_csv(write_text(tmp_path / f"pad-{name}", padded))
            assert info == plain[1]
            for attr in ("values", "grid", "groups"):
                assert np.array_equal(getattr(curves, attr), getattr(plain[0], attr))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_file(tmp_path, capsys, name="sim.csv", **flags):
    defaults = {
        "--seed": "9",
        "--groups": "6,6",
        "--n-points": "5",
        "--n-basis": "30",
    }
    defaults.update(flags)
    path = tmp_path / name
    argv = ["simulate", "--out", str(path)]
    for key, val in defaults.items():
        argv += [key, val]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    return path


class TestCliTest:
    def test_json_report(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys)
        code, out, _ = run_cli(
            capsys, ["test", str(path), "--format", "json", "--preprocess", "none"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["statistic_name"] == "T+_DR"
        assert payload["method"] == "mww-exact"
        assert payload["group_sizes"] == [6, 6]
        assert payload["group_labels"] == ["1", "2"]
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["preprocess_pve"] is None
        assert payload["components_kept"] is None
        assert payload["pve_achieved"] is None
        assert payload["n_subjects"] == 12
        assert payload["n_points"] == 5

    def test_text_report(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys)
        code, out, _ = run_cli(capsys, ["test", str(path)])
        assert code == 0
        assert "p-value" in out
        assert "T+_DR" in out
        assert "pve=0.99" in out  # preprocessing is on by default

    def test_wide_and_long_inputs_agree(self, tmp_path, capsys):
        wide = simulate_file(tmp_path, capsys)
        curves, _ = read_curves_csv(wide)
        lines = ["id,group,s,value"]
        for i in range(curves.n_subjects):
            for j, s in enumerate(curves.grid):
                lines.append(
                    f"{i + 1},{int(curves.groups[i])},"
                    f"{float(s)!r},{float(curves.values[i, j])!r}"
                )
        long_path = write_text(tmp_path / "long.csv", "\n".join(lines) + "\n")

        args = ["--format", "json", "--preprocess", "none", "--summary", "avg"]
        code_w, out_w, _ = run_cli(capsys, ["test", str(wide)] + args)
        code_l, out_l, _ = run_cli(capsys, ["test", long_path] + args)
        assert code_w == code_l == 0
        assert json.loads(out_w) == json.loads(out_l)

    def test_single_point_matches_rank_sum(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys, name="s1.csv", **{"--n-points": "1"})
        curves, _ = read_curves_csv(path)
        x = curves.values[curves.groups == 1, 0]
        y = curves.values[curves.groups == 2, 0]
        expected = mww_test(x, y)
        code, out, _ = run_cli(
            capsys, ["test", str(path), "--format", "json", "--preprocess", "none"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["statistic"] == expected.statistic
        assert payload["p_value"] == expected.p_value

    def test_three_groups_use_chi_square(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys, name="g3.csv", **{"--groups": "4,4,4"})
        code, out, _ = run_cli(
            capsys, ["test", str(path), "--format", "json", "--preprocess", "none"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["statistic_name"] == "H_DR"
        assert payload["method"] == "kw-chisq"
        assert payload["z_or_df"] == 2.0

    def test_summary_flag(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys)
        code, out, _ = run_cli(
            capsys,
            ["test", str(path), "--format", "json", "--summary", "avg"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == "average_rank"
        # the default smoothing, pve=0.99, reports what it kept
        assert payload["components_kept"] >= 1
        assert payload["pve_achieved"] >= 0.99

    def test_verbose_reports_other_correction(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys)
        code, out, _ = run_cli(
            capsys,
            ["test", str(path), "--exact-threshold", "0", "--verbose"],
        )
        assert code == 0
        assert "without continuity correction" in out

    def test_verbose_smooths_and_ranks_once(self, tmp_path, capsys, monkeypatch):
        # the flipped-correction p-value reuses the scores of the main test
        path = simulate_file(tmp_path, capsys)
        calls = count_pipeline_calls(monkeypatch)
        code, out, _ = run_cli(
            capsys, ["test", str(path), "--exact-threshold", "0", "--verbose"]
        )
        assert code == 0
        assert "pve=0.99 (kept" in out
        assert "without continuity correction" in out
        assert calls == {"smoothings": 1, "ranked_datasets": 1}

    def test_exact_threshold_above_cap_exits_2(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys)
        code, _, err = run_cli(capsys, ["test", str(path), "--exact-threshold", "1000"])
        assert code == 2
        assert "exact_threshold" in err

    def test_default_grid_warning_on_stderr(self, tmp_path, capsys):
        path = write_text(
            tmp_path / "w.csv", "id,group,t1,t2\na,x,1,2\nb,x,2,1\nc,y,3,4\nd,y,4,3\n"
        )
        code, _, err = run_cli(capsys, ["test", path])
        assert code == 0
        assert "warning" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        for path in (tmp_path / "nope.csv", tmp_path):
            code, _, err = run_cli(capsys, ["test", str(path)])
            assert code == 2
            assert "error" in err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        path = write_text(tmp_path / "w.csv", "id,group,0,1\na,x,1,oops\nb,y,3,4\n")
        code, _, err = run_cli(capsys, ["test", path])
        assert code == 2
        assert "row 2" in err
        # a file that is not UTF-8, and a field past csv's size limit
        latin = tmp_path / "latin.csv"
        latin.write_bytes("id,group,0,1\na,x,1,2\nb,\u00e9,3,4\n".encode("latin-1"))
        long_field = write_text(
            tmp_path / "long.csv", "id,group,0\na,x,1\nb,y," + "9" * 200_000 + "\n"
        )
        for path, message in ((latin, "not UTF-8"), (long_field, "row 3")):
            code, _, err = run_cli(capsys, ["test", str(path)])
            assert code == 2
            assert message in err and "Traceback" not in err

    def test_single_group_exits_2(self, tmp_path, capsys):
        path = write_text(tmp_path / "w.csv", "id,group,0,1\na,x,1,2\nb,x,3,4\n")
        code, _, err = run_cli(capsys, ["test", path])
        assert code == 2
        assert "groups" in err

    def test_bad_preprocess_exits_2(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys)
        code, _, err = run_cli(capsys, ["test", str(path), "--preprocess", "pve=abc"])
        assert code == 2
        assert "--preprocess" in err


class TestCliSimulate:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a = simulate_file(tmp_path, capsys, name="a.csv")
        b = simulate_file(tmp_path, capsys, name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_replicate_changes_data(self, tmp_path, capsys):
        a = simulate_file(tmp_path, capsys, name="a.csv")
        b = simulate_file(tmp_path, capsys, name="b.csv", **{"--replicate": "1"})
        assert a.read_bytes() != b.read_bytes()

    def test_shift_flags(self, tmp_path, capsys):
        path = simulate_file(
            tmp_path,
            capsys,
            name="shift.csv",
            **{"--mean": "parabola", "--xi": "2.0"},
        )
        curves, _ = read_curves_csv(path)
        g1 = curves.values[curves.groups == 1].mean()
        g2 = curves.values[curves.groups == 2].mean()
        assert g2 > g1  # parabola shift is nonnegative on [0, 1]

    def test_replicate_out_of_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--seed", "1", "--out", str(out)]
        for replicate in ("-1", str(2**128)):
            code, _, err = run_cli(capsys, argv + ["--replicate", replicate])
            assert code == 2
            assert "replicate" in err and "Traceback" not in err

    def test_bad_flags_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        for flags, message in (
            # one dataset has one group scheme; a second is not dropped silently
            (["--seed", "1", "--groups", "4,4;5,5"], "--groups"),
            (["--seed", "-1"], "seed"),
        ):
            code, _, err = run_cli(capsys, ["simulate", "--out", str(out)] + flags)
            assert code == 2
            assert message in err and "Traceback" not in err
        assert not out.exists()


class TestCliGrids:
    base_flags = [
        "--seed",
        "5",
        "--reps",
        "60",
        "--n-points",
        "6",
        "--groups",
        "4,4",
        "--n-basis",
        "20",
    ]

    def test_type1_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        code, stdout, _ = run_cli(
            capsys, ["type1", "--out", str(out)] + self.base_flags
        )
        assert code == 0
        assert "wrote 2 cells" in stdout
        results = read_results(out)
        assert len(results) == 2
        for res in results:
            assert res.cell.xi == 0.0
            assert res.replicates_used == 60
            assert 0.0 <= res.rejection_rate <= 0.5

    def test_type1_jsonl_format(self, tmp_path, capsys):
        out = tmp_path / "t1.jsonl"
        code, _, _ = run_cli(
            capsys,
            ["type1", "--out", str(out), "--format", "jsonl"] + self.base_flags,
        )
        assert code == 0
        assert len(read_results(out)) == 2
        # without --format, the --out extension picks the format
        inferred = tmp_path / "t1b.jsonl"
        code, _, _ = run_cli(capsys, ["type1", "--out", str(inferred)] + self.base_flags)
        assert code == 0
        assert inferred.read_bytes() == out.read_bytes()
        assert read_results(inferred) == read_results(out)

    def test_power_curve_rows(self, tmp_path, capsys):
        out = tmp_path / "pw.csv"
        code, stdout, _ = run_cli(
            capsys,
            ["power", "--out", str(out), "--xi", "0,2", "--summaries", "suff"]
            + self.base_flags,
        )
        assert code == 0
        results = read_results(out)
        assert [r.cell.xi for r in results] == [0.0, 2.0]
        assert results[1].rejection_rate > results[0].rejection_rate

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 4,
                    "n_points": [6],
                    "groups": [[4, 4]],
                    "n_basis": 20,
                    "replicates": 500,
                    "summaries": ["sufficient"],
                }
            )
        )
        out = tmp_path / "t1.csv"
        code, _, _ = run_cli(
            capsys,
            ["type1", "--config", str(cfg), "--out", str(out), "--reps", "30"],
        )
        assert code == 0
        results = read_results(out)
        assert len(results) == 1
        assert results[0].replicates_used == 30  # flag overrides the file
        assert results[0].cell.seed == 4
        # every grid flag given wins over the file, also for keys it leaves out
        out = tmp_path / "pw.csv"
        code, _, _ = run_cli(
            capsys,
            ["power", "--config", str(cfg), "--out", str(out), "--reps", "200"]
            + ["--mean", "linear", "--alpha", "0.2", "--xi", "0,3"],
        )
        assert code == 0
        results = read_results(out)
        assert [r.cell.xi for r in results] == [0.0, 3.0]
        for res in results:
            assert res.cell.mean_shape is MeanShape.LINEAR
            assert res.cell.alpha == 0.2
            assert res.replicates_used == 200
        assert results[1].rejection_rate > results[0].rejection_rate

    def test_every_grid_flag_reaches_the_grid(self, tmp_path):
        # grid config key: (flag, non-default text, the value it sets)
        flags = {
            "seed": ("--seed", "12", 12),
            "coeff_dist": ("--dist", "t2", "t2"),
            "noise": ("--noise", "white", "white"),
            "rho": ("--rho", "0.3", 0.3),
            "n_basis": ("--n-basis", "30", 30),
            "n_points": ("--n-points", "6,8", [6, 8]),
            "groups": ("--groups", "3,3;4,5", [[3, 3], [4, 5]]),
            "replicates": ("--reps", "7", 7),
            "alpha": ("--alpha", "0.1", 0.1),
            "summaries": ("--summaries", "avg", ["average_rank"]),
            "preprocess_pve": ("--preprocess", "pve=0.9", 0.9),
            "mean_shape": ("--mean", "parabola", "parabola"),
            "xi": ("--xi", "0:1:0.5", {"start": 0.0, "stop": 1.0, "step": 0.5}),
        }
        # a config in which every key differs from its flag's value
        config = {
            "seed": 3,
            "coeff_dist": "gaussian",
            "noise": "none",
            "rho": -0.2,
            "n_basis": 9,
            "n_points": [5],
            "groups": [[2, 2, 2]],
            "replicates": 4,
            "alpha": 0.2,
            "summaries": ["sufficient", "average_rank"],
            "preprocess_pve": 0.5,
            "mean_shape": "beta-bump",
            "xi": [0.5],
        }
        assert set(flags) == set(config) == set(_GRID_KEYS)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(config))
        other = {"command", "config", "out", "format", "workers", "func", "runner"}
        for command, keys in (
            ("type1", [k for k in flags if k not in ("mean_shape", "xi")]),
            ("power", list(flags)),
        ):
            argv = [command, "--out", "x.csv"]
            argv += [text for key in keys for text in flags[key][:2]]
            given = {key: flags[key][2] for key in keys}
            for extra, base in (([], {}), (["--config", str(cfg)], config)):
                args = build_parser().parse_args(argv + extra)
                # every flag is stored under its grid config key
                assert set(vars(args)) - other == {*keys, "grid_defaults"}
                assert cli._build_grid(args) == grid_from_dict({**base, **given})

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["type1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--seed" in err

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"seed": 1, "replciates": 5}))
        code, _, err = run_cli(
            capsys,
            ["type1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "replciates" in err
        # values of the wrong type or form
        for key, value in (
            ("groups", 5),
            ("replicates", "x"),
            ("xi", {"stop": float("inf"), "step": 1}),
        ):
            cfg.write_text(json.dumps({"seed": 1, key: value}))
            code, _, err = run_cli(
                capsys,
                ["type1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
            )
            assert code == 2
            assert key in err and "Traceback" not in err
        # a config that is not UTF-8
        cfg.write_bytes('{"seed": 1, "noise": "wei\u00df"}'.encode("latin-1"))
        code, _, err = run_cli(
            capsys,
            ["type1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "invalid JSON" in err and "Traceback" not in err
        code, _, err = run_cli(
            capsys,
            ["type1", "--config", str(tmp_path), "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "error" in err

    def test_bad_out_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_type1", lambda *a, **k: calls.append(a))
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            code, _, err = run_cli(
                capsys, ["type1", "--out", str(out)] + self.base_flags
            )
            assert code == 2
            assert str(out) in err
        assert calls == []

    def test_bad_grid_flags_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        for command, flag, value, named in (
            ("type1", "--n-points", "a", "--n-points"),
            ("type1", "--summaries", "foo", "--summaries"),
            ("type1", "--preprocess", "pve=1.5", "preprocess_pve"),
            ("power", "--xi", "inf", "xi"),
            ("power", "--xi", "0:inf:1", "xi"),
        ):
            code, _, err = run_cli(
                capsys, [command, "--seed", "1", "--out", out, flag, value]
            )
            assert code == 2
            assert named in err and "Traceback" not in err

    def test_bad_workers_exit_2(self, tmp_path, capsys, monkeypatch):
        argv = ["type1", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        for workers in ("0", "-3", "x"):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--workers", workers])
            assert excinfo.value.code == 2
            assert "--workers" in capsys.readouterr().err
        monkeypatch.setenv("DRT_WORKERS", "x")
        for args in (["--version"], argv):
            with pytest.raises(SystemExit) as excinfo:
                main(args)
            assert excinfo.value.code == 2
            assert "DRT_WORKERS" in capsys.readouterr().err

    def test_workers_flag_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        code_s, _, _ = run_cli(
            capsys, ["type1", "--out", str(serial)] + self.base_flags
        )
        code_p, _, _ = run_cli(
            capsys,
            ["type1", "--out", str(parallel), "--workers", "2"] + self.base_flags,
        )
        assert code_s == code_p == 0
        assert read_results(serial) == read_results(parallel)

    def test_workers_default_from_env(self, monkeypatch):
        monkeypatch.setenv("DRT_WORKERS", "3")
        args = build_parser().parse_args(["type1", "--seed", "1", "--out", "x"])
        assert args.workers == 3


class TestCliTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "drt" in capsys.readouterr().out

    def test_flag_prefixes_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        write_curves_csv(make_curves(np.arange(12.0).reshape(4, 3)), path)
        out = str(tmp_path / "x.csv")
        for argv in (
            ["test", str(path), "--form", "json"],
            ["simulate", "--seed", "1", "--out", out, "--rep", "3"],
            ["type1", "--seed", "1", "--out", out, "--n-basis", "20", "--rep", "30"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
