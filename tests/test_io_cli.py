import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drtests.io as curve_io
from drtests import (
    CsvFormatError,
    DoublyRankedConfig,
    MeanShape,
    doubly_ranked_test,
    grid_from_dict,
    mww_test,
    read_curves_csv,
    read_results,
    write_curves_csv,
)
from drtests import cli, harness
from drtests.cli import build_parser, main
from drtests.harness import _GRID_KEYS
from tests.helpers import count_pipeline_calls, forbid_pool, log_shares, make_curves


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

    @pytest.mark.parametrize("header", ["inf,inf", "-inf,inf", "1,nan", "inf"])
    def test_non_finite_header_defaults_grid(self, tmp_path, header):
        # checked finite before it is compared, so no numpy warning is raised
        width = header.count(",") + 1
        row = ",".join(["1"] * width)
        path = write_text(
            tmp_path / "w.csv", f"id,group,{header}\na,x,{row}\nb,y,{row}\n"
        )
        curves, info = read_curves_csv(path)
        assert np.array_equal(curves.grid, np.linspace(0, 1, width))
        assert info.grid_source == "default"
        assert len(info.warnings) == 1

    def test_grid_may_span_the_float_range(self, tmp_path):
        # a grid whose step overflows a float is still strictly increasing
        for name, text in (
            ("w.csv", "id,group,-1e308,1e308\na,x,1,2\nb,y,3,4\n"),
            ("l.csv", "id,group,s,value\na,x,-1e308,1\na,x,1e308,2\nb,y,-1e308,3\nb,y,1e308,4\n"),
        ):
            curves, info = read_curves_csv(write_text(tmp_path / name, text))
            assert curves.grid.tolist() == [-1e308, 1e308]
            assert info.grid_source in ("header", "column")

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

    def test_non_finite_value_reports_row_and_column(self, tmp_path):
        for name, text, cell in (
            ("w.csv", "id,group,0,1\na,x,1,2\nb,y,3, nan\nc,y,inf,4\n",
             "'nan' (row 3, column '1')"),
            ("l.csv", "id,group,s,value\na,x,0,1\na,x,1,2\nb,y,0,-inf\nb,y,1,4\n",
             "'-inf' (row 4, column 'value')"),
            ("s.csv", "id,group,s,value\na,x,0,1\na,x,nan,2\nb,y,0,3\nb,y,1,4\n",
             "'nan' (row 3, column 's')"),
        ):
            path = write_text(tmp_path / name, text)
            with pytest.raises(CsvFormatError) as info:
                read_curves_csv(path)
            assert str(info.value) == f"expected a finite number, saw {cell}"

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

    def test_no_value_column_rejected(self, tmp_path):
        path = write_text(tmp_path / "w.csv", "id,group\n1,a\n2,b\n")
        with pytest.raises(
            CsvFormatError, match="wide layout needs id, group and at least one value column"
        ):
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


def count_csv_reads(monkeypatch):
    """The csv path's parses, one entry per call, a list that fills in as files are read."""
    calls = []
    read_rows = curve_io._read_rows

    def counted(text):
        calls.append(text)
        return read_rows(text)

    monkeypatch.setattr(curve_io, "_read_rows", counted)
    return calls


def count_opens(monkeypatch):
    """The files `drtests.io` opens, a list that fills in as they are opened."""
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(curve_io, "open", counted, raising=False)
    return opened


class TestWideCsvPath:
    """A wide file without quotes is read in one numpy pass; any other by the csv module."""

    @pytest.mark.parametrize(
        "variant", ["crlf", "lf", "cr", "bom", "crlf-blank", "mixed-cr", "bom-cr"]
    )
    def test_unquoted_file_takes_the_numpy_pass(self, tmp_path, monkeypatch, variant):
        curves = make_curves(np.random.default_rng(3).normal(size=(6, 4)))
        path = tmp_path / "crlf.csv"
        write_curves_csv(curves, path)
        crlf = path.read_bytes()
        assert crlf.count(b"\r\n") == 7
        lines = crlf.split(b"\r\n")
        data = {
            "crlf": crlf,
            "lf": crlf.replace(b"\r\n", b"\n"),
            "cr": crlf.replace(b"\r\n", b"\r"),
            "bom": b"\xef\xbb\xbf" + crlf,
            # blank lines after the header and between rows
            "crlf-blank": b"\r\n\r\n".join(lines[:2]) + b"\r\n\r\n\r\n" + b"\r\n".join(lines[2:]),
            # one row ends in a lone \r, the others in \r\n
            "mixed-cr": b"\r\n".join(lines[:3]) + b"\r" + b"\r\n".join(lines[3:]),
            "bom-cr": b"\xef\xbb\xbf" + crlf.replace(b"\r\n", b"\r"),
        }[variant]
        path = tmp_path / f"{variant}.csv"
        path.write_bytes(data)
        calls = count_csv_reads(monkeypatch)
        back, info = read_curves_csv(path)
        assert calls == []
        for name in ("values", "grid", "groups"):
            assert np.array_equal(getattr(back, name), getattr(curves, name))
        assert info == curve_io.CurveTableInfo(
            group_labels=("1", "2"),
            subject_ids=("1", "2", "3", "4", "5", "6"),
            grid_source="header",
            warnings=(),
        )

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('id,group,0,1\n"a",x,1,2\nb,y,3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
            ("id,group,0,1\na,x,1\x00,2\nb,y,3,4\n",
             "expected a number, saw '1\\x00' (row 2, column '0')"),
            # float() reads 1_0 as 10; loadtxt refuses it
            ("id,group,0,1\na,x,1_0,2\nb,y,3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
            ("id,group,0,1\na,x,1,2\n  \nb,y,3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("id,group,0,1\na,x,1,2\nb,y,3,nan\n",
             "expected a finite number, saw 'nan' (row 3, column '1')"),
            ("id,group,0,1\na,x,1,2\na,y,3,4\n", "duplicate subject id 'a' (row 3)"),
            # a finite number the csv module refuses for its length
            ("id,group,0,1\na,x,1,2\nb,y,0." + "0" * 131_072 + ",4\n",
             "field larger than field limit (131072) (row 3)"),
        ],
        ids=["quoted", "nul", "underscore", "spaces-row", "nan", "duplicate-id", "overlong"],
    )
    def test_other_files_take_the_csv_path(self, tmp_path, monkeypatch, text, expected):
        path = tmp_path / "w.csv"
        path.write_text(text, newline="")
        calls = count_csv_reads(monkeypatch)
        if isinstance(expected, str):
            with pytest.raises(CsvFormatError) as excinfo:
                read_curves_csv(path)
            assert str(excinfo.value) == expected
        else:
            curves, info = read_curves_csv(path)
            assert curves.values.tolist() == expected
            assert info.subject_ids == ("a", "b")
            assert info.group_labels == ("x", "y")
        assert len(calls) == 1

    def test_both_paths_name_the_same_first_row(self, tmp_path, monkeypatch):
        # one group, so the error names the first data row, past a blank line
        path = tmp_path / "w.csv"
        path.write_bytes(b"id,group,0,1\r\n\r\na,x,1,2\r\nb,x,3,4\r\n")
        calls = count_csv_reads(monkeypatch)
        with pytest.raises(CsvFormatError) as numpy_pass:
            read_curves_csv(path)
        assert calls == []
        monkeypatch.setattr(curve_io, "_loadtxt_wide", lambda text: None)
        with pytest.raises(CsvFormatError) as csv_path:
            read_curves_csv(path)
        assert len(calls) == 1
        assert str(numpy_pass.value) == str(csv_path.value)
        assert numpy_pass.value.row == csv_path.value.row == 3

    @pytest.mark.parametrize("layout", ["wide", "quoted", "long"])
    def test_a_file_is_opened_once(self, tmp_path, monkeypatch, layout):
        text = {
            "wide": "id,group,0,1\na,x,1,2\nb,y,3,4\n",
            "quoted": 'id,group,0,1\n"a","x",1,2\n"b","y",3,4\n',
            "long": "id,group,s,value\na,x,0,1\na,x,1,2\nb,y,0,3\nb,y,1,4\n",
        }[layout]
        path = write_text(tmp_path / "w.csv", text)
        calls, opened = count_csv_reads(monkeypatch), count_opens(monkeypatch)
        curves, _ = read_curves_csv(path)
        assert curves.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert opened == [path]
        assert len(calls) == (layout != "wide")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


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

    def test_json_report_is_strict_json_at_any_scale(self, tmp_path, capsys):
        # squares of values near 1e200 overflow, which once made the
        # achieved ratio NaN, a token that strict JSON does not have
        curves, _ = read_curves_csv(simulate_file(tmp_path, capsys))
        path = tmp_path / "huge.csv"
        write_curves_csv(make_curves(curves.values * 1e200, curves.groups), path)
        code, out, err = run_cli(capsys, ["test", str(path), "--format", "json"])
        assert code == 0 and "Traceback" not in err
        payload = json.loads(out, parse_constant=refuse_constant)
        assert 0.99 <= payload["pve_achieved"] <= 1.0 and payload["components_kept"] > 1

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

    @pytest.mark.parametrize(
        "flags, config",
        [
            # the library's defaults, under drt test's own pve=0.99
            ([], DoublyRankedConfig(preprocess_pve=0.99)),
            (
                [
                    "--summary", "avg", "--preprocess", "none", "--alternative",
                    "greater", "--exact-threshold", "0", "--no-continuity-correction",
                ],
                DoublyRankedConfig(
                    summary="average_rank",
                    alternative="greater",
                    exact_threshold=0,
                    continuity_correction=False,
                ),
            ),
        ],
    )
    def test_flags_build_the_library_config(self, tmp_path, capsys, flags, config):
        path = simulate_file(tmp_path, capsys)
        code, out, _ = run_cli(capsys, ["test", str(path), "--format", "json"] + flags)
        assert code == 0
        payload = json.loads(out)
        expected = doubly_ranked_test(read_curves_csv(path)[0], config)
        assert payload["method"] == expected.method.value
        assert payload["alternative"] == expected.alternative.value
        assert payload["summary"] == config.summary.value
        assert payload["preprocess_pve"] == config.preprocess_pve
        for key in ("statistic", "z_or_df", "p_value", "tie_correction_applied"):
            assert payload[key] == getattr(expected, key)

    def test_verbose_reports_other_correction(self, tmp_path, capsys):
        path = simulate_file(tmp_path, capsys)
        code, out, _ = run_cli(
            capsys,
            ["test", str(path), "--exact-threshold", "0", "--verbose"],
        )
        assert code == 0
        assert "without continuity correction" in out
        flag = "--no-continuity-correction"
        code, text_out, _ = run_cli(
            capsys,
            ["test", str(path), "--exact-threshold", "0", "--verbose", flag],
        )
        assert code == 0
        assert "with continuity correction" in text_out
        # JSON carries the same value under --verbose, null off the normal path
        json_argv = ["test", str(path), "--format", "json"]
        code, out, _ = run_cli(capsys, json_argv + ["--exact-threshold", "0"])
        assert code == 0 and "p_value_flipped" not in json.loads(out)
        code, out, _ = run_cli(
            capsys, json_argv + ["--exact-threshold", "0", "--verbose", flag]
        )
        payload = json.loads(out)
        assert code == 0 and payload["method"] == "mww-normal"
        assert f"{payload['p_value_flipped']:.6g}" in text_out
        assert payload["p_value_flipped"] != payload["p_value"]
        code, out, _ = run_cli(capsys, json_argv + ["--verbose"])
        payload = json.loads(out)
        assert code == 0 and payload["method"] != "mww-normal"
        assert payload["p_value_flipped"] is None

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

    def test_bad_flags_exit_2_before_reading(self, tmp_path, capsys, monkeypatch):
        path = simulate_file(tmp_path, capsys)
        calls = []
        monkeypatch.setattr(cli, "read_curves_csv", lambda *a: calls.append(a))
        for flags, message in (
            (["--preprocess", "pve=2"], "preprocess_pve"),
            (["--preprocess", "x"], "--preprocess expects"),
            (["--exact-threshold", "-1"], "exact_threshold"),
        ):
            code, _, err = run_cli(capsys, ["test", str(path)] + flags)
            assert code == 2
            assert message in err and "Traceback" not in err
        assert calls == []

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
        # the --out extension picks the format
        out = tmp_path / "t1.jsonl"
        code, _, _ = run_cli(capsys, ["type1", "--out", str(out)] + self.base_flags)
        assert code == 0
        assert json.loads(out.read_text().splitlines()[0])["xi"] == 0.0
        assert len(read_results(out)) == 2

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
            # a reversed range, which type1 would otherwise run with no shifts
            ("xi", {"start": 2, "stop": 1, "step": 0.5}),
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

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, ["power", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "must be a JSON object" in err and "Traceback" not in err
        assert not out.exists()

    def test_sizes_past_the_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # refused when the config is built: nothing is drawn or allocated
        monkeypatch.setattr(harness, "_count_rejections", None)
        monkeypatch.setattr(cli, "generate_dataset", None)
        huge = "9999999999999999999999"
        cfg = tmp_path / "grid.json"
        cfg.write_text(f'{{"seed": 1, "n_basis": {huge}}}')
        out = str(tmp_path / "x.csv")
        for argv in (
            ["type1", "--config", str(cfg), "--out", out],
            ["simulate", "--seed", "1", "--n-basis", huge, "--out", out],
            ["simulate", "--seed", "1", "--n-points", huge, "--out", out],
            ["power", "--seed", "1", "--n-points", huge, "--out", out],
        ):
            code, _, err = run_cli(capsys, argv)
            assert code == 2
            assert "values a replicate's array may hold" in err and "Traceback" not in err

    def test_bad_out_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_type1", lambda *a, **k: calls.append(a))
        for out in (tmp_path / "missing" / "x.csv", tmp_path, ""):
            code, _, err = run_cli(
                capsys, ["type1", "--out", str(out)] + self.base_flags
            )
            assert code == 2
            assert str(out) in err
        assert calls == []

    def test_simulate_bad_out_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "generate_dataset", lambda *a, **k: calls.append(a))
        for out in (tmp_path / "missing" / "x.csv", tmp_path, ""):
            code, _, err = run_cli(capsys, ["simulate", "--seed", "1", "--out", str(out)])
            assert code == 2
            assert str(out) in err and "Traceback" not in err
        assert calls == []

    def test_bad_grid_flags_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        for command, flag, value, named in (
            ("type1", "--n-points", "a", "--n-points"),
            ("type1", "--summaries", "foo", "--summaries"),
            # an empty list is refused for its key
            ("type1", "--n-points", ",", "'n_points' must be a nonempty list"),
            ("type1", "--summaries", "", "'summaries' must be a nonempty list"),
            ("type1", "--groups", ";", "'groups' must be a nonempty list"),
            ("power", "--xi", "", "'xi' must be a nonempty list"),
            ("type1", "--preprocess", "pve=1.5", "preprocess_pve"),
            ("power", "--xi", "inf", "xi"),
            ("power", "--xi", "0:inf:1", "xi"),
            # a reversed range is refused for its key, not run with no shifts
            ("power", "--xi", "2:1:0.5", "'xi' range stop must be >= start"),
            ("power", "--xi", "a:b:c", "--xi expects 'start:stop:step'"),
        ):
            code, _, err = run_cli(
                capsys, [command, "--seed", "1", "--out", out, flag, value]
            )
            assert code == 2
            assert named in err and "Traceback" not in err

    def test_bad_workers_exit_2(self, tmp_path, capsys, monkeypatch):
        argv = ["type1", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workers", "x"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

        # run_power refuses a count below 1 or above the ceiling before a
        # pool opens
        forbid_pool(monkeypatch)
        for workers, message in (
            ("0", "workers must lie in [1, inf), got 0"),
            ("-3", "workers must lie in [1, inf), got -3"),
            ("100000", "workers must be at most"),
        ):
            code, _, err = run_cli(capsys, argv + ["--workers", workers])
            assert code == 2
            assert message in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_workers_flag_matches_serial(self, tmp_path, capsys, monkeypatch):
        # a share of a single curve value, so the two-worker run forks
        monkeypatch.setattr(harness, "_SHARE_MIN", 1)
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

    def test_unexpected_error_prints_a_traceback_and_returns_1(self, tmp_path, capsys, monkeypatch):
        def fail(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "_cmd_test", fail)
        code, out, err = run_cli(capsys, ["test", str(tmp_path / "c.csv")])
        assert code == 1 and out == ""
        assert "Traceback" in err and "RuntimeError: unexpected" in err


# A size far past the budget of values a replicate's array may hold; every
# other size below is small, so no accepted case allocates much
_HUGE = "9999999999999999999999"
_SIM_FLAGS = {
    "--dist": ["gaussian", "t2", "normal"],
    "--noise": ["none", "white", "ar1", "x"],
    "--rho": ["0.5", "1", "nan"],
    "--n-basis": ["4", "0", _HUGE],
}
_GRID_FLAGS = {
    **_SIM_FLAGS,
    "--config": ["grid.json", "huge.json", "bad.json", "missing.json"],
    "--reps": ["1", "3", "0", "x", _HUGE],
    "--n-points": ["3", "2,3", ",", "0", "a", _HUGE],
    "--groups": ["3,3", "2,2;3,3,3", ";", "3", "x"],
    "--alpha": ["0.05", "0", "x"],
    "--summaries": ["suff", "avg,suff", "", "foo"],
    "--preprocess": ["none", "pve=0.5", "pve=2", "x"],
    "--workers": ["1", "0", "-3", "x", "100000"],
}
# each command's flags and the values drawn for them (None for a switch)
_COMMAND_FLAGS = {
    "test": {
        "--summary": ["suff", "avg", "x"],
        "--preprocess": ["none", "pve=0.5", "pve=1", "pve=0", "pve=x"],
        "--alternative": ["two-sided", "less", "greater", "up"],
        "--format": ["text", "json"],
        "--exact-threshold": ["0", "60", "61", "-1", "x"],
        "--no-continuity-correction": None,
        "--verbose": None,
    },
    "simulate": {
        **_SIM_FLAGS,
        "--groups": ["3,3", "2,2,2", "3,3;4,4", "", ";", "0,3", "x"],
        "--n-points": ["3", "0", _HUGE],
        "--mean": ["linear", "parabola", "x"],
        "--xi": ["0", "1.5", "-1", "inf"],
        "--replicate": ["0", "-1", str(2**128)],
    },
    "type1": _GRID_FLAGS,
    "power": {
        **_GRID_FLAGS,
        "--mean": ["linear", "beta-bump", "x"],
        "--xi": ["0,1", "0:1:0.5", "", "inf", "0:1:1e-9", "2:1:0.5"],
    },
}
# the inputs of drt test, the paths --out writes to, and --config files
_INPUTS = ["wide.csv", "long.csv", "three.csv", "huge.csv", "bad.csv", "missing.csv", "."]
_OUTS = ["out.csv", "out.jsonl", ".", "missing/out.csv"]
_CONFIGS = {
    "grid.json": '{"seed": 1, "n_points": [3], "groups": [[3, 3]], "replicates": 2}',
    "huge.json": f'{{"seed": 1, "n_basis": {_HUGE}}}',
    "bad.json": "{",
}


@pytest.fixture(scope="module")
def cli_folder(tmp_path_factory):
    """A folder holding every file the argv fuzzer's cases read."""
    folder = tmp_path_factory.mktemp("cli")
    values = np.random.default_rng(5).normal(size=(8, 4)) + np.repeat([0.0, 1.0], 4)[:, None]
    write_curves_csv(make_curves(values), folder / "wide.csv")
    # values near 1e200, whose squares overflow
    write_curves_csv(make_curves(values * 1e200), folder / "huge.csv")
    write_curves_csv(make_curves(values[:6], [1, 1, 2, 2, 3, 3]), folder / "three.csv")
    rows = [f"{i},{g},{s},{v!r}" for i, g, row in zip(range(8), [1] * 4 + [2] * 4, values)
            for s, v in enumerate(row.tolist())]
    (folder / "long.csv").write_text("\n".join(["id,group,s,value", *rows]) + "\n")
    (folder / "bad.csv").write_text("id,group,0,1\na,x,1,oops\nb,y,3,4\n")
    for name, text in _CONFIGS.items():
        (folder / name).write_text(text)
    return folder


@st.composite
def cli_argvs(draw):
    """A drt command line, its tokens drawn from each command's fixed lists."""
    command = draw(st.sampled_from(list(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command]
    argv = [command]
    if command == "test":
        argv.append(draw(st.sampled_from(_INPUTS)))
    else:
        argv += ["--out", draw(st.sampled_from(_OUTS))]
        argv += ["--seed", draw(st.sampled_from(["1", "2", "-1"]))]
    for flag in draw(st.lists(st.sampled_from(list(flags)), unique=True, max_size=4)):
        argv += [flag] if flags[flag] is None else [flag, draw(st.sampled_from(flags[flag]))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
def test_cli_exits_0_or_2_without_a_traceback(cli_folder, argv):
    # every path is relative to the folder, so main must run from there
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(cli_folder)
        # a grid of any size counts nothing, and no pool is opened
        forbid_pool(mp)
        log_shares(mp, cli_folder, count=False)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the command line
                code = exc.code
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# bytes that CSV gives meaning to, a byte-order mark, a NUL, bytes that
# are not UTF-8, and bytes float() and loadtxt read differently: padding,
# an underscore, a bare exponent and a full-width digit
_CSV_BYTES = st.sampled_from(
    [b",", b"\n", b"\r\n", b"\n\n", b'"', b" ", b"\x00", b"\xef\xbb\xbf", b"\xff", b"\xc3"]
    + [b"\r", b"\t", b"_", b"e", b"\xef\xbc\x91"]
)
# each edit replaces, inserts or deletes at a fraction of the file's
# length, or repeats the line there, so that an id appears twice
_CSV_EDITS = st.lists(
    st.tuples(
        st.floats(0, 1), st.sampled_from(["replace", "insert", "delete", "repeat"]), _CSV_BYTES
    ),
    min_size=1,
    max_size=4,
)


def _read_outcome(path):
    """The bits of each array read_curves_csv returns and its info, or its error's text."""
    try:
        curves, info = read_curves_csv(path)
    except CsvFormatError as exc:
        return str(exc)
    arrays = (curves.values, curves.grid, curves.groups)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], info


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["wide.csv", "long.csv"]), _CSV_EDITS)
def test_read_curves_csv_raises_only_csv_format_error(cli_folder, name, edits):
    data = bytearray((cli_folder / name).read_bytes())
    for where, edit, piece in edits:
        at = int(where * len(data))
        if edit == "insert":
            data[at:at] = piece
        elif edit == "repeat":
            start = data.rfind(b"\n", 0, at) + 1
            end = data.find(b"\n", at) + 1 or len(data)
            data[start:start] = data[start:end]
        else:
            data[at : at + len(piece)] = piece if edit == "replace" else b""
    path = cli_folder / f"fuzzed-{name}"
    path.write_bytes(bytes(data))
    outcome = _read_outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        # the csv path alone, as every file was read before the numpy pass
        mp.setattr(curve_io, "_loadtxt_wide", lambda path: None)
        assert outcome == _read_outcome(path)

