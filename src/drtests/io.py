r"""CSV ingestion and export of curve data.

Two layouts are accepted. Wide: header `id,group,<S value columns>`, one
row per subject. Long: header `id,group,s,value`, one row per measurement.
Curves must be complete (every subject measured at every location). Group
labels may be arbitrary strings; they are mapped to 1..G in sorted order
(numeric when every label parses as a number, lexicographic otherwise).

The file is read and decoded once, as UTF-8 with an optional byte-order
mark, whichever path parses it. A wide file without quotes is parsed in one
`np.loadtxt` pass. Any file that pass declines (the long layout, quotes, a
NUL, or any cell, row or id the pass cannot take as it stands) is parsed by
the csv module instead, which gives the same table, or names the row and
column at fault. A line may end in `\n`, `\r\n` or `\r`.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .ranking import CurveSet

__all__ = ["CsvFormatError", "CurveTableInfo", "read_curves_csv", "write_curves_csv"]

# (line number, fields) of each data row
_Rows = list[tuple[int, list[str]]]
# a wide table read by either path: its value-column headers, the line
# number of its first data row, and its ids, raw group labels and values
_Wide = tuple[list[str], int, list[str], list[str], np.ndarray]


class CsvFormatError(InvalidInputError):
    """Malformed curve CSV, with row/column context when known."""

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        ctx = []
        if row is not None:
            ctx.append(f"row {row}")
        if column is not None:
            ctx.append(f"column {column!r}")
        if ctx:
            message = f"{message} ({', '.join(ctx)})"
        super().__init__(message)
        self.row = row
        self.column = column


@dataclass(frozen=True)
class CurveTableInfo:
    """How a parsed table mapped onto the in-memory curve set."""

    group_labels: tuple[str, ...]  # original label for groups 1..G
    subject_ids: tuple[str, ...]
    grid_source: str  # "header", "column", or "default"
    warnings: tuple[str, ...]


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CsvFormatError(
            f"expected a number, saw {text.strip()!r}", row=row, column=column
        ) from None


def _parse_floats(
    cells: list[list[str]], line_nos: list[int], columns: list[str]
) -> np.ndarray:
    """The cells as a finite float matrix, one row per data row.

    This is the csv path's conversion. numpy converts each cell as float()
    does, padding included; only when that fails does the per-cell loop
    run, to name the bad cell. A cell that parses to nan or inf raises too,
    naming the first such cell. The one-pass wide read takes a subset of
    these cells, to the same values, and leaves every other file to this
    path.
    """
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        values = np.array(
            [
                [_parse_float(text, line_no, col) for text, col in zip(row, columns)]
                for line_no, row in zip(line_nos, cells)
            ]
        )
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise CsvFormatError(
            f"expected a finite number, saw {cells[i][j].strip()!r}",
            row=line_nos[i],
            column=columns[j],
        )
    return values


def _read_rows(text: str) -> tuple[list[str], _Rows]:
    r"""The stripped header, and (line number, fields) of each nonblank row.

    The csv module splits the decoded text into records at `\n`, `\r\n`
    and `\r`, as it splits a file opened with newline="". Only the header
    is stripped here; each layout strips its id and group fields, and the
    number conversion accepts padded cells as they are.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [h.strip() for h in next(reader)]
        rows = [
            (line_no, row)
            for line_no, row in enumerate(reader, start=2)
            if any(field.strip() for field in row)
        ]
    except StopIteration:
        raise CsvFormatError("file is empty") from None
    except csv.Error as exc:
        raise CsvFormatError(str(exc), row=reader.line_num) from None
    for line_no, fields in rows:
        if len(fields) != len(header):
            raise CsvFormatError(
                f"expected {len(header)} fields, saw {len(fields)}", row=line_no
            )
    if not rows:
        raise CsvFormatError("no data rows")
    return header, rows


def _curve_table(
    first_row: int,
    ids: list[str],
    raw_groups: list[str],
    values: np.ndarray,
    grid: np.ndarray,
    grid_source: str,
    warnings: tuple[str, ...] = (),
) -> tuple[CurveSet, CurveTableInfo]:
    """The curve set and table info of the subjects parsed from either layout."""
    distinct = sorted(set(raw_groups))
    try:
        distinct.sort(key=float)
    except ValueError:
        pass  # non-numeric labels stay lexicographic
    if len(distinct) < 2:
        raise CsvFormatError(
            f"need at least 2 distinct groups, saw {distinct}", row=first_row
        )
    index = {label: g for g, label in enumerate(distinct, start=1)}
    groups = np.array([index[label] for label in raw_groups])
    return CurveSet(values=values, grid=grid, groups=groups), CurveTableInfo(
        group_labels=tuple(distinct),
        subject_ids=tuple(ids),
        grid_source=grid_source,
        warnings=warnings,
    )


def _is_long(header: list[str]) -> bool:
    """Whether the header names the long layout: id, group, s, value in any order and case."""
    return sorted(h.lower() for h in header) == ["group", "id", "s", "value"]


def _loadtxt_wide(text: str) -> _Wide | None:
    r"""The wide table parsed in one `np.loadtxt` pass, or None to leave it to the csv path.

    Without quotes or a NUL, the csv module splits records only where a
    `\n`, `\r\n` or `\r` ends a line, and fields only at commas, as here;
    and loadtxt takes a subset of the cells float() takes, to the same value.
    So a table this pass returns is the one the csv path returns. It
    returns None wherever the csv path might read otherwise or raise: the
    long layout, quotes, a NUL, no data row, a field past the csv module's
    size limit, a cell or row loadtxt refuses, a non-finite value or a
    repeated id.
    """
    if '"' in text or "\0" in text:
        return None
    lines = text.split("\n")
    # loadtxt drops a line's last \r, as of a \r\n end; only a \r inside
    # a line, a lone \r line end, needs the line ends made \n first
    if any(-1 < line.find("\r") < len(line) - 1 for line in lines):
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header, body = [h.strip() for h in lines[0].split(",")], lines[1:]
    first_row = next(
        (line_no for line_no, line in enumerate(body, start=2) if line not in ("", "\r")),
        None,
    )
    limit = csv.field_size_limit()
    if (
        _is_long(header)
        or len(header) < 3
        or first_row is None
        or any(len(line) > limit and max(map(len, line.split(","))) > limit for line in lines)
    ):
        return None
    dtype = np.dtype(
        [("id", object), ("group", object), ("values", float, (len(header) - 2,))]
    )
    try:
        # loadtxt skips an empty line, as the csv path skips a blank row,
        # and refuses a row of spaces or bare commas, which that path skips
        table = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    ids = [subject.strip() for subject in table["id"]]
    values = table["values"]
    if len(set(ids)) < len(ids) or not np.isfinite(values).all():
        return None
    return header[2:], first_row, ids, [group.strip() for group in table["group"]], values


def _parse_wide(header: list[str], rows: _Rows) -> _Wide:
    """The wide table in the csv module's rows; CsvFormatError names its first fault."""
    if len(header) < 3:
        raise CsvFormatError(
            "wide layout needs id, group and at least one value column"
        )
    value_cols = header[2:]
    line_nos = [line_no for line_no, _ in rows]
    ids = [row[0].strip() for _, row in rows]
    seen = set()
    for line_no, subject in zip(line_nos, ids):
        if subject in seen:
            raise CsvFormatError(f"duplicate subject id {subject!r}", row=line_no)
        seen.add(subject)
    values = _parse_floats([row[2:] for _, row in rows], line_nos, value_cols)
    groups = [row[1].strip() for _, row in rows]
    return value_cols, rows[0][0], ids, groups, values


def _wide_table(
    value_cols: list[str],
    first_row: int,
    ids: list[str],
    raw_groups: list[str],
    values: np.ndarray,
) -> tuple[CurveSet, CurveTableInfo]:
    """The curve set of a wide table read by either path.

    The value-column headers become the grid when they are finite and
    strictly increasing numbers; otherwise the grid is the default one,
    with a warning.
    """
    warnings: tuple[str, ...] = ()
    try:
        grid = np.array([float(h) for h in value_cols])
    except ValueError:
        grid = None
    if grid is not None and np.isfinite(grid).all() and (grid[1:] > grid[:-1]).all():
        grid_source = "header"
    else:
        grid = np.linspace(0.0, 1.0, num=len(value_cols))
        grid_source = "default"
        warnings = (
            "value-column headers are not strictly increasing numbers; "
            "grid defaulted to equally spaced on [0, 1] (the tests never "
            "consult grid spacing)",
        )
    return _curve_table(first_row, ids, raw_groups, values, grid, grid_source, warnings)


def _parse_long(header: list[str], rows: _Rows) -> tuple[CurveSet, CurveTableInfo]:
    cols = [h.lower() for h in header]
    id_col, group_col, s_col, value_col = (
        cols.index(name) for name in ("id", "group", "s", "value")
    )
    line_nos = [line_no for line_no, _ in rows]
    measured = _parse_floats(
        [[row[s_col], row[value_col]] for _, row in rows], line_nos, ["s", "value"]
    ).tolist()
    # subject id -> (group, first row, {s: value}), in order of first appearance
    subjects: dict[str, tuple[str, int, dict[float, float]]] = {}
    for (line_no, row), (s, value) in zip(rows, measured):
        subject, group = row[id_col].strip(), row[group_col].strip()
        first_group, _, curve = subjects.setdefault(subject, (group, line_no, {}))
        if first_group != group:
            raise CsvFormatError(
                f"subject {subject!r} appears in groups {first_group!r} and {group!r}",
                row=line_no,
            )
        if s in curve:
            raise CsvFormatError(
                f"duplicate measurement for subject {subject!r} at s={s}",
                row=line_no,
                column="s",
            )
        curve[s] = value

    grid = sorted(set().union(*(curve for _, _, curve in subjects.values())))
    for subject, (_, first_row, curve) in subjects.items():
        missing = [s for s in grid if s not in curve]
        if missing:
            raise CsvFormatError(
                f"subject {subject!r} is missing {len(missing)} of "
                f"{len(grid)} measurement locations "
                f"(first missing s={missing[0]}); curves must be complete",
                row=first_row,
            )
    values = np.array([[curve[s] for s in grid] for _, _, curve in subjects.values()])
    groups = [group for group, _, _ in subjects.values()]
    return _curve_table(
        rows[0][0], list(subjects), groups, values, np.array(grid), "column"
    )


def read_curves_csv(path: str | os.PathLike) -> tuple[CurveSet, CurveTableInfo]:
    """Parse a curve table in the layout its header names.

    A header consisting of exactly id, group, s, value (any order, any
    case) is read as long form; anything else as wide form. The file is
    read and decoded once. A wide file is parsed in one numpy pass where
    that pass can take it, and by the csv module otherwise, with the same
    result either way.
    """
    try:
        # utf-8-sig drops the byte-order mark that Excel writes before the header
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"file is not UTF-8 text: {exc.reason}") from None
    wide = _loadtxt_wide(text)
    if wide is None:
        header, rows = _read_rows(text)
        if _is_long(header):
            return _parse_long(header, rows)
        wide = _parse_wide(header, rows)
    return _wide_table(*wide)


def write_curves_csv(curves: CurveSet, path: str | os.PathLike) -> None:
    """Write a curve set in wide layout.

    Column headers carry the grid values with full precision, so reading
    the file back reproduces the grid exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group"] + [repr(float(s)) for s in curves.grid])
        for i in range(curves.n_subjects):
            writer.writerow(
                [str(i + 1), str(int(curves.groups[i]))]
                + [repr(float(v)) for v in curves.values[i]]
            )
