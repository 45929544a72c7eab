"""CSV ingestion and export of curve data.

Two layouts are accepted. Wide: header `id,group,<S value columns>`, one
row per subject. Long: header `id,group,s,value`, one row per measurement.
Curves must be complete (every subject measured at every location). Group
labels may be arbitrary strings; they are mapped to 1..G in sorted order
(numeric when every label parses as a number, lexicographic otherwise).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .ranking import CurveSet

__all__ = ["CsvFormatError", "CurveTableInfo", "read_curves_csv", "write_curves_csv"]


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


def _map_groups(raw_labels: list[str], rows: list[int]) -> tuple[np.ndarray, tuple[str, ...]]:
    distinct = sorted(set(raw_labels))
    try:
        distinct.sort(key=float)
    except ValueError:
        pass  # non-numeric labels stay lexicographic
    if len(distinct) < 2:
        raise CsvFormatError(
            f"need at least 2 distinct groups, saw {distinct}", row=rows[0]
        )
    index = {label: g for g, label in enumerate(distinct, start=1)}
    return np.array([index[lab] for lab in raw_labels]), tuple(distinct)


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CsvFormatError(
            f"expected a number, saw {text!r}", row=row, column=column
        ) from None


def _read_rows(path: str | os.PathLike) -> tuple[list[str], list[tuple[int, list[str]]]]:
    # utf-8-sig drops the byte-order mark that Excel writes before the header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = [
                (line_no, row)
                for line_no, row in enumerate(reader, start=2)
                if any(field.strip() for field in row)
            ]
        except StopIteration:
            raise CsvFormatError("file is empty") from None
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"file is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise CsvFormatError(str(exc), row=reader.line_num) from None
    return [h.strip() for h in header], rows


def _parse_wide(
    header: list[str], rows: list[tuple[int, list[str]]]
) -> tuple[CurveSet, CurveTableInfo]:
    if len(header) < 3:
        raise CsvFormatError(
            "wide layout needs id, group and at least one value column"
        )
    value_cols = header[2:]
    warnings: list[str] = []
    grid = None
    try:
        candidate = np.array([float(h) for h in value_cols])
    except ValueError:
        candidate = None
    if candidate is not None and (
        candidate.size == 1 or np.all(np.diff(candidate) > 0)
    ):
        grid = candidate
        grid_source = "header"
    else:
        grid = np.linspace(0.0, 1.0, num=len(value_cols))
        grid_source = "default"
        warnings.append(
            "value-column headers are not strictly increasing numbers; "
            "grid defaulted to equally spaced on [0, 1] (the tests never "
            "consult grid spacing)"
        )

    ids: list[str] = []
    raw_groups: list[str] = []
    group_rows: list[int] = []
    values = np.empty((len(rows), len(value_cols)))
    seen = set()
    for i, (line_no, row) in enumerate(rows):
        if len(row) != len(header):
            raise CsvFormatError(
                f"expected {len(header)} fields, saw {len(row)}", row=line_no
            )
        subject = row[0].strip()
        if subject in seen:
            raise CsvFormatError(f"duplicate subject id {subject!r}", row=line_no)
        seen.add(subject)
        ids.append(subject)
        raw_groups.append(row[1].strip())
        group_rows.append(line_no)
        for j, col in enumerate(value_cols):
            values[i, j] = _parse_float(row[2 + j].strip(), line_no, col)
    if not ids:
        raise CsvFormatError("no data rows")
    groups, labels = _map_groups(raw_groups, group_rows)
    try:
        curves = CurveSet(values=values, grid=grid, groups=groups)
    except InvalidInputError as exc:
        raise CsvFormatError(str(exc)) from exc
    return curves, CurveTableInfo(
        group_labels=labels,
        subject_ids=tuple(ids),
        grid_source=grid_source,
        warnings=tuple(warnings),
    )


def _parse_long(
    header: list[str], rows: list[tuple[int, list[str]]]
) -> tuple[CurveSet, CurveTableInfo]:
    cols = [h.lower() for h in header]
    idx = {name: cols.index(name) for name in ("id", "group", "s", "value")}

    per_subject: dict[str, dict[float, float]] = {}
    subject_group: dict[str, str] = {}
    first_row: dict[str, int] = {}
    order: list[str] = []
    for line_no, row in rows:
        if len(row) != len(header):
            raise CsvFormatError(
                f"expected {len(header)} fields, saw {len(row)}", row=line_no
            )
        subject = row[idx["id"]].strip()
        group = row[idx["group"]].strip()
        s = _parse_float(row[idx["s"]].strip(), line_no, "s")
        value = _parse_float(row[idx["value"]].strip(), line_no, "value")
        if subject not in per_subject:
            per_subject[subject] = {}
            subject_group[subject] = group
            first_row[subject] = line_no
            order.append(subject)
        elif subject_group[subject] != group:
            raise CsvFormatError(
                f"subject {subject!r} appears in groups "
                f"{subject_group[subject]!r} and {group!r}",
                row=line_no,
            )
        if s in per_subject[subject]:
            raise CsvFormatError(
                f"duplicate measurement for subject {subject!r} at s={s}",
                row=line_no,
                column="s",
            )
        per_subject[subject][s] = value
    if not order:
        raise CsvFormatError("no data rows")

    grid_values = sorted(set().union(*per_subject.values()))
    for subject in order:
        missing = [s for s in grid_values if s not in per_subject[subject]]
        if missing:
            raise CsvFormatError(
                f"subject {subject!r} is missing {len(missing)} of "
                f"{len(grid_values)} measurement locations "
                f"(first missing s={missing[0]}); curves must be complete",
                row=first_row[subject],
            )
    values = np.array(
        [[per_subject[subj][s] for s in grid_values] for subj in order]
    )
    groups, labels = _map_groups(
        [subject_group[s] for s in order], [first_row[s] for s in order]
    )
    try:
        curves = CurveSet(values=values, grid=np.array(grid_values), groups=groups)
    except InvalidInputError as exc:
        raise CsvFormatError(str(exc)) from exc
    return curves, CurveTableInfo(
        group_labels=labels,
        subject_ids=tuple(order),
        grid_source="column",
        warnings=(),
    )


def read_curves_csv(
    path: str | os.PathLike, form: str = "auto"
) -> tuple[CurveSet, CurveTableInfo]:
    """Parse a curve table; layout is detected from the header when "auto".

    A header consisting of exactly id, group, s, value (any order, any
    case) is read as long form; anything else as wide form.
    """
    if form not in ("auto", "wide", "long"):
        raise InvalidInputError(f"form must be auto, wide or long; got {form!r}")
    header, rows = _read_rows(path)
    lowered = sorted(h.lower() for h in header)
    if form == "long" or (form == "auto" and lowered == ["group", "id", "s", "value"]):
        if lowered != ["group", "id", "s", "value"]:
            raise CsvFormatError(
                "long layout needs exactly the columns id, group, s, value; "
                f"saw {header}"
            )
        return _parse_long(header, rows)
    return _parse_wide(header, rows)


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
