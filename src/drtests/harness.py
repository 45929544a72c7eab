"""Monte Carlo calibration and power experiments.

A grid pairs a simulation template with factor lists (grid sizes, group
schemes, shift scales, summaries). Each cell simulates its replicates from
counter-based substreams and records the fraction of doubly ranked tests
rejecting at level alpha. A run is its shapes: one checked SimConfig per
(group scheme, grid size), whose m cells are the grid's m shift scales.
They share replicate r's draws (common random numbers): only the shift
added to groups 2..G tells them apart. The unit of a run is one (shape,
replicate), tested at all m shifts: shape k holds units k·R .. k·R + R - 1.
workers is the most processes a run may use, not a number it must use:
the units are cut into contiguous shares of about equal total m·n·S, at
most one per worker and at most one per 2^18 curve values (a fixed floor,
not a setting), so a run of fewer than 2^19 values is one share and
counts in the calling process. The calling process counts the first
share itself; with k >= 2 shares, one pool of k - 1 processes opened for
the run takes one task for each other share meanwhile. A share draws
each of a shape's replicates once, in chunks of whole replicates of up to
2^15 curve values (a fixed memory budget, not a setting): one
`_base_values` call (one re-pointed generator, one noise filter call) per
chunk. It runs a chunk's (replicate, shift) positions, replicate-major,
in blocks of as many positions as a chunk holds replicates (one per block
for a shape whose n·S exceeds the budget). A block gathers its positions
from the chunk with one index and is ranked and summarized in one pass. Its score rows join a batch of whole blocks of at most 2^15 score
values per summary (so a shape of n subjects wider than the budget is
still tested 2^15 // n positions at a time); a full batch, or the last of
a shape's range, is tested in one call per summary, and each row's
rejection is credited to its cell.
Because substream r depends only on (seed, r) and a re-pointed generator
is in the state a new one for r starts in, the filter treats each curve
on its own, the shifted values are the same IEEE sums wherever they are
formed, the scores add each subject's occasions in one fixed order,
every test treats each row on its own, and a run sums its shares'
integer counts, results are identical for any worker count, chunk size,
block size and batch size.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from ._version import __version__
from .errors import (
    InvalidInputError, _check_fields, _count, _groups, _list, _member, _number, _optional, _path,
    _record, _trusted, _within
)
from .preprocess import _check_pve
from .rank_tests import DoublyRankedConfig, _doubly_ranked_scores, _score_block
from .ranking import _group_labels
from .simgen import (
    _SIM_CHECKS, CoeffDist, MeanShape, NoiseKind, SimConfig, _ar1_filter, _base_values,
    _scale, _shift
)
from .summaries import SummaryKind

__all__ = [
    "ExperimentGrid",
    "CellSpec",
    "CellResult",
    "run_type1",
    "run_power",
    "write_results",
    "read_results",
    "grid_from_dict",
    "load_grid",
]

_DEFAULT_XI = tuple(round(0.12 * i, 10) for i in range(26))  # 0, 0.12, ..., 3
_MAX_SHIFTS = 10_000  # the most shifts a config range may hold
# The most processes a run may use: a pool forks all of its processes at
# once, so a mistyped count must not reach it
_MAX_WORKERS = max(64, os.cpu_count() or 1)


_level = _within(0, 1, "()")  # a test level
_rate = _within(0, 1)  # a rejection rate


# The check of each ExperimentGrid factor (and of the grid config key that sets it)
_GRID_CHECKS = {
    "n_points_values": _list(_count),
    "group_schemes": _list(_groups),
    "xi_values": _list(_SIM_CHECKS["xi"]),
    "replicates": _count,
    "alpha": _level,
    "summaries": _list(_member(SummaryKind)),
    "preprocess_pve": _optional(_check_pve),
}


@dataclass(frozen=True)
class ExperimentGrid:
    """Factor grid around a simulation template.

    The template's n_per_group, n_points and xi are overridden by the
    factor lists here (a template with xi=2.0 still gives null rows at
    0.0); its distribution, noise model, mean shape, basis size and seed
    are shared by every cell. preprocess_pve, when set, smooths each
    simulated dataset before testing.
    """

    base: SimConfig
    n_points_values: tuple[int, ...] = (40, 120, 360)
    group_schemes: tuple[tuple[int, ...], ...] = ((10, 10), (25, 25), (50, 50))
    xi_values: tuple[float, ...] = _DEFAULT_XI
    replicates: int = 2000
    alpha: float = 0.05
    summaries: tuple[SummaryKind, ...] = tuple(SummaryKind)
    preprocess_pve: float | None = None

    def __post_init__(self) -> None:
        _check_fields(self, base=_record(SimConfig), **_GRID_CHECKS)


# The check of each CellSpec field: a result row's cell columns, in file order
_ROW = {
    **{k: _SIM_CHECKS[k] for k in ("coeff_dist", "mean_shape", "xi", "noise", "rho")},
    **{k: _SIM_CHECKS[k] for k in ("n_points", "n_basis")},
    "group_sizes": _groups,
    "summary": _member(SummaryKind),
    "alpha": _level,
    "seed": _SIM_CHECKS["seed"],
    "preprocess_pve": _GRID_CHECKS["preprocess_pve"],
}


def _sizes(text: str) -> tuple[int, ...]:
    """Group sizes from their CSV form "n1+n2+..."."""
    return tuple(int(g) for g in text.split("+"))


def _optional_float(text: str) -> float | None:
    """None for the empty field of an unset value, else the number."""
    return None if text == "" else float(text)


# The check of each result column after the cell's, run by read_results only:
# the rows run_power builds come from checked counts
_RESULT = {"replicates": _count, "rejection_rate": _rate, "mc_stderr": _scale}

# The reader of each column whose CSV text is not its value; the enum
# columns are read by their check
_CSV_TEXT = {
    **dict.fromkeys(("xi", "rho", "alpha", "rejection_rate", "mc_stderr"), float),
    **dict.fromkeys(("n_points", "n_basis", "seed", "replicates"), int),
    "group_sizes": _sizes,
    "preprocess_pve": _optional_float,
}


@dataclass(frozen=True)
class CellSpec:
    """Full factor combination behind one result row."""

    coeff_dist: CoeffDist
    mean_shape: MeanShape
    xi: float
    noise: NoiseKind
    rho: float
    n_points: int
    n_basis: int
    group_sizes: tuple[int, ...]
    summary: SummaryKind
    alpha: float
    seed: int
    preprocess_pve: float | None = None

    def __post_init__(self) -> None:
        _check_fields(self, **_ROW)


@dataclass(frozen=True)
class CellResult:
    """One cell's rejection rate over its replicates and its Monte Carlo standard error.

    Each number passes the check of its results-file column, in which
    replicates_used is "replicates".
    """

    cell: CellSpec
    rejection_rate: float
    replicates_used: int
    mc_stderr: float

    def __post_init__(self) -> None:
        _check_fields(
            self, cell=_record(CellSpec), rejection_rate=_RESULT["rejection_rate"],
            replicates_used=_RESULT["replicates"], mc_stderr=_RESULT["mc_stderr"]
        )


# Curve values a replicate block may hold, and score values a test batch
# may hold per summary (2^15 float64, 256 KiB): enough to spread the
# per-call cost of ranking and testing over many small replicates, and
# small enough that a cell whose n·S exceeds it runs one replicate per
# block, with the memory of a single replicate.
_BUDGET = 1 << 15

# Curve values a share must hold (2^18, 2 MiB of float64; about 25 to 60 ms
# of counting on one processor): a forked process costs about 12 ms to
# open and join, and its first share pays a copy-on-write warm-up, so a run
# of fewer than twice this many values counts faster in the calling
# process alone. A run cuts at most total n·S // _SHARE_MIN shares.
_SHARE_MIN = 1 << 18

# The test every replicate runs: its defaults, built and checked once
_TEST = DoublyRankedConfig()


def _count_rejections(
    grid: ExperimentGrid, shapes: Sequence[SimConfig], start: int, stop: int
) -> np.ndarray:
    """Rejection counts per (cell, summary) over run units start..stop.

    With m = len(grid.xi_values) and R = grid.replicates, shape k owns the
    cells k·m .. k·m + m - 1 and the units [k·R, (k + 1)·R): unit k·R + r
    is its replicate r, tested at all m shifts. A row rejects when
    p <= alpha. Per shape, the range's replicates are drawn in chunks of
    step = max(1, _BUDGET // (n·S)) whole replicates, one `_base_values`
    call each, and the shape's m shifts come from one `_shift` call. A
    chunk's positions, replicate-major (position o is replicate o // m at
    shift o % m), run in blocks of step: a block gathers a copy for each of
    its positions from the chunk with one index and adds each cell's shift
    to groups 2..G; each position is smoothed on its own when
    grid.preprocess_pve is set, then the block is ranked once and scored
    under every summary. Its score rows go into a (summaries, rows, n)
    batch of whole blocks, rows = step · max(1, _BUDGET // (n·step)), at
    most the range's positions; a full batch, or the last of the shape's
    range, is tested with one `_score_block` call per summary and credited
    with one `np.bincount`. No CurveSet or TestResult is built.
    """
    m, reps = len(grid.xi_values), grid.replicates
    counts = np.zeros((len(shapes) * m, len(grid.summaries)), dtype=np.int64)
    for k, config in enumerate(shapes):
        lo, hi = max(start - k * reps, 0), min(stop - k * reps, reps)
        if lo >= hi:
            continue
        n, own = config.n_subjects, counts[k * m : (k + 1) * m]
        step = max(1, _BUDGET // (n * config.n_points))
        # whole blocks of score rows per batch, no more than the range holds
        rows = min((hi - lo) * m, step * max(1, _BUDGET // (n * step)))
        batch = np.empty((len(grid.summaries), rows, n))
        batch_cells = np.empty(rows, dtype=np.intp)
        filled = 0
        shifts = _shift(config, grid.xi_values)
        split, labels = config.n_per_group[0], _group_labels(config.n_per_group)
        for r in range(lo, hi, step):
            chunk = range(r, min(r + step, hi))
            drawn = _base_values(config, chunk)
            for begin in range(chunk.start * m, chunk.stop * m, step):
                end = min(begin + step, chunk.stop * m)
                replicates, cells = np.divmod(np.arange(begin, end), m)
                values = drawn[replicates - r]
                values[:, split:] += shifts[cells, None]
                scores, _ = _doubly_ranked_scores(values, grid.summaries, grid.preprocess_pve)
                batch[:, filled : filled + cells.size] = scores
                batch_cells[filled : filled + cells.size] = cells
                filled += cells.size
                if filled < rows and end < hi * m:
                    continue
                for j, block in enumerate(batch[:, :filled]):
                    p = _score_block(block, labels, _TEST).p_value
                    own[:, j] += np.bincount(batch_cells[:filled][p <= grid.alpha], minlength=m)
                filled = 0
    return counts


def _share_bounds(costs: Sequence[int], per_shape: int, workers: int) -> list[int]:
    """Share bounds of a run whose shape k holds per_shape replicates of cost costs[k].

    A replicate's cost is the curve values it is tested on. There are at
    most `workers` shares and at most one per _SHARE_MIN curve values. A
    replicate of a shape joins share floor(workers · mid / total cost), mid
    the middle of its cost in the run, so mixed shapes load processes
    evenly; empty shares are dropped. Each share's first replicate is found
    per shape in Python integers: nothing is built per replicate.
    """
    units, total = len(costs) * per_shape, sum(costs) * per_shape
    workers = max(1, min(workers, units, total // _SHARE_MIN))
    starts, before, k = [], 0, 0  # before: the cost of the shapes ahead of shape k
    for target in range(0, 2 * total * workers, 2 * total):
        # share target // (2 · total) starts at the first replicate whose doubled
        # middle, 2 · before + (2o + 1) · costs[k] at offset o, times workers reaches target
        while k < len(costs) and workers * (2 * before + (2 * per_shape - 1) * costs[k]) < target:
            before += costs[k] * per_shape
            k += 1
        if k == len(costs):
            break
        offset = -(-(target - workers * (2 * before + costs[k])) // (2 * workers * costs[k]))
        starts.append(k * per_shape + max(0, offset))
    return sorted({*starts, units})


def run_type1(grid: ExperimentGrid, workers: int = 1) -> list[CellResult]:
    """Null rejection rates: every cell runs with the shift scale at zero.

    Rows are ordered by group scheme, then grid size, then summary. All
    summaries in a cell are evaluated on the same simulated datasets.
    """
    grid = _record(ExperimentGrid)(grid, "grid")
    return run_power(replace(grid, xi_values=(0.0,)), workers)


def run_power(grid: ExperimentGrid, workers: int = 1) -> list[CellResult]:
    """Rejection rates across the shift grid.

    Rows are ordered by group scheme, then grid size, then summary, then
    shift scale in grid order, so each power curve occupies consecutive
    rows. workers is the most processes the run may use, this one
    included, and must be an integer from 1 to max(64, os.cpu_count()).
    The run is cut into contiguous shares of (shape, replicate) units,
    each tested at every shift, of about equal m·n·S, at most one per
    worker and at most one per _SHARE_MIN curve values, so a run of fewer
    than 2 · _SHARE_MIN values counts in this process and opens no pool.
    This process counts the first share while one pool of k - 1 processes
    counts the other k - 1, then adds their counts to its own. The result
    rows are built from the counts and the checked grid without checking
    their fields again.
    """
    grid = _record(ExperimentGrid)(grid, "grid")
    workers = _count(workers, "workers")
    if workers > _MAX_WORKERS:
        raise InvalidInputError(f"workers must be at most {_MAX_WORKERS}, got {workers}")
    shapes = [
        replace(grid.base, n_per_group=scheme, n_points=n_points)
        for scheme in grid.group_schemes
        for n_points in grid.n_points_values
    ]
    m = len(grid.xi_values)
    costs = [m * c.n_subjects * c.n_points for c in shapes]
    bounds = _share_bounds(costs, grid.replicates, workers)
    count = partial(_count_rejections, grid, shapes)
    if len(bounds) == 2:
        cell_counts = count(*bounds)
    else:
        if grid.base.noise is NoiseKind.AR1:
            _ar1_filter()  # imported once here, so the forked processes inherit it
        # map submits every task before this process counts share 0
        with ProcessPoolExecutor(max_workers=len(bounds) - 2) as pool:
            rest = pool.map(count, bounds[1:-1], bounds[2:])
            cell_counts = count(bounds[0], bounds[1]) + sum(rest)

    rates = cell_counts / grid.replicates
    stderrs = np.sqrt(rates * (1.0 - rates) / grid.replicates)
    rates, stderrs, rows = rates.tolist(), stderrs.tolist(), []
    for k, config in enumerate(shapes):
        # the checked fields of the shape's rows, all but their summary and xi
        shared = {name: getattr(config, name) for name in _ROW if name in _SIM_CHECKS}
        shared.update(
            group_sizes=config.n_per_group, alpha=grid.alpha, preprocess_pve=grid.preprocess_pve
        )
        for j, summary in enumerate(grid.summaries):
            spec = {**shared, "summary": summary}
            for i, xi in enumerate(grid.xi_values):
                result = {
                    "cell": _trusted(CellSpec, {**spec, "xi": xi}),
                    "rejection_rate": rates[k * m + i][j],
                    "replicates_used": grid.replicates,
                    "mc_stderr": stderrs[k * m + i][j],
                }
                rows.append(_trusted(CellResult, result))
    return rows


_COLUMNS = [*_ROW, *_RESULT, "version"]


def _plain(value):
    """A cell value as written: an enum as its value, a tuple as a list."""
    if isinstance(value, Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def _result_record(result: CellResult) -> dict:
    """One result row, its values by name in _COLUMNS order."""
    values = {name: _plain(getattr(result.cell, name)) for name in _ROW}
    values.update(
        replicates=result.replicates_used,
        rejection_rate=result.rejection_rate,
        mc_stderr=result.mc_stderr,
        version=__version__,
    )
    return {name: values[name] for name in _COLUMNS}


# The value of each column a results file may lack, read when it is absent:
# files written before preprocess_pve existed lack it
_ABSENT = {"preprocess_pve": None}


def _check_columns(present) -> None:
    # the version is written for provenance and not read back
    missing = [c for c in _COLUMNS[:-1] if c not in present and c not in _ABSENT]
    if missing:
        raise InvalidInputError(f"missing columns {missing}")


def _record_to_result(rec) -> CellResult:
    if not isinstance(rec, dict):
        raise InvalidInputError(f"expected an object of columns, got {rec!r}")
    rec = {**_ABSENT, **{c: value for c, value in rec.items() if value is not None}}
    _check_columns(rec)
    cell = CellSpec(**{name: rec[name] for name in _ROW})
    checked = {name: check(rec[name], name) for name, check in _RESULT.items()}
    return CellResult(
        cell, checked["rejection_rate"], checked["replicates"], checked["mc_stderr"]
    )


def _results_format(path) -> str:
    """"jsonl" for a .jsonl or .ndjson path, else "csv"."""
    return "jsonl" if str(path).endswith((".jsonl", ".ndjson")) else "csv"


def write_results(results: Sequence[CellResult], path: str | os.PathLike) -> None:
    """Write one row per cell in a stable column order.

    The path picks the format: JSONL for a .jsonl or .ndjson path, CSV for
    any other. CSV encodes group sizes as "n1+n2+..."; JSONL keeps them as
    a list. An unset preprocess_pve is an empty CSV field or a JSONL null.
    Empty result lists produce a header-only CSV or an empty JSONL file.
    """
    results = _list(_record(CellResult), empty=True)(results, "results")
    path = _path(path, "path")
    format = _results_format(path)
    records = [_result_record(r) for r in results]
    with open(path, "w", newline="") as fh:
        if format == "csv":
            writer = csv.DictWriter(fh, fieldnames=_COLUMNS)
            writer.writeheader()
            for rec in records:
                writer.writerow(
                    {
                        k: "+".join(map(str, v)) if isinstance(v, list) else v
                        for k, v in rec.items()
                    }
                )
        else:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)


def read_results(path: str | os.PathLike) -> list[CellResult]:
    """Parse a results file back into CellResult records.

    The path picks the format, as in write_results; a leading UTF-8
    byte-order mark is skipped. A row that is not a
    result row, a CSV row with more fields than its header, or a CSV
    header lacking result columns (even with no rows), raises
    InvalidInputError naming the file and line.
    """
    path = _path(path, "path")
    format = _results_format(path)
    results: list[CellResult] = []
    line_no = 1  # a CSV header that fails to parse is line 1
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            if format == "csv":
                reader = csv.DictReader(fh)
                _check_columns(reader.fieldnames or ())
                for rec in reader:
                    line_no = reader.line_num
                    if None in rec:
                        raise ValueError(f"{len(rec[None])} fields more than the header")
                    read = [k for k, v in rec.items() if k in _CSV_TEXT and v is not None]
                    rec.update({k: _CSV_TEXT[k](rec[k]) for k in read})
                    results.append(_record_to_result(rec))
            else:
                for line_no, line in enumerate(fh, start=1):
                    if line.strip():
                        results.append(_record_to_result(json.loads(line)))
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except (ValueError, TypeError, csv.Error) as exc:
            raise InvalidInputError(
                f"{path} line {line_no}: not a {format} result row: {exc}"
            ) from None
    return results


def _xi_range(spec: dict, name: str) -> tuple[float, ...]:
    """The shifts start, start + step, ... up to stop of a config range."""
    if not {"stop", "step"} <= set(spec) <= {"start", "stop", "step"}:
        raise InvalidInputError(f"{name} range needs stop and step, got {sorted(spec)}")
    start, stop = _number(spec.get("start", 0.0), name), _number(spec["stop"], name)
    step = _within(0, math.inf, "()")(spec["step"], f"{name} range step")
    if stop < start:
        raise InvalidInputError(f"{name} range stop must be >= start, got {stop} < {start}")
    # checked before the tuple is built, so a tiny step cannot exhaust memory
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SHIFTS:
        raise InvalidInputError(f"{name} range holds more than {_MAX_SHIFTS} shifts")
    count = int(np.floor(span)) + 1
    return tuple(round(start + i * step, 10) for i in range(count))


# Grid config keys, each with the SimConfig or ExperimentGrid field it sets;
# most keys name their field. A key left out keeps that field's default,
# except noise, which a grid draws as AR(1) unless told otherwise.
_GRID_KEYS = {
    **{k: k for k in ("seed", "coeff_dist", "mean_shape", "noise", "rho", "n_basis")},
    "n_points": "n_points_values",
    "groups": "group_schemes",
    "xi": "xi_values",
    **{k: k for k in ("replicates", "alpha", "summaries", "preprocess_pve")},
}


def grid_from_dict(spec: dict) -> ExperimentGrid:
    """Build an ExperimentGrid from a declarative mapping.

    The keys are those of _GRID_KEYS; only the seed is required, and "xi"
    may also be a range {"start", "stop", "step"}. Each value goes through
    its field's check, so a value of the wrong type or form raises
    InvalidInputError naming its key; a spec that is not a dict raises it
    naming spec.
    """
    spec = _record(dict)(spec, "spec")
    if "seed" not in spec:
        raise InvalidInputError("grid config must set a seed")
    unknown = set(spec) - set(_GRID_KEYS)
    if unknown:
        raise InvalidInputError(f"unknown grid config keys: {sorted(unknown)}")
    sim: dict = {"noise": NoiseKind.AR1}
    factors: dict = {}
    for key, value in spec.items():
        field, name = _GRID_KEYS[key], f"grid config {key!r}"
        if key == "xi" and isinstance(value, dict):
            value = _xi_range(value, name)
        if field in _SIM_CHECKS:
            sim[field] = _SIM_CHECKS[field](value, name)
        else:
            factors[field] = _GRID_CHECKS[field](value, name)
    # every cell sets its own group sizes and grid size
    base = SimConfig(n_per_group=(2, 2), n_points=1, **sim)
    return ExperimentGrid(base=base, **factors)


def _read_config(path: str | os.PathLike) -> dict:
    """The JSON object of a grid config file, its values not yet checked."""
    path = _path(path, "path")
    with open(path, encoding="utf-8-sig") as fh:
        try:
            spec = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise InvalidInputError(f"grid config {path} must be a JSON object")
    return spec


def load_grid(path: str | os.PathLike) -> ExperimentGrid:
    """Load an ExperimentGrid from a JSON config file."""
    return grid_from_dict(_read_config(path))
