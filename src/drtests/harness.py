"""Monte Carlo calibration and power experiments.

A grid pairs a simulation template with factor lists (grid sizes, group
schemes, shift scales, summaries). Each cell simulates its replicates from
counter-based substreams and records the fraction of doubly ranked tests
rejecting at level alpha. A run is one list of (cell, replicate block)
tasks: each cell's replicates are split into min(workers, replicates)
contiguous blocks, and with more than one worker and more than one task
every task goes through one process pool opened for the whole run, with
at most one process per task. Within a task, replicates run in blocks of
at most 2^15 curve values (a fixed memory budget, not a setting): each
replicate is drawn from its own substream, then the whole block is
ranked, summarized and tested in one batched pass, so per-call costs are
paid per block, not per replicate. A cell whose n·S exceeds the budget
runs one replicate per block. Because substream i depends only on
(seed, i), every test treats each replicate on its own, and each cell
sums its blocks' integer counts, results are identical for any worker
count and any block size.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from ._version import __version__
from .errors import (
    InvalidInputError, _check_fields, _count, _list, _member, _number, _optional
)
from .preprocess import _check_pve
from .rank_tests import DoublyRankedConfig, _doubly_ranked_scores, _score_block
from .ranking import _group_labels
from .simgen import (
    _SIM_CHECKS, CoeffDist, MeanShape, NoiseKind, SimConfig, _dataset_values
)
from .summaries import SummaryKind

__all__ = [
    "ExperimentGrid",
    "CellSpec",
    "CellResult",
    "ResultFormat",
    "run_type1",
    "run_power",
    "write_results",
    "read_results",
    "grid_from_dict",
    "load_grid",
]

_DEFAULT_XI = tuple(round(0.12 * i, 10) for i in range(26))  # 0, 0.12, ..., 3


class ResultFormat(str, Enum):
    CSV = "csv"
    JSONL = "jsonl"


# The check of each ExperimentGrid factor (and of the grid config key that sets it)
_GRID_CHECKS = {
    "n_points_values": _list(_count),
    "group_schemes": _list(_list(_count)),
    "xi_values": _list(_number),
    "replicates": _count,
    "alpha": _number,
    "summaries": _list(_member(SummaryKind)),
    "preprocess_pve": _optional(_check_pve),
}


@dataclass(frozen=True)
class ExperimentGrid:
    """Factor grid around a simulation template.

    The template's n_per_group and n_points are overridden by the factor
    lists here; its distribution, noise model, mean shape, basis size and
    seed are shared by every cell. preprocess_pve, when set, smooths each
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
        _check_fields(self, **_GRID_CHECKS)
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError("alpha must lie in (0, 1)")
        if not (self.n_points_values and self.group_schemes and self.summaries):
            raise InvalidInputError("factor lists and summaries must be nonempty")


def _sizes(value) -> tuple[int, ...]:
    """Group sizes from a sequence or from the CSV form "n1+n2+..."."""
    if isinstance(value, str):
        value = value.split("+")
    return tuple(int(g) for g in value)


def _optional_float(value) -> float | None:
    # None or "" when unset; files written before the column existed lack
    # it, and their rows take the CellSpec default
    return None if value in (None, "") else float(value)


# The cell columns of a result row, in file order, each with the converter
# that reads it from a CellSpec argument, a JSON value or a CSV string.
_ROW = {
    "coeff_dist": CoeffDist,
    "mean_shape": MeanShape,
    "xi": float,
    "noise": NoiseKind,
    "rho": float,
    "n_points": int,
    "n_basis": int,
    "group_sizes": _sizes,
    "summary": SummaryKind,
    "alpha": float,
    "seed": int,
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
        for name, convert in _ROW.items():
            object.__setattr__(self, name, convert(getattr(self, name)))


@dataclass(frozen=True)
class CellResult:
    cell: CellSpec
    rejection_rate: float
    replicates_used: int
    mc_stderr: float


def _mc_stderr(rate: float, reps: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / reps))


# Curve values a replicate block may hold (2^15 float64, 256 KiB): enough
# to spread the per-call cost of ranking and testing over many small
# replicates, and small enough that a cell whose n·S exceeds it runs one
# replicate per block, with the memory of a single replicate.
_BUDGET = 1 << 15


def _count_rejections(
    grid: ExperimentGrid, config: SimConfig, rep_start: int, rep_stop: int
) -> np.ndarray:
    """Rejection counts per summary over a replicate range (reject: p <= alpha).

    The range runs in blocks of max(1, _BUDGET // (n·S)) replicates. Each
    replicate is drawn from its own stream (and smoothed on its own when
    grid.preprocess_pve is set); a block is then ranked once, scored under
    every summary, and each summary's scores are tested in one pass. No
    CurveSet or TestResult is built.
    """
    counts = np.zeros(len(grid.summaries), dtype=np.int64)
    labels = _group_labels(config.n_per_group)
    n_groups = len(config.n_per_group)
    test_config = DoublyRankedConfig()
    step = max(1, _BUDGET // (config.n_subjects * config.n_points))
    for start in range(rep_start, rep_stop, step):
        stop = min(start + step, rep_stop)
        values = [_dataset_values(config, rep) for rep in range(start, stop)]
        scores, _ = _doubly_ranked_scores(values, grid.summaries, grid.preprocess_pve)
        for j, block in enumerate(scores):
            p = _score_block(block, labels, n_groups, test_config).p_value
            counts[j] += np.count_nonzero(p <= grid.alpha)
    return counts


def _cell_spec(
    config: SimConfig, summary: SummaryKind, grid: ExperimentGrid
) -> CellSpec:
    shared = {name: getattr(config, name) for name in _ROW if name in _SIM_CHECKS}
    return CellSpec(
        **shared,
        group_sizes=config.n_per_group,
        summary=summary,
        alpha=grid.alpha,
        preprocess_pve=grid.preprocess_pve,
    )


def run_type1(grid: ExperimentGrid, workers: int = 1) -> list[CellResult]:
    """Null rejection rates: every cell runs with the shift scale at zero.

    Rows are ordered by group scheme, then grid size, then summary. All
    summaries in a cell are evaluated on the same simulated datasets.
    """
    return run_power(replace(grid, xi_values=(0.0,)), workers)


def run_power(grid: ExperimentGrid, workers: int = 1) -> list[CellResult]:
    """Rejection rates across the shift grid.

    Rows are ordered by group scheme, then grid size, then summary, then
    shift scale, so each power curve occupies consecutive rows. With more
    than one worker, the whole run shares one process pool, of at most
    one process per task.
    """
    if not grid.xi_values:
        raise InvalidInputError("xi_values must be nonempty")
    workers = _count(workers, "workers")
    configs = [
        replace(grid.base, n_per_group=scheme, n_points=n_points, xi=xi)
        for scheme in grid.group_schemes
        for n_points in grid.n_points_values
        for xi in grid.xi_values
    ]
    n_blocks = min(workers, grid.replicates)
    bounds = np.linspace(0, grid.replicates, n_blocks + 1).astype(int).tolist()
    tasks = (
        [config for config in configs for _ in range(n_blocks)],
        bounds[:-1] * len(configs),
        bounds[1:] * len(configs),
    )
    count = partial(_count_rejections, grid)
    # a forked pool starts all its processes at once: open none to sit idle
    processes = min(workers, len(tasks[0]))
    if processes == 1:
        block_counts = list(map(count, *tasks))
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            block_counts = list(pool.map(count, *tasks))
    shape = (len(configs), n_blocks, len(grid.summaries))
    cell_counts = np.reshape(block_counts, shape).sum(axis=1)

    n_xi = len(grid.xi_values)
    results: list[CellResult] = []
    for first in range(0, len(configs), n_xi):
        for j, summary in enumerate(grid.summaries):
            for i in range(first, first + n_xi):
                rate = cell_counts[i, j] / grid.replicates
                results.append(
                    CellResult(
                        cell=_cell_spec(configs[i], summary, grid),
                        rejection_rate=float(rate),
                        replicates_used=grid.replicates,
                        mc_stderr=_mc_stderr(rate, grid.replicates),
                    )
                )
    return results


_COLUMNS = [*_ROW, "replicates", "rejection_rate", "mc_stderr", "version"]


def _plain(value):
    """A cell value as written: an enum as its value, a tuple as a list."""
    if isinstance(value, Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def _result_record(result: CellResult) -> dict:
    """One result row, its values in _COLUMNS order."""
    values = [_plain(getattr(result.cell, name)) for name in _ROW]
    values += [result.replicates_used, result.rejection_rate, result.mc_stderr]
    return dict(zip(_COLUMNS, [*values, __version__], strict=True))


def _record_to_result(rec: dict) -> CellResult:
    return CellResult(
        cell=CellSpec(**{name: rec[name] for name in _ROW if name in rec}),
        rejection_rate=float(rec["rejection_rate"]),
        replicates_used=int(rec["replicates"]),
        mc_stderr=float(rec["mc_stderr"]),
    )


def _results_format(path, format) -> ResultFormat:
    """format if given, else JSONL for a .jsonl or .ndjson path and CSV otherwise."""
    if format is None:
        format = "jsonl" if str(path).endswith((".jsonl", ".ndjson")) else "csv"
    return _member(ResultFormat)(format, "format")


def write_results(
    results: Sequence[CellResult],
    path: str | os.PathLike,
    format: ResultFormat | str | None = None,
) -> None:
    """Write one row per cell in a stable column order.

    The format is inferred from the extension when not given. CSV encodes
    group sizes as "n1+n2+..."; JSONL keeps them as a list. An unset
    preprocess_pve is an empty CSV field or a JSONL null. Empty result
    lists produce a header-only CSV or an empty JSONL file.
    """
    format = _results_format(path, format)
    records = [_result_record(r) for r in results]
    with open(path, "w", newline="") as fh:
        if format is ResultFormat.CSV:
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


def read_results(
    path: str | os.PathLike, format: ResultFormat | str | None = None
) -> list[CellResult]:
    """Parse a results file back into CellResult records.

    The format is inferred from the extension when not given.
    """
    format = _results_format(path, format)
    with open(path, newline="") as fh:
        if format is ResultFormat.CSV:
            records = list(csv.DictReader(fh))
        else:
            records = [json.loads(line) for line in fh if line.strip()]
    return [_record_to_result(rec) for rec in records]


def _xi_range(spec: dict, name: str) -> tuple[float, ...]:
    """The shifts start, start + step, ... up to stop of a config range."""
    if not {"stop", "step"} <= set(spec) <= {"start", "stop", "step"}:
        raise InvalidInputError(f"{name} range needs stop and step, got {sorted(spec)}")
    start = _number(spec.get("start", 0.0), name)
    stop, step = _number(spec["stop"], name), _number(spec["step"], name)
    if step <= 0:
        raise InvalidInputError(f"{name} range step must be > 0")
    span = (stop - start) / step
    if not np.isfinite(span):
        raise InvalidInputError(f"{name} range is too long")
    count = int(np.floor(span + 1e-9)) + 1
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
    InvalidInputError naming its key.
    """
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
