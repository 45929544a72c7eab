"""Run one benchmark workload in a fresh process.

`run.py` starts this script; it is not meant to be run by hand. The BLAS
thread count is pinned before numpy is first imported, so that pool
workers times BLAS threads never exceeds the processors available. The
script writes one JSON object to --result-file.

Modes: "setup" imports drtests and makes the first warm call, and reports
how long that took. "run" then makes passes over the workload in a closed
loop for --seconds and reports the end-to-end figures. "trace" also replays
the workload through the public layer functions with spans, and reports
the per-layer figures.

Every timed operation sits between two runs of a short calibration
kernel that uses numpy and scipy but no drtests code. Reported times are
scaled by CAL_NOMINAL_S / (the kernel's mean time on either side). This
removes the drift in machine speed that a shared host shows over minutes.
The raw times are kept in the result record next to the scaled ones.
"""

import os

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"
_t0 = perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import drtests  # noqa: E402

IMPORT_S = perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from numpy.random import Generator, Philox  # noqa: E402
from scipy.signal import lfilter  # noqa: E402
from scipy.stats import mannwhitneyu, norm, rankdata  # noqa: E402

from drtests import (  # noqa: E402
    CurveSet,
    exact_mww_null_distribution,
    fpca_smooth,
    generate_dataset,
    mww_test,
    rank_curves,
    read_curves_csv,
    run_power,
    run_type1,
    sufficient_summary,
    write_curves_csv,
)
from drtests import cli  # noqa: E402

import replay  # noqa: E402
import workloads  # noqa: E402

_RUNNERS = {"type1": run_type1, "power": run_power}
_CLI_FIELDS = {
    "statistic": re.compile(r"^\s*statistic\s+\S+ = (\S+)$", re.M),
    "p_value": re.compile(r"^\s*p-value\s+(\S+)$", re.M),
    "method": re.compile(r"^\s*method\s+(\S+)$", re.M),
    "p_value_flipped": re.compile(
        r"^\s*p-value \(with(?:out)? continuity correction\) (\S+)$", re.M
    ),
}
# share of --seconds spent on untraced passes, and on the traced replay
_TRACE_SHARE = 0.4


# ---------------------------------------------------------------- calibration

# the kernel's time on an idle 2-vCPU Intel Xeon guest; any constant works,
# it only sets the scale of the reported times
CAL_NOMINAL_S = 0.006
_CAL_RNG = np.random.default_rng(20230626)
_CAL_SMALL = (_CAL_RNG.standard_normal((40, 200)), _CAL_RNG.standard_normal((200, 60)))
_CAL_WIDE = (_CAL_RNG.standard_normal((40, 1000)), _CAL_RNG.standard_normal((1000, 120)))
_CAL_CURVES = _CAL_RNG.standard_normal((100, 360))
_CAL_TEXT = ",".join(repr(float(v)) for v in _CAL_RNG.standard_normal(400))


def calibrate() -> float:
    """Time a fixed mix of numpy, scipy and pure-Python work.

    The mix resembles the workloads: small products with ranking, logs and
    scalar scipy calls as in small cells; counter-based draws, a wide
    product, an IIR filter and ranking of wide curves as in simulation;
    and float parsing as in CSV reading. It runs no drtests code, so a
    change to drtests cannot move it.
    """
    t0 = perf_counter()
    a, b = _CAL_SMALL
    for _ in range(2):
        r = rankdata(a @ b, axis=0)
        s = np.log(2.0 * r - 1.0).mean(axis=1)
        np.unique(s)
        for v in s[:20]:
            norm.sf(float(v))
        [float(v) for v in _CAL_TEXT.split(",")]
    Generator(Philox(key=7)).standard_normal(_CAL_WIDE[0].shape)
    _CAL_WIDE[0] @ _CAL_WIDE[1]
    lfilter([1.0], [1.0, -0.5], _CAL_CURVES, axis=1)
    rankdata(_CAL_CURVES, axis=0)
    return perf_counter() - t0


class Meter:
    """Times operations, each between two runs of the calibration kernel."""

    def __init__(self) -> None:
        self.cal: list[float] = [calibrate()]
        self.last_factor = 1.0  # the scale applied to the latest operation

    def time(self, fn):
        """Run fn; return (output, raw wall, scaled wall, scaled cpu)."""
        cpu0 = _cpu_s()
        t0 = perf_counter()
        out = fn()
        raw = perf_counter() - t0
        cpu = _cpu_s() - cpu0
        self.cal.append(calibrate())
        k = self.last_factor = 2.0 * CAL_NOMINAL_S / (self.cal[-2] + self.cal[-1])
        return out, raw, raw * k, cpu * k

    def factor(self) -> float:
        return CAL_NOMINAL_S / statistics.median(self.cal)


# ---------------------------------------------------------------- machine


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "drtests").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config's layout differs across numpy releases
        return "unknown"


def provenance(args, workers: int) -> dict:
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": workloads.nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "drtests": drtests.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ[v] for v in _BLAS_VARS},
        "workers": workers,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------- helpers


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _quantile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def load_reference(wl, size: str, seed: int):
    """Pinned outputs for this workload and seed, or None.

    Pinned counts hold only for the numpy and scipy releases that made
    them (numpy streams are stable only within a release, NEP 19), and
    only for the replicate counts they were made with: power_pool's
    depends on the number of processors.
    """
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    if (ref["numpy"], ref["scipy"]) != (np.__version__, scipy.__version__):
        return None
    if ref["replicates"][wl.name][size] != [c.grid.replicates for c in wl.calls]:
        return None
    return ref["outputs"][wl.name][size].get(str(seed))


def differ(got: list, want: list, what: str) -> str | None:
    """None if got equals want item by item, else what differs."""
    bad = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
    return f"{what}: {bad} of {len(want)} differ" if bad else None


class Checker:
    """Counts operations and those that raised or whose output differs.

    An operation is one call into the program or the replay, or one check
    against the scipy oracle, whatever its output's size.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, *problems: str | None) -> None:
        """One operation; it failed if any of `problems` is not None."""
        self.attempted += 1
        found = [p for p in problems if p is not None]
        if found:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append("; ".join(found))


def closed_loop(ops, check, seconds: float, meter: Meter, chk: Checker) -> dict:
    """Passes over `ops` until `seconds` have gone, and at least three.

    `ops` is one pass: a list of callables. `check(i, output)` returns the
    problems with the output of the i-th, None for each check that passed.
    """
    walls, raw_walls, cpus, lat, raw_lat = [], [], [], [], []
    deadline = perf_counter() + seconds
    tries = 0
    while perf_counter() < deadline or tries < 3:
        tries += 1
        wall = raw_wall = cpu = 0.0
        for i, op in enumerate(ops):
            try:
                out, raw, scaled, op_cpu = meter.time(op)
            except Exception as exc:  # count it and keep measuring
                chk.record(f"operation {i} raised {exc!r}")
                continue
            chk.record(*check(i, out))
            wall, raw_wall, cpu = wall + scaled, raw_wall + raw, cpu + op_cpu
            lat.append(scaled)
            raw_lat.append(raw)
        walls.append(wall)
        raw_walls.append(raw_wall)
        cpus.append(cpu)
    return {
        "wall_s": statistics.median(walls),
        "latency_p50_ms": 1e3 * _quantile(lat, 50),
        "latency_p95_ms": 1e3 * _quantile(lat, 95),
        "cpu_s": statistics.median(cpus),
        "raw": {
            "wall_s": statistics.median(raw_walls),
            "latency_p50_ms": 1e3 * _quantile(raw_lat, 50),
            "latency_p95_ms": 1e3 * _quantile(raw_lat, 95),
        },
        "samples": {"passes": len(walls), "calls": len(lat)},
    }


def _end_to_end(loop: dict, ops_per_pass: int) -> dict:
    metrics = {k: loop[k] for k in ("wall_s", "latency_p50_ms", "latency_p95_ms", "cpu_s")}
    metrics["ops_per_s"] = ops_per_pass / loop["wall_s"]
    return metrics


# ---------------------------------------------------------------- harness


def _counts(results) -> list[int]:
    return [round(r.rejection_rate * r.replicates_used) for r in results]


def _cell_keys(results) -> list[tuple]:
    return [
        (r.cell.group_sizes, r.cell.n_points, r.cell.xi, r.cell.summary.value)
        for r in results
    ]


def harness_ops(wl, workers: int):
    def op(call):
        return lambda: _RUNNERS[call.runner](call.grid, workers=workers)

    return [op(call) for call in wl.calls]


def harness_pass(wl, workers: int) -> list:
    """The results of one untimed pass: every call once."""
    return [op() for op in harness_ops(wl, workers)]


def warm_harness(wl) -> None:
    for call in wl.calls:
        _RUNNERS[call.runner](replace(call.grid, replicates=1), workers=1)


def run_harness(args, wl, pinned, chk: Checker) -> dict:
    """Closed loop of passes; in trace mode also the traced replay."""
    nproc = workloads.nproc()
    alt_workers = 1 if wl.workers > 1 else nproc
    meter = Meter()
    # the same seed must give the same counts for any worker count
    alt = [meter.time(op) for op in harness_ops(wl, alt_workers)]
    alt_counts = [_counts(out) for out, *_ in alt]
    references = [(f"workers={alt_workers}", alt_counts)]
    if pinned is not None:
        references.append(("pinned reference", pinned))

    def check(i, results):
        return [differ(_counts(results), ref[i], f"call {i} vs {name}") for name, ref in references]

    share = _TRACE_SHARE if args.mode == "trace" else 1.0
    loop = closed_loop(harness_ops(wl, wl.workers), check, share * args.seconds, meter, chk)
    reps = sum(c.replicates for c in wl.calls)
    out = {
        "metrics": _end_to_end(loop, reps),
        "raw": loop["raw"],
        "samples": dict(loop["samples"], replicates_per_pass=reps),
    }
    if args.mode == "trace":
        walls = {wl.workers: loop["wall_s"], alt_workers: sum(a[2] for a in alt)}
        keys = [_cell_keys(res) for res, *_ in alt]
        out.update(trace_harness(args, wl, keys, alt_counts, walls, chk))
    return out


def trace_harness(args, wl, keys, program_counts, walls_by_workers, chk) -> dict:
    tr = replay.Tracer()
    meter = Meter()
    walls = []

    def replay_pass():
        tr.trace += 1
        root = tr.new_id()
        t0 = perf_counter()
        got = [replay.harness_pass(tr, call, root) for call in wl.calls]
        tr.add(root, "pass", t0, perf_counter(), -1)
        return got

    scale = {}
    deadline = perf_counter() + _TRACE_SHARE * args.seconds
    while perf_counter() < deadline or len(walls) < 2:
        got, _, scaled, _ = meter.time(replay_pass)
        scale[tr.trace] = meter.last_factor
        walls.append(scaled)
        # the replay must reproduce run_type1/run_power on every cell
        for i, (cell_keys, want) in enumerate(zip(keys, program_counts)):
            chk.record(differ([got[i].get(k) for k in cell_keys], want, f"replay call {i}"))
    nproc = workloads.nproc()
    wall1, walln = walls_by_workers[1], walls_by_workers[nproc]
    layers = _layer_metrics(tr, len(walls), scale)
    layers.update(
        {
            # the replay is serial, so it accounts for the workers=1 wall
            # time; the pool's share is harness.pool_overhead_s
            "harness.overhead_s": wall1 - _layer_sum(layers),
            "harness.pool_overhead_s": walln - wall1 / nproc,
            "harness.parallel_efficiency": wall1 / (nproc * walln),
            "harness.cells": float(sum(c.cells for c in wl.calls)),
            "cli.self_s": 0.0,
        }
    )
    return _trace_result(tr, layers, walls, wall1, meter.factor())


# ---------------------------------------------------------------- cli


def cli_csv_path(args) -> str:
    return os.path.join(args.scratch, f"cli-{args.size}-{args.seed}.csv")


def prepare_cli(args, wl) -> str:
    path = cli_csv_path(args)
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        write_curves_csv(generate_dataset(wl.cli_config, 0), tmp)
        os.replace(tmp, path)
    return path


def cli_once(path: str) -> dict:
    """Run `drt test <csv> --verbose` in-process; the fields it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["test", path, "--verbose"])
    if code != 0:
        raise RuntimeError(f"drt test exited {code}")
    text = buf.getvalue()
    fields = {}
    for name, pattern in _CLI_FIELDS.items():
        m = pattern.search(text)
        fields[name] = m.group(1) if m else None
    return fields


def expected_cli(path: str, chk: Checker) -> dict:
    """What `drt test --verbose` must print, and an oracle check of it.

    The p-values are checked against scipy's own `mannwhitneyu` on the
    same scores, which shares no code with drtests' rank tests.
    """
    curves, _ = read_curves_csv(path)
    fp = fpca_smooth(curves, workloads.CLI_PVE)
    smoothed = CurveSet(values=fp.smoothed, grid=curves.grid, groups=curves.groups)
    scores = sufficient_summary(rank_curves(smoothed)).scores
    x, y = scores[smoothed.groups == 1], scores[smoothed.groups == 2]
    res = mww_test(x, y)
    flipped = mww_test(x, y, continuity_correction=False)
    exact = res.method.value == "mww-exact"
    for r, cc in ((res, True), (flipped, False)):
        oracle = mannwhitneyu(
            y, x, use_continuity=cc, method="exact" if exact else "asymptotic"
        )
        agrees = oracle.statistic == r.statistic and bool(
            np.isclose(oracle.pvalue, r.p_value, rtol=1e-9, atol=0.0)
        )
        chk.record(None if agrees else f"scipy oracle (continuity={cc}) disagrees")
    return {
        "statistic": f"{res.statistic:g}",
        "p_value": f"{res.p_value:.6g}",
        "method": res.method.value,
        "p_value_flipped": None if exact else f"{flipped.p_value:.6g}",
    }


def run_cli(args, wl, pinned, chk: Checker) -> dict:
    path = cli_csv_path(args)
    references = [("replay", expected_cli(path, chk))]
    if pinned is not None:
        references.append(("pinned reference", pinned))

    def check(_, fields):
        return [differ([fields], [ref], f"drt test vs {name}") for name, ref in references]

    per_pass = workloads.CLI_CALLS_PER_PASS[args.size]
    ops = [lambda: cli_once(path)] * per_pass
    share = _TRACE_SHARE if args.mode == "trace" else 1.0
    loop = closed_loop(ops, check, share * args.seconds, Meter(), chk)
    out = {
        "metrics": _end_to_end(loop, per_pass),
        "raw": loop["raw"],
        "samples": loop["samples"],
    }
    if args.mode == "trace":
        out.update(trace_cli(args, path, per_pass, references[0][1], loop["wall_s"], chk))
    return out


def trace_cli(args, path, per_pass, want, program_wall, chk) -> dict:
    tr = replay.Tracer()
    meter = Meter()
    walls = []

    def replay_call():
        tr.trace += 1
        root = tr.new_id()
        t0 = perf_counter()
        res = replay.cli_call(tr, path, workloads.CLI_PVE, root)
        tr.add(root, "cli", t0, perf_counter(), -1)
        return res

    scale = {}
    deadline = perf_counter() + _TRACE_SHARE * args.seconds
    while perf_counter() < deadline or len(walls) < 2:
        wall = 0.0
        for _ in range(per_pass):
            res, _, scaled, _ = meter.time(replay_call)
            scale[tr.trace] = meter.last_factor
            wall += scaled
            got = {"statistic": f"{res.statistic:g}", "p_value": f"{res.p_value:.6g}",
                   "method": res.method.value}
            chk.record(differ([got], [{k: want[k] for k in got}], "replay vs drt test"))
        walls.append(wall)
    layers = _layer_metrics(tr, len(walls), scale)
    layers.update(
        {
            "harness.overhead_s": 0.0,
            "harness.pool_overhead_s": 0.0,
            "harness.parallel_efficiency": 0.0,
            "harness.cells": 0.0,
            "cli.self_s": program_wall - _layer_sum(layers),
        }
    )
    return _trace_result(tr, layers, walls, program_wall, meter.factor())


# ---------------------------------------------------------------- tracing

_LAYER_TIMES = {
    "simgen.generate_s": "simgen",
    "io.read_s": "io",
    "preprocess.fpca_s": "preprocess",
    "ranking.rank_s": "ranking",
    "summaries.summarize_s": "summaries",
    "rank_tests.test_s": "rank_tests",
}
_LAYER_COUNTS = (
    "simgen.calls",
    "simgen.basis_flops",
    "simgen.draw_bytes",
    "preprocess.calls",
    "ranking.calls",
    "summaries.calls",
    "rank_tests.calls",
    "rank_tests.path.mww-exact",
    "rank_tests.path.mww-normal",
    "rank_tests.path.kw-chisq",
    "io.bytes_read",
)


def _layer_sum(layers: dict) -> float:
    return sum(layers[name] for name in _LAYER_TIMES)


def _span_cost_s() -> float:
    """Cost of recording one span: two clock reads and an append."""
    tr = replay.Tracer()
    n = 20000
    t0 = perf_counter()
    for _ in range(n):
        a = perf_counter()
        tr.leaf("x", a, perf_counter(), 0)
    return (perf_counter() - t0) / n


def _layer_metrics(tr, passes: int, scale: dict[int, float]) -> dict:
    """Per-pass layer figures from the replay's spans and counters.

    Times are scaled by the calibration factor of the operation that
    recorded them; `scale` maps trace id to that factor.
    """
    self_s = tr.self_times(scale)
    c = tr.counts
    m = {name: self_s.get(span, 0.0) / passes for name, span in _LAYER_TIMES.items()}
    for key in _LAYER_COUNTS:
        m[key] = c[key] / passes
    calls = c["preprocess.calls"]
    m["preprocess.components_kept"] = c["preprocess.components_kept"] / calls if calls else 0.0
    for kind in ("sufficient", "average_rank"):
        tied, total = tr.tied[kind]
        m[f"summaries.tied_score_frac.{kind}"] = tied / total if total else 0.0
    return m


def _trace_result(tr, layers, walls, accounted_wall, k) -> dict:
    """`accounted_wall` is the untraced wall time the layers add up to."""
    layers["trace.overhead_s"] = k * len(tr.spans) / len(walls) * _span_cost_s()
    layers["trace.replay_minus_program_s"] = statistics.median(walls) - accounted_wall
    return {
        "layers": layers,
        "layer_sum_s": _layer_sum(layers),
        "accounted_wall_s": accounted_wall,
        "trace_samples": {"passes": len(walls), "spans": len(tr.spans)},
        "spans": tr.spans,
    }


# ---------------------------------------------------------------- main


def _exact_table_s(wl) -> float:
    """Cold build time of the exact-U tables this workload's tests use."""
    schemes = [s for call in wl.calls for s in call.grid.group_schemes]
    if wl.is_cli:
        schemes.append(wl.cli_config.n_per_group)
    # mww_test's default exact_threshold is 50
    sizes = {s for s in schemes if len(s) == 2 and sum(s) <= 50}
    if not sizes:
        return 0.0
    t0 = perf_counter()
    for n1, n2 in sorted(sizes):
        exact_mww_null_distribution(n1, n2)
    return perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--result-file", required=True)
    args = p.parse_args(argv)

    wl = workloads.build(args.workload, args.size, args.seed)
    if wl.is_cli:
        prepare_cli(args, wl)
    exact_table_s = _exact_table_s(wl) if args.mode == "trace" else 0.0
    t0 = perf_counter()
    if wl.is_cli:
        cli_once(cli_csv_path(args))
    else:
        warm_harness(wl)
    setup_raw = IMPORT_S + perf_counter() - t0
    k = CAL_NOMINAL_S / statistics.median(calibrate() for _ in range(5))
    out: dict = {"setup_s": setup_raw * k, "setup_raw_s": setup_raw}
    if args.mode != "setup":
        chk = Checker()
        pinned = load_reference(wl, args.size, args.seed)
        out.update((run_cli if wl.is_cli else run_harness)(args, wl, pinned, chk))
        out["metrics"]["peak_rss_mb"] = _peak_rss_mb()
        if "layers" in out:
            out["layers"]["rank_tests.exact_table_s"] = k * exact_table_s
        out["reference"] = "pinned" if pinned is not None else "cross-check only"
        out["attempted"], out["failed"], out["notes"] = chk.attempted, chk.failed, chk.notes
        out["provenance"] = provenance(args, wl.workers)
    with open(args.result_file, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
