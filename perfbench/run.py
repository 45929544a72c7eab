"""Entry point of the drtests benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload type1_calib --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh subprocess (worker.py), from one client in a
closed loop. Set-up time is measured in SETUPS fresh processes and
reported as their median. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The lines before it give every metric with its unit, the share
of failed operations and the machine and provenance block. The full record,
and the spans of a traced run, go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
_BUDGET_S = 170.0  # the whole run must end within 180 s
# fresh processes whose set-up time is measured, per --size
SETUPS = {"full": 5, "tiny": 2}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_child(argv: list[str], timeout: float) -> None:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker timed out after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")


def _worker(mode: str, args, scratch: Path, tag: str, deadline: float) -> dict:
    result = scratch / f"{tag}.json"
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--size", args.size,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scratch", str(scratch),
        "--result-file", str(result),
    ]
    _run_child(argv, deadline - time.monotonic())
    with open(result) as fh:
        return json.load(fh)


def _print_table(rows: list[tuple[str, float, str]]) -> None:
    print(f"{'metric':<36} {'value':>16}  unit")
    for name, value, unit in rows:
        print(f"{name:<36} {value:>16.6g}  {unit}")


def main(argv=None) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description="drtests benchmark")
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "drtests" / "__init__.py").is_file():
        print("error: no drtests sources under src/ in this checkout", file=sys.stderr)
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[group]]

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        deadline = time.monotonic() + _BUDGET_S
        setups = []
        if not args.trace:
            for i in range(SETUPS[args.size] - 1):
                setups.append(_worker("setup", args, scratch, f"setup{i}", deadline))
        mode = "trace" if args.trace else "run"
        res = _worker(mode, args, scratch, "main", deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    setups.append(res)
    setup_samples = [s["setup_s"] for s in setups]
    unscaled = dict(res["raw"], setup_s=statistics.median(s["setup_raw_s"] for s in setups))
    if args.trace:
        values = dict(res["layers"])
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setup_samples))
    missing = [name for name, _ in wanted if name not in values]
    if missing:
        print(f"error: worker did not report {missing}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0

    print(f"workload {args.workload}  size {args.size}  seed {args.seed}  "
          f"trace {args.trace}  reference {res['reference']}")
    _print_table([(name, values[name], unit) for name, unit in wanted])
    print(f"{'failed_frac':<36} {failed / attempted:>16.6g}  ratio "
          f"({failed} of {attempted} operations)")
    samples = dict(res["samples"], setups=len(setup_samples))
    print("samples " + json.dumps(samples))
    print("unscaled " + json.dumps(unscaled))
    if args.trace:
        print("traced " + json.dumps(res["trace_samples"]))
        if args.workload == "cli_test":
            own, wall = "cli.self_s", "untraced wall_s"
        else:
            own, wall = "harness.overhead_s", "untraced wall_s at workers=1"
        print(f"accounting: layer self times {res['layer_sum_s']:.6g} s + {own} {values[own]:.6g} s "
              f"= {wall} {res['accounted_wall_s']:.6g} s per pass")
    for note in res["notes"]:
        print(f"check: {note}")
    print("provenance " + json.dumps(res["provenance"]))

    record = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": values, "end_to_end": res["metrics"], "unscaled": unscaled,
        "samples": samples, "setup_samples_s": setup_samples, "provenance": res["provenance"],
        "notes": res["notes"], "spans": res.get("spans", []),
    }
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
