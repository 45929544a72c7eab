"""Regenerate reference.json: the outputs every benchmark pass is checked against.

    python3 perfbench/pin_reference.py

For each workload, size and pinned seed it records the program's output
with one worker: the per-cell integer rejection counts of every
`run_type1`/`run_power` call, in row order, and for cli_test the
statistic, p-value, method and verbose p-value that `drt test --verbose`
prints. It also records each call's replicate count, which power_pool
takes from the number of processors; the counts apply only where the
replicate counts match. Rerun it only when the workloads change, never to
absorb a change in the program's output.
"""

import argparse
import json
import tempfile
from types import SimpleNamespace

import worker  # pins the BLAS threads before numpy loads
import workloads

FULL_SEEDS = range(0, 64)
TINY_SEEDS = range(0, 8)


def outputs(name: str, size: str, seed: int, scratch: str):
    wl = workloads.build(name, size, seed)
    if wl.is_cli:
        args = SimpleNamespace(scratch=scratch, size=size, seed=seed)
        return worker.cli_once(worker.prepare_cli(args, wl))
    return [worker._counts(results) for results in worker.harness_pass(wl, workers=1)]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=str(worker.ROOT / "perfbench" / "reference.json"))
    args = p.parse_args()
    ref = {
        "numpy": worker.np.__version__,
        "scipy": worker.scipy.__version__,
        "replicates": {},
        "outputs": {},
    }
    out_dir = worker.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        for name in workloads.NAMES:
            by_size = ref["outputs"].setdefault(name, {})
            for size, seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
                calls = workloads.build(name, size, 0).calls
                ref["replicates"].setdefault(name, {})[size] = [c.grid.replicates for c in calls]
                by_size[size] = {str(s): outputs(name, size, s, scratch) for s in seeds}
            print(f"pinned {name}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
