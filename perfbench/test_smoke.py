"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SEED = 1  # pinned in reference.json


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.5", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = result_of(
        run("--workload", workload, "--seed", str(TINY_SEED), "--trace", str(trace))
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    table = {line.split()[0]: line.split() for line in lines if line.split()}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]][-1] == m["unit"]
    assert float(table["failed_frac"][1]) == 0.0
    assert "reference pinned" in lines[0]
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas",
                "blas_threads", "git_commit", "seed"):
        assert key in provenance


def copy_checkout(name, with_sources):
    """A copy of the benchmark, and of the program if with_sources, under OUT."""
    dest = OUT / name
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def test_corrupted_reference_count_makes_failed_frac_nonzero():
    checkout = copy_checkout("corrupt-checkout", with_sources=True)
    try:
        path = checkout / "perfbench" / "reference.json"
        ref = json.loads(path.read_text())
        ref["outputs"]["type1_calib"]["tiny"][str(TINY_SEED)][0][0] += 1
        path.write_text(json.dumps(ref))
        lines, result = result_of(
            run("--workload", "type1_calib", "--seed", str(TINY_SEED), "--trace", "0",
                cwd=checkout)
        )
    finally:
        shutil.rmtree(checkout)
    assert result["failed"] > 0 and not result["correct"]
    frac = next(l for l in lines if l.startswith("failed_frac")).split()[1]
    assert float(frac) > 0.0


def test_fails_without_the_program_sources():
    bare = copy_checkout("bare-checkout", with_sources=False)
    try:
        proc = run("--workload", "type1_calib", "--seed", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
