"""Self-test of the benchmark at toy size; runs in seconds.

Every workload runs in both modes and emits exactly the metrics that
BENCHMARK.json names, with their units; a corrupted expected verdict fails
the run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--toy", "--seconds", "1", "--seed", "3", *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric_with_its_unit(workload, trace, group):
    proc, result = run_bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in SPEC[group]}


def test_corrupted_expected_verdict_fails_the_run():
    proc, result = run_bench("--workload", "paper_line", "--corrupt-expected")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    failed_frac = next(line for line in proc.stdout.splitlines() if line.startswith("failed_frac"))
    assert float(failed_frac.split()[1]) > 0
