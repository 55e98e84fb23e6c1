"""Toy-size runs of the benchmark: every declared metric is printed with its unit.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert f"{m['name']} = {value} {m['unit']}" in lines

    record = json.loads(lines[0].removeprefix("run record: "))
    assert record["why"] == next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
    assert record["seed"] == 3
    assert set(record["environment"]) >= {"nproc", "python", "numpy", "blas", "blas_threads", "commit"}


def test_refuses_unknown_workload():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "nope", "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
