"""The exact-count benchmark gate and its committed record."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GATE = REPO_ROOT / "benchmarks" / "perf_smoke_gate.py"
RECORD = json.loads((REPO_ROOT / "benchmarks" / "results"
                     / "PERF_smoke_exact.json").read_text())


def _gate(tmp_path: Path, metrics: dict, correct: bool = True):
    summary = {"correct": correct, "attempted": 4, "failed": 0,
               "metrics": {name: {"value": value, "unit": "count"}
                           for name, value in metrics.items()}}
    output = tmp_path / "perf-smoke.txt"
    output.write_text("report lines\n" + json.dumps(summary) + "\n")
    return subprocess.run([sys.executable, str(GATE), str(output)],
                          capture_output=True, text=True, check=False)


def test_record_holds_only_exact_metrics():
    """Every recorded metric is a per-layer count or byte size of a
    benchmark workload — never a timing, which would not repeat."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer"]}
    workloads = {workload["name"] for workload in spec["workloads"]}
    assert RECORD["metrics"]
    for name in RECORD["metrics"]:
        workload, metric = name.split("/", 1)
        assert workload in workloads, name
        assert units[metric] in ("count", "B"), name


def test_matching_run_passes(tmp_path):
    result = _gate(tmp_path, dict(RECORD["metrics"],
                                  **{"stream-ge/gen.merge_s": 0.5}))
    assert result.returncode == 0, result.stdout
    assert "0 drifted" in result.stdout


@pytest.mark.parametrize("case", ["drift", "missing", "incorrect"])
def test_any_difference_fails(tmp_path, case):
    metrics = dict(RECORD["metrics"])
    name = next(iter(metrics))
    if case == "drift":
        metrics[name] += 1
    elif case == "missing":
        del metrics[name]
    result = _gate(tmp_path, metrics, correct=case != "incorrect")
    assert result.returncode == 1, result.stdout
    if case != "incorrect":
        assert f"DRIFT {name}" in result.stdout
