"""Self-tests for the benchmark, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

Every workload must finish in seconds and emit every metric that
BENCHMARK.json names, with its unit; every name must be well formed;
a corrupted twin result and a raising timed run must each surface as
a failed run in a result line that still parses; and a directory
holding only the benchmark must be refused.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_SECONDS_LIMIT = 60.0


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(process: subprocess.CompletedProcess) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload: str, trace: int) -> None:
    start = time.monotonic()
    process = _run("--workload", workload, "--seed", "3", "--seconds",
                   "1", "--trace", str(trace), "--smoke")
    assert time.monotonic() - start < SMOKE_SECONDS_LIMIT
    assert process.returncode == 0, process.stderr
    result = _result(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    report = process.stdout
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert re.search(rf"{re.escape(metric['name'])}\s+\S+ "
                         rf"{re.escape(metric['unit'])}\s+"
                         rf"{metric['better']}", report), metric
    assert "error_rate" in report
    if trace:
        assert result["metrics"]["bench.unattributed_share"]["value"] < 1


def test_names_units_and_directions() -> None:
    names = [entry["name"] for section in
             ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_injected_twin_mismatch_is_a_failed_run() -> None:
    process = _run("--workload", WORKLOADS[0], "--seconds", "1",
                   "--smoke", "--inject", "mismatch")
    assert process.returncode == 0, process.stderr
    result = _result(process)
    assert result["failed"] >= 1 and not result["correct"]
    assert "FAILED" in process.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_injected_raising_run_is_a_failed_run(trace: int) -> None:
    process = _run("--workload", WORKLOADS[-1], "--seconds", "1",
                   "--trace", str(trace), "--smoke", "--inject", "raise")
    assert process.returncode == 0, process.stderr
    result = _result(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] >= 1 and not result["correct"]
    assert result["attempted"] >= result["failed"]
    assert "MemoryError" in process.stderr


def test_refuses_a_directory_without_the_simulator(tmp_path: Path
                                                   ) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = _run("--workload", WORKLOADS[0], "--smoke", cwd=tmp_path)
    assert process.returncode != 0
    assert not process.stdout.strip()
