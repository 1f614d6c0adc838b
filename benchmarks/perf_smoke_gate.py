"""Gate the benchmark's exact smoke metrics against a committed record.

Usage, from the root of a checkout::

    python3 perfbench/run.py --smoke --trace 1 > perf-smoke.txt
    python3 benchmarks/perf_smoke_gate.py perf-smoke.txt
    python3 benchmarks/perf_smoke_gate.py perf-smoke.txt --record

The benchmark's last line of output is one JSON summary whose
``metrics`` map holds every per-layer metric of every workload.  The
counts and sizes among them (events generated, tape and carry bytes,
fault attempts, engine runs, plan calls, telemetry events, replans)
repeat exactly for a fixed seed and input size, so a change that
moves one has changed what the program does, not how fast it ran.
The record, ``benchmarks/results/PERF_smoke_exact.json``, holds those
metrics only; timings vary from run to run and stay out of it.

Without ``--record`` the gate prints each recorded metric beside the
fresh value and exits 1 when the run was not correct or any recorded
metric differs or is missing.  ``--record`` rewrites the record's
values from the run, keeping its metric names.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RECORD = (Path(__file__).resolve().parent / "results"
          / "PERF_smoke_exact.json")


def load_summary(path: Path) -> dict:
    """The JSON summary on the benchmark output's last line."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise SystemExit(f"{path}: no benchmark output")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Compare exact smoke metrics with the record.")
    parser.add_argument("output", type=Path,
                        help="standard output of perfbench/run.py "
                             "--smoke --trace 1")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the record from this run")
    args = parser.parse_args(argv)
    summary = load_summary(args.output)
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    fresh = {name: entry["value"]
             for name, entry in summary["metrics"].items()}
    if args.record:
        record["metrics"] = {name: fresh[name]
                             for name in record["metrics"]}
        RECORD.write_text(json.dumps(record, indent=1) + "\n",
                          encoding="utf-8")
        return 0
    drift = 0
    for name, want in record["metrics"].items():
        got = fresh.get(name)
        same = got is not None and got == want
        drift += not same
        print(f"{'ok   ' if same else 'DRIFT'} {name}: "
              f"record {want}, fresh {got}")
    print(f"{len(record['metrics'])} exact metrics, {drift} drifted, "
          f"correct {summary['correct']}")
    return 1 if drift or not summary["correct"] else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
