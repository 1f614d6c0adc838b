"""Run the freshening simulator's benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--smoke]

Each workload runs in two fresh processes (worker.py): one runs the
reduced-size twin checks and one contracts-on run under
``REPRO_CONTRACTS=1``; the other sets up, warms up and times repeated
runs, so ``peak_rss_mb`` is that process's own peak.  BLAS and OpenMP
pools are pinned to one thread and nothing runs in parallel.

Per workload the report prints every end-to-end metric by name with
its unit and direction, ``error_rate`` (runs that raised, hit the
memory ceiling or failed a check, over runs attempted), the host
(nproc, CPU model, last-level cache, Python and numpy versions) and
seed, and with ``--trace 1`` the traced layer table with self times
followed by every per-layer metric.  The same record, with the raw
samples, is written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(prefixed ``<workload>/`` when running all workloads).  Metric names,
units and directions come from BENCHMARK.json.  A worker that crashes
or runs out of time counts as a failed run: the line is still printed,
with ``correct`` false and without the metrics that were not measured.
``--smoke`` shrinks every workload so a run takes seconds; the
self-tests use ``--inject mismatch``, which corrupts one twin result,
and ``--inject raise``, which makes every timed run raise; either must
show up as a failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: Both worker processes of one workload must end within this time.
RUN_BUDGET_SECONDS = 170.0
THREAD_POOL_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS")


def host() -> dict:
    """nproc, CPU model and last-level cache of the machine."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc, top = "unknown", -1
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > top:
            top, llc = level, f"L{level} {size}"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "llc": llc}


def _worker(mode: str, workload: str, args: argparse.Namespace,
            deadline: float, *extra: str) -> dict | None:
    """Run worker.py in a fresh process; its JSON payload, or None."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_POOL_VARIABLES, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    if mode == "check":
        env["REPRO_CONTRACTS"] = "1"
    command = [sys.executable, str(BENCH_DIR / "worker.py"), mode,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               *(["--smoke"] if args.smoke else []), *extra]
    try:
        process = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: {mode} worker ran out of time",
              file=sys.stderr)
        return None
    sys.stderr.write(process.stderr)
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(f"{workload}: {mode} worker exited with "
              f"{process.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: {mode} worker printed no payload",
              file=sys.stderr)
        return None


def _print_report(name: str, record: dict, spec: dict) -> None:
    machine = record["host"]
    print(f"== {name}  seed {record['seed']}  nproc {machine['nproc']}  "
          f"CPU {machine['cpu']}  LLC {machine['llc']}  "
          f"Python {record.get('python', '?')}  "
          f"numpy {record.get('numpy', '?')}")
    notes = {"setup_s": "median import + median of "
                        f"{len(record.get('setup_samples', []))} set-ups",
             "wall_s": f"median of {len(record.get('samples', []))} runs"}
    measured = record.get("end_to_end", {})
    for metric in spec["end_to_end"]:
        label = metric["name"]
        value = measured.get(label)
        shown = f"{value:>16.6g}" if value is not None else f"{'n/a':>16}"
        print(f"  {label:<28}{shown} {metric['unit']:<9}"
              f"{metric['better']:<7}{notes.get(label, '')}")
    print(f"  {'error_rate':<28}{record['error_rate']:>16.6g} "
          f"{'fraction':<9}{'lower':<7}{record['failed']} failed of "
          f"{record['attempted']} runs")
    for label, ok in record["checks"].items():
        print(f"    check {'ok    ' if ok else 'FAILED'} {label}")
    if "layers" not in record:
        return
    total = sum(max(seconds, 0.0) for seconds in record["layers"].values())
    print(f"  {'layer':<12}{'self_s':>12}{'share':>9}{'probe_s':>12}")
    for layer, seconds in record["layers"].items():
        share = seconds / total if total else 0.0
        print(f"  {layer:<12}{seconds:>12.4f}{share:>9.1%}"
              f"{record['probe_layers'][layer]:>12.4f}")
    for metric in spec["per_layer"]:
        label = metric["name"]
        print(f"  {label:<34}{record['per_layer'][label]:>16.6g} "
              f"{metric['unit']:<9}{metric['better']}")


def run_workload(name: str, args: argparse.Namespace,
                 machine: dict) -> dict:
    """Check and measure one workload; its record.

    A worker that crashes, runs out of time or prints no payload counts
    as one failed run; the record then lacks the metrics it would have
    measured.
    """
    deadline = time.monotonic() + RUN_BUDGET_SECONDS
    inject = ["--inject", args.inject] if args.inject else []
    checked = _worker("check", name, args, deadline, *inject) or {
        "attempted": 1, "failed": 1,
        "checks": {"check worker finished": False}}
    measured = _worker("measure", name, args, deadline, *inject) or {
        "attempted": 1, "failed": 1}
    record = dict(measured, workload=name, seed=args.seed,
                  trace=args.trace, smoke=args.smoke, host=machine,
                  checks=checked["checks"])
    record["attempted"] = measured["attempted"] + checked["attempted"]
    record["failed"] = measured["failed"] + checked["failed"]
    record["error_rate"] = record["failed"] / record["attempted"]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run the freshening simulator's benchmark.")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject", choices=("mismatch", "raise"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [workload["name"] for workload in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if any(name not in known for name in names):
        parser.error(f"--workload must be 'all' or one of {known}")
    section = "per_layer" if args.trace else "end_to_end"
    machine = host()
    summary: dict = {"correct": True, "attempted": 0, "failed": 0,
                     "metrics": {}}
    for name in names:
        record = run_workload(name, args, machine)
        _print_report(name, record, spec)
        summary["correct"] &= record["failed"] == 0
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        measured = record.get(section, {})
        for metric in spec[section]:
            if metric["name"] in measured:
                summary["metrics"][prefix + metric["name"]] = {
                    "value": measured[metric["name"]],
                    "unit": metric["unit"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
