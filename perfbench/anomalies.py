"""Repeat the scaling points behind the recorded replay anomalies.

Usage, from the repository root::

    python3 perfbench/anomalies.py

benchmarks/results/BENCH_sim.json records one run of each 10⁵- and
10⁶-element replay point.  This script runs the quiet and burst points
again through the same benchmarks/scaling_worker.py, each in a fresh
process under the same address-space ceilings, :data:`REPEATS` times in
interleaved order, and prints per point the event count and the
median and quartiles of the replay and generation seconds.  NOTES.md
records one such run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GIB = 1024 ** 3
REPEATS = 5
#: (elements, scenario, address-space ceiling) as in bench_sim.py.
POINTS = ((100_000, "quiet", GIB), (100_000, "burst", GIB),
          (1_000_000, "quiet", 2 * GIB), (1_000_000, "burst", 2 * GIB))


def _quartiles(values: list[float]) -> str:
    low, median, high = statistics.quantiles(values, n=4)
    return f"{median:.3f} [{low:.3f}, {high:.3f}]"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    rows: dict[tuple, list[dict]] = {point: [] for point in POINTS}
    for _ in range(REPEATS):
        for point in POINTS:
            n, scenario, ceiling = point
            config = {"n_elements": n, "scenario": scenario,
                      "rlimit_bytes": ceiling}
            process = subprocess.run(
                [sys.executable,
                 str(ROOT / "benchmarks" / "scaling_worker.py"),
                 json.dumps(config)],
                env=env, capture_output=True, text=True, check=True)
            rows[point].append(json.loads(process.stdout))
    print("| elements | scenario | events | replay s, median [q1, q3] "
          "| generation s, median [q1, q3] | peak RSS MiB |")
    print("|---|---|---|---|---|---|")
    for (n, scenario, _), runs in rows.items():
        print(f"| {n} | {scenario} | {runs[0]['n_events']} | "
              f"{_quartiles([r['replay_seconds'] for r in runs])} | "
              f"{_quartiles([r['generation_seconds'] for r in runs])} | "
              f"{max(r['peak_rss_kb'] for r in runs) / 1024:.0f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
