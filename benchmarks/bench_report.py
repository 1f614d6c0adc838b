"""The one-command reproduction report, as a benchmark.

Running the benchmark harness leaves a current REPORT.md at the repo
root — the document a reviewer reads next to the paper — and asserts
that every section passes its claim checks.  A second bench drives
the exact solver across problem sizes with telemetry on and writes
``benchmarks/results/BENCH_solver.json``: the machine-readable record
(waterfill iterations, bracket expansions, multiplier and KKT
residual vs N) that CI and regression tooling can diff without
parsing prose.  Wall times move with the host, so both benches print
them to stdout (``pytest -s``) and keep them out of the tracked
files.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.report import write_report
from repro.core.solver import solve_core_problem
from repro.obs import registry as obs
from repro.workloads.presets import ExperimentSetup, build_catalog

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

SOLVER_SIZES = (1_000, 10_000, 100_000)


def test_reproduction_report(benchmark):
    sections = benchmark.pedantic(
        lambda: write_report(REPO_ROOT / "REPORT.md", quick=True),
        rounds=1, iterations=1)
    for section in sections:
        print(f"{section.title}: {section.seconds:.1f}s")
    failures = [section.title for section in sections
                if not section.passed]
    assert not failures, f"report sections failed: {failures}"
    assert (REPO_ROOT / "REPORT.md").exists()


def _solver_telemetry_row(n: int) -> tuple[dict, float, float]:
    """One size's record row, its wall time and its solver span."""
    setup = ExperimentSetup(n_objects=n, updates_per_period=2.0 * n,
                            syncs_per_period=0.5 * n, theta=1.0,
                            update_std_dev=2.0)
    catalog = build_catalog(setup, seed=0)
    with obs.telemetry() as registry:
        start = time.perf_counter()
        solution = solve_core_problem(catalog, 0.5 * n)
        elapsed = time.perf_counter() - start
    count, total_s = registry.span_totals["solver.solve_weighted"]
    return {
        "n_elements": n,
        "solver_calls": int(registry.counters["solver.calls"]),
        "waterfill_iterations":
            int(registry.counters["waterfill.iterations"]),
        "bracket_expansions":
            int(registry.counters.get("waterfill.bracket_expansions",
                                      0.0)),
        "multiplier": solution.multiplier,
        "kkt_residual": registry.gauges["solver.kkt_residual"],
    }, elapsed, total_s


def test_solver_telemetry_bench(benchmark):
    """Solver scaling measured through the telemetry layer itself."""
    measured = benchmark.pedantic(
        lambda: [_solver_telemetry_row(n) for n in SOLVER_SIZES],
        rounds=1, iterations=1)
    rows = [row for row, _, _ in measured]
    for row, wall_s, span_s in measured:
        print(f"n={row['n_elements']}: wall {wall_s:.4f}s, "
              f"solver span {span_s:.4f}s")
        assert row["solver_calls"] == 1
        assert row["waterfill_iterations"] > 0
        assert span_s <= wall_s
    # Iteration counts are size-insensitive (bisection on μ): the
    # whole point of the structured solver's scalability story.
    iteration_spread = {row["waterfill_iterations"] for row in rows}
    assert max(iteration_spread) <= 4 * min(iteration_spread)
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"benchmark": "solver_telemetry", "rows": rows}
    (RESULTS_DIR / "BENCH_solver.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")
