"""Subprocess worker for the large-scale replay benchmark.

Each scaling point runs in its own interpreter because
``ru_maxrss`` is a process-lifetime high-water mark: measuring a
10⁵-element replay after a 10⁶-element one in the same process
would report the bigger run's peak.  A fresh process also lets an
optional ``resource.setrlimit`` address-space ceiling police one
replay without constraining the whole bench, which is how CI proves
the structure-of-arrays layout keeps million-element windows inside
a bounded footprint.

Usage::

    python benchmarks/scaling_worker.py '<json config>'

Config keys (defaults in parentheses): ``n_elements``, ``scenario``
(``quiet`` | ``iid20`` | ``burst``), ``engine`` (``auto``),
``n_periods`` (2.0), ``updates_factor`` (1.0), ``syncs_factor``
(0.3), ``request_factor`` (0.5), ``rlimit_bytes`` (none),
``chunk_periods`` (none — a positive integer routes the run through
the streaming slab engine), ``mode`` (``run`` | ``adapt`` — the
latter drives an :class:`AdaptiveMirrorManager` window-batched loop
through the slab engine instead of a bare simulation),
``compare_generation`` (false — additionally time the one-shot
fused tape build, ``Simulation.build_tape``, on a fresh same-seed
simulation, beside the slab route's ``generation_seconds``),
``freshener`` (``exact`` | ``partitioned`` — the exact water-filling
solve is superlinear in the catalog and dominates the
wall clock past a few million elements, so the 10⁷ streaming row
plans with the paper's scalable partitioned heuristic instead).
One JSON object is printed on stdout: replay, total
and stream-generation seconds, event counts, ``peak_rss_kb`` and a
freshness checksum the parent uses to confirm engines agree without
shipping arrays across the pipe.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


#: i.i.d. loss probability for the ``iid20`` scenario.
IID_LOSS = 0.2
#: Gilbert–Elliott transition rates for the ``burst`` scenario: a
#: sync has a 5% chance of entering a burst and bursts end with
#: probability 40% per attempt (mean burst length 2.5 attempts).
BURST_P_GOOD_TO_BAD = 0.05
BURST_P_BAD_TO_GOOD = 0.4
#: Ample explicit budget for the burst arm: with no retries this
#: routes the resolver onto the segmented-scan path, which is the
#: configuration the 10⁶-element claim is about.
BURST_BUDGET = 1e9


def run_point(config: dict) -> dict:
    """Run one scaling point and return its measurement row."""
    rlimit = config.get("rlimit_bytes")
    if rlimit is not None:
        resource.setrlimit(resource.RLIMIT_AS,
                           (int(rlimit), int(rlimit)))

    import numpy as np

    from repro.core.freshener import (PartitionedFreshener,
                                      PerceivedFreshener)
    from repro.faults.model import FaultPlan
    from repro.faults.retry import RetryPolicy
    from repro.obs import registry as obs
    from repro.sim.simulation import Simulation
    from repro.workloads.presets import ExperimentSetup, build_catalog

    n = int(config["n_elements"])
    scenario = config.get("scenario", "quiet")
    engine = config.get("engine", "auto")
    n_periods = float(config.get("n_periods", 2.0))
    setup = ExperimentSetup(
        n_objects=n,
        updates_per_period=float(config.get("updates_factor", 1.0)) * n,
        syncs_per_period=float(config.get("syncs_factor", 0.3)) * n,
        theta=1.0, update_std_dev=2.0)
    catalog = build_catalog(setup, seed=0)

    fault_kwargs: dict = {}
    if scenario == "iid20":
        fault_kwargs = dict(
            fault_plan=FaultPlan.iid(IID_LOSS),
            retry_policy=RetryPolicy(max_retries=3),
            fault_rng=np.random.default_rng(11))
    elif scenario == "burst":
        fault_kwargs = dict(
            fault_plan=FaultPlan.bursty(BURST_P_GOOD_TO_BAD,
                                        BURST_P_BAD_TO_GOOD),
            bandwidth_budget=BURST_BUDGET,
            fault_rng=np.random.default_rng(11))
    elif scenario != "quiet":
        raise ValueError(f"unknown scenario {scenario!r}")

    request_rate = float(config.get("request_factor", 0.5)) * n
    chunk_periods = config.get("chunk_periods")
    if chunk_periods is not None:
        chunk_periods = int(chunk_periods)

    if config.get("mode", "run") == "adapt":
        from repro.runtime.manager import AdaptiveMirrorManager

        manager_kwargs: dict = {}
        if scenario == "iid20":
            manager_kwargs = dict(
                fault_plan=FaultPlan.iid(IID_LOSS),
                retry_policy=RetryPolicy(max_retries=3))
        elif scenario == "burst":
            manager_kwargs = dict(
                fault_plan=FaultPlan.bursty(BURST_P_GOOD_TO_BAD,
                                            BURST_P_BAD_TO_GOOD))
        if config.get("freshener", "exact") == "partitioned":
            manager_kwargs["freshener"] = \
                PartitionedFreshener(n_partitions=64)
        manager = AdaptiveMirrorManager(
            catalog, setup.syncs_per_period,
            request_rate=request_rate,
            rng=np.random.default_rng(7), **manager_kwargs)
        with obs.telemetry() as registry:
            start = time.perf_counter()
            reports = manager.run(
                int(n_periods),
                batch=int(config.get("batch", 4)),
                slab_periods=(int(config["slab_periods"])
                              if "slab_periods" in config else None))
            total = time.perf_counter() - start
        _, replay = registry.span_totals["manager.simulate"]
        series = np.array([report.monitored_pf for report in reports])
        return {
            "n_elements": n,
            "scenario": scenario,
            "mode": "adapt",
            "n_periods": len(reports),
            "replans": int(registry.counters.get("manager.replans",
                                                 0)),
            "replay_seconds": replay,
            "total_seconds": total,
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss,
            "rlimit_bytes": rlimit,
            "freshness_checksum": hashlib.sha256(
                series.tobytes()).hexdigest()[:16],
        }

    freshener = (PartitionedFreshener(n_partitions=64)
                 if config.get("freshener", "exact") == "partitioned"
                 else PerceivedFreshener())
    plan = freshener.plan(catalog, setup.syncs_per_period)
    sim = Simulation(catalog, plan.frequencies,
                     request_rate=request_rate,
                     rng=np.random.default_rng(7), **fault_kwargs)
    with obs.telemetry() as registry:
        start = time.perf_counter()
        result = sim.run(n_periods, engine=engine,
                         chunk_periods=chunk_periods)
        total = time.perf_counter() - start
    _, replay = registry.span_totals["sim.run"]
    generation = registry.span_totals.get("sim.generate",
                                          (0, 0.0))[1]
    engines = {name: count
               for name, count in registry.counters.items()
               if name.startswith("sim.engine.")}
    checksum = hashlib.sha256(
        result.element_time_freshness.tobytes()).hexdigest()[:16]
    row = {
        "n_elements": n,
        "scenario": scenario,
        "engine": engine,
        "engines_used": engines,
        "chunk_periods": chunk_periods,
        "n_events": int(result.n_updates + result.n_syncs
                        + result.n_accesses),
        "attempted_polls": int(result.attempted_polls),
        "failed_polls": int(result.failed_polls),
        "replay_seconds": replay,
        "total_seconds": total,
        "generation_seconds": generation,
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
        "rlimit_bytes": rlimit,
        "freshness_checksum": checksum,
    }
    if config.get("compare_generation"):
        # A fresh same-seed simulation; only the build is timed.
        build_sim = Simulation(catalog, plan.frequencies,
                               request_rate=request_rate,
                               rng=np.random.default_rng(7))
        start = time.perf_counter()
        build_sim.build_tape(n_periods)
        row["fused_generation_seconds"] = time.perf_counter() - start
    return row


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: scaling_worker.py '<json config>'",
              file=sys.stderr)
        return 2
    row = run_point(json.loads(argv[1]))
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
