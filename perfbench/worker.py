"""Run one benchmark workload in a fresh process and print its figures.

run.py starts this process; the environment it sets pins thread pools
to one thread and puts the checkout's ``src`` first on the path.  The
process prints one JSON object on standard output.

``measure`` sets the workload up :data:`SETUP_REPEATS` times, each
time with a smoke-size warm-up run, then repeats the timed run until
``--seconds`` have passed and at least :data:`MIN_SAMPLES` runs are
done.  With ``--trace 1`` it then makes one traced run (see spans.py)
and the workload's probe (cases.Workload.probe) under a tracer of its
own, and derives the per-layer metrics.  ``check`` runs the workload's
twin checks and one run at twin size; run.py starts it with
``REPRO_CONTRACTS=1``, so that run checks the sync-conservation and
attempt-budget contracts.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cases  # noqa: E402
import spans  # noqa: E402
from repro.contracts import contracts_enabled  # noqa: E402

#: Seconds this process spent importing numpy and the simulator.
IMPORT_SECONDS = time.perf_counter() - _STARTED

#: Fresh interpreters that repeat those imports; a single import time
#: varies by a third from process to process.
IMPORT_REPEATS = 4
SETUP_REPEATS = 3
MIN_SAMPLES = 3
#: Address-space ceiling; a run that hits it counts as failed.
MEMORY_CEILING_BYTES = 4 * 1024 ** 3
#: Where the traced run's spans are written.
SPANS_DIR = Path(__file__).resolve().parent / "out"


def _cap_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = (MEMORY_CEILING_BYTES if hard == resource.RLIM_INFINITY
             else min(hard, MEMORY_CEILING_BYTES))
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def import_seconds() -> float:
    """Median import time of this process and :data:`IMPORT_REPEATS` more.

    Each repeat imports what this module imports, in a fresh
    interpreter started in this directory with this environment.
    """
    code = ("import time; start = time.perf_counter(); "
            "import numpy, cases, spans, repro.contracts; "
            "print(time.perf_counter() - start)")
    samples = [IMPORT_SECONDS]
    for _ in range(IMPORT_REPEATS):
        process = subprocess.run(
            [sys.executable, "-c", code], cwd=Path(__file__).parent,
            capture_output=True, text=True, check=True)
        samples.append(float(process.stdout))
    return statistics.median(samples)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: spans.Tracer, layers: dict, traced: cases.Traced,
                  probe: spans.Tracer, probed: cases.Traced | None,
                  emit_s: float, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced run and its probe.

    ``layers`` are the run's layer self times with telemetry emission
    (``emit_s``) moved from ``replay`` to ``obs``.  ``channel.*`` and
    ``adapt.*`` come from the probe; everything else from the
    workload's own traced run.
    """
    own = tracer.self_times()
    count = tracer.count
    registry = traced.registry
    adaptive = probed.registry if probed is not None else None
    counters = adaptive.counters if adaptive is not None else {}
    accepted = probed.accepted_periods if probed is not None else 0
    registries = [found for found in (registry, adaptive)
                  if found is not None]

    def program_seconds(name: str) -> float:
        if adaptive is None:
            return 0.0
        return spans.program_span_seconds(adaptive, name)

    roots = [span for span in tracer.spans if span[3] is None]
    root_seconds = sum(end - start for _, start, end, _ in roots)
    root_self = sum(own.get(span[0], 0.0) for span in roots)
    rolled_back = counters.get("manager.rolled_back_periods", 0.0)
    return {
        "workloads.build_catalog_s": own.get("workloads.build_catalog",
                                             0.0),
        "plan.solve_s": layers["plan"],
        "plan.calls": count("plan.calls"),
        "plan.waterfill_iterations": count("plan.waterfill_iterations"),
        "plan.ns_per_element_iter": 1e9 * _ratio(
            layers["plan"], count("plan.element_iterations")),
        "gen.updates_s": own.get("gen.updates", 0.0),
        "gen.schedule_s": own.get("gen.schedule", 0.0),
        "gen.requests_s": own.get("gen.requests", 0.0),
        "gen.merge_s": own.get("gen.merge", 0.0),
        "gen.events": count("gen.events"),
        "gen.ns_per_event": 1e9 * _ratio(layers["gen"],
                                         count("gen.events")),
        "gen.tape_bytes": spans.TAPE_BYTES_PER_EVENT * count("gen.events"),
        "faults.resolve_s": layers["faults"],
        "faults.attempts": count("faults.attempts"),
        "faults.retries": count("faults.retries"),
        "faults.denied": count("faults.denied"),
        "faults.success_share": _ratio(count("faults.successes"),
                                       count("faults.attempts")),
        "faults.ns_per_attempt": 1e9 * _ratio(layers["faults"],
                                              count("faults.attempts")),
        "channel.reference_runs": spans.engine_runs(registries, True),
        "channel.kernel_runs": spans.engine_runs(registries, False),
        "channel.reference_ns_per_event": 1e9 * _ratio(
            probe.layer_self_times()["channel"],
            probe.count("channel.events")),
        "replay.oneshot_s": own.get("replay.oneshot", 0.0),
        "replay.feed_s": max(own.get("replay.feed", 0.0) - emit_s, 0.0),
        "replay.finish_s": own.get("replay.finish", 0.0),
        "replay.ns_per_event": 1e9 * _ratio(layers["replay"],
                                            count("replay.events")),
        "replay.carry_bytes": count("replay.carry_bytes"),
        "obs.emit_s": emit_s,
        "obs.tape_events": len(registry.events) if registry else 0,
        "obs.ledger_labels": len(registry.ledger) if registry else 0,
        "adapt.plan_s": program_seconds("manager.plan"),
        "adapt.estimate_s": program_seconds("manager.estimate"),
        "adapt.simulate_s": program_seconds("manager.simulate"),
        "adapt.replans": counters.get("manager.replans", 0.0),
        "adapt.window_rollbacks": counters.get("manager.window_rollbacks",
                                               0.0),
        "adapt.rolled_back_periods": rolled_back,
        "adapt.useful_period_share": _ratio(accepted,
                                            accepted + rolled_back),
        "bench.trace_overhead_s": tracer.duration("bench.run")
        - untraced_wall,
        "bench.unattributed_share": _ratio(root_self, root_seconds),
    }


def trace(workload: cases.Workload, digest: str,
          untraced_wall: float) -> dict:
    """One traced run and the workload's probe, each under its own tracer.

    Returns the per-layer metrics, the layer tables and whether the
    traced run reproduced the untimed digest; writes the spans to
    :data:`SPANS_DIR`.
    """
    tracer = spans.Tracer()
    with spans.traced_layers(tracer):
        with tracer.span("bench.setup"):
            workload.setup()
        with tracer.span("bench.run"):
            traced = workload.traced_run(tracer)
    probe = spans.Tracer()
    with spans.traced_layers(probe), probe.span("bench.probe"):
        probed = workload.probe(probe)
    reproduced = traced.digest == digest
    if not reproduced:
        print(f"traced run digest {traced.digest} != {digest}",
              file=sys.stderr)
    emit_s = 0.0
    if traced.slabs is not None:
        emit_s = workload.emit_seconds(traced.slabs)
    layers = tracer.layer_self_times()
    layers["obs"] += emit_s
    layers["replay"] -= emit_s
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    (SPANS_DIR / f"{workload.name}-seed{workload.seed}-spans.json"
     ).write_text(json.dumps(
         {"run": {"spans": tracer.records(), "counters": tracer.counters},
          "probe": {"spans": probe.records(), "counters": probe.counters}},
         indent=1) + "\n", encoding="utf-8")
    return {"reproduced": reproduced,
            "per_layer": layer_metrics(tracer, layers, traced, probe,
                                       probed, emit_s, untraced_wall),
            "layers": layers, "probe_layers": probe.layer_self_times()}


def measure(workload: cases.Workload, smoke: cases.Workload,
            seconds: float, traced: bool, inject_failure: bool) -> dict:
    """Set up, warm up, time repeated runs and, if asked, trace one.

    Each set-up builds the workload's shared inputs and warms up with
    one smoke-size run; ``setup_s`` is the median import time (see
    :func:`import_seconds`) plus the median set-up.  A timed run that
    raises (the memory ceiling raises ``MemoryError``) ends the timing
    and counts as failed, as does a traced run that raises or does not
    reproduce the digest.
    ``inject_failure`` makes every timed run raise, so the self-tests
    can prove such a run is counted.
    """
    import_s = import_seconds()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        smoke.setup()
        smoke.run_once()
        setup_samples.append(time.perf_counter() - start)

    samples: list[float] = []
    digests: list[str] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            if inject_failure:
                raise MemoryError("injected failure of a timed run")
            digests.append(workload.run_once())
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc()
            failed += 1
            break
        samples.append(time.perf_counter() - start)
    attempted = len(samples) + failed
    failed += sum(digest != digests[0] for digest in digests[1:])
    payload: dict = {"attempted": attempted, "failed": failed,
                     "samples": samples, "setup_samples": setup_samples,
                     "import_s": import_s,
                     "digest": digests[0] if digests else None}
    if not samples:
        return payload
    wall = statistics.median(samples)
    payload["end_to_end"] = {
        "setup_s": import_s + statistics.median(setup_samples),
        "wall_s": wall,
        "element_periods_per_s": workload.element_periods / wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        payload["attempted"] += 1
        try:
            outcome = trace(workload, digests[0], wall)
        except Exception:  # a raising traced run is a failed run
            traceback.print_exc()
            payload["failed"] += 1
            return payload
        payload["failed"] += not outcome.pop("reproduced")
        payload.update(outcome)
    return payload


def check(workload: cases.Workload, inject: bool) -> dict:
    """One contracts-on run at twin size, then the twin checks."""
    if not contracts_enabled():
        raise SystemExit("check mode needs REPRO_CONTRACTS=1")
    checks = [("one run with REPRO_CONTRACTS=1",
               lambda: bool(workload.run_once()))]
    workload.setup()
    checks += workload.twin_checks(inject)
    outcomes = {}
    for label, run in checks:
        try:
            outcomes[label] = bool(run())
        except Exception:  # a raising check is a failed check
            traceback.print_exc()
            outcomes[label] = False
    return {"attempted": len(outcomes),
            "failed": sum(not ok for ok in outcomes.values()),
            "checks": outcomes}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("measure", "check"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject", choices=("mismatch", "raise"))
    args = parser.parse_args(argv)
    sources = Path(__file__).resolve().parent.parent / "src"
    if not Path(cases.presets.__file__).resolve().is_relative_to(sources):
        raise SystemExit(f"repro was not imported from {sources}")
    _cap_memory()
    kind = cases.WORKLOADS[args.workload]
    if args.mode == "check":
        payload = check(kind(kind.twin, args.seed),
                        args.inject == "mismatch")
    else:
        size = kind.smoke if args.smoke else kind.full
        payload = measure(kind(size, args.seed),
                          kind(kind.smoke, args.seed), args.seconds,
                          bool(args.trace), args.inject == "raise")
    payload["numpy"] = np.__version__
    payload["python"] = sys.version.split()[0]
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
