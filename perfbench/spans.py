"""In-memory span tracer for the benchmark's traced run.

The traced run records spans from the benchmark's own code: it wraps
the public functions of each layer (see :func:`_wraps`) for the
duration of one run and restores them afterwards, so no library
module gains a span, counter or setting.  Spans are kept in memory as
``(name, start, end, parent)`` and written out when the run ends.

A span's name is ``<layer>.<what>``; a layer's self time is the sum,
over its spans, of each span's duration minus the durations of its
direct children.  Time inside the root spans that no layer span
covers is the benchmark's own (``bench.unattributed_share``).
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Iterator

#: Layers in report order (NOTES.md maps each to its modules).
LAYERS = ("workloads", "plan", "gen", "faults", "channel", "replay",
          "obs", "adapt")

#: Bytes per event of the structure-of-arrays tape (float64 time,
#: int32 element, int8 kind).
TAPE_BYTES_PER_EVENT = 13


class Tracer:
    """Records nested spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        """Open a span; the yielded record may be renamed before exit."""
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a counter."""
        self.counters[name] = self.counters.get(name, 0.0) + float(amount)

    def count(self, name: str) -> float:
        """A counter's value (0 when never added to)."""
        return self.counters.get(name, 0.0)

    def duration(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(end - start for span_name, start, end, _ in self.spans
                   if span_name == name)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] = (totals.get(name, 0.0)
                            + (end - start) - child_time[index])
        return totals

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer, in :data:`LAYERS` order."""
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer in layers:
                layers[layer] += seconds
        return layers

    def records(self) -> list[dict[str, Any]]:
        """The spans as JSON-ready records, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - origin,
                 "end": end - origin, "parent": parent}
                for name, start, end, parent in self.spans]


def _count_results(tracer: Tracer, results: list) -> None:
    for result in results:
        tracer.add("replay.events", result.n_updates + result.n_syncs
                   + result.n_accesses)


def _on_merge(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("gen.events", result[0].shape[0])


def _on_resolve(tracer: Tracer, args: tuple, result: Any) -> None:
    # resolve_ge_faults returns (resolution, final chain state).
    resolution = result[0] if isinstance(result, tuple) else result
    attempts = int(resolution.attempts.sum())
    tracer.add("faults.attempts", attempts)
    tracer.add("faults.retries",
               attempts - int((resolution.attempts > 0).sum()))
    tracer.add("faults.denied", int(resolution.denied.sum()))
    tracer.add("faults.successes", int(resolution.success.sum()))


def _on_waterfill(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("plan.waterfill_iterations", result.iterations)
    tracer.add("plan.element_iterations",
               result.allocations.shape[0] * result.iterations)


def _on_plan(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("plan.calls")


def _on_oneshot(tracer: Tracer, args: tuple, result: Any) -> None:
    _count_results(tracer, [result])


def _on_window(tracer: Tracer, args: tuple, result: Any) -> None:
    _count_results(tracer, result[0])


def _on_finish(tracer: Tracer, args: tuple, result: Any) -> None:
    _count_results(tracer, [result])
    tracer.add("replay.carry_bytes", args[0].carry.nbytes())


def _wraps() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, span name, result hook)`` per traced call.

    A function imported by name into another module is wrapped in
    every namespace the traced code looks it up from.
    """
    from repro.core import solver
    from repro.core.freshener import (PartitionedFreshener,
                                      PerceivedFreshener)
    from repro.core.scheduler import SyncSchedule
    from repro.runtime import manager
    from repro.runtime.beliefs import BeliefState
    from repro.sim import events, fastpath, simulation
    from repro.sim.generators import RequestGenerator, UpdateGenerator
    from repro.workloads import presets

    wraps: list[tuple[Any, str, str, Callable | None]] = [
        (presets, "build_catalog", "workloads.build_catalog", None),
        (PerceivedFreshener, "plan", "plan.solve", _on_plan),
        (PartitionedFreshener, "plan", "plan.solve", _on_plan),
        (solver, "waterfill", "plan.waterfill", _on_waterfill),
        (SyncSchedule, "events_until", "gen.schedule", None),
        (SyncSchedule, "events_between", "gen.schedule", None),
        (fastpath, "resolve_iid_faults", "faults.resolve", _on_resolve),
        (fastpath, "resolve_ge_faults", "faults.resolve", _on_resolve),
        (fastpath, "replay_fastpath", "replay.oneshot", _on_oneshot),
        (manager, "replay_window_tapes", "replay.oneshot", _on_window),
        (fastpath.StreamingReplay, "feed", "replay.feed", None),
        (fastpath.StreamingReplay, "finish", "replay.finish",
         _on_finish),
        (BeliefState, "observe_period", "adapt.estimate", None),
        (BeliefState, "believed_catalog", "adapt.beliefs", None),
    ]
    for generator, name in ((UpdateGenerator, "gen.updates"),
                            (RequestGenerator, "gen.requests")):
        for method in ("draw_window", "draw_window_sorted"):
            wraps.append((generator, method, name, None))
    for module in (events, simulation):
        for merge in ("merge_kind_blocks", "merge_sorted_blocks"):
            wraps.append((module, merge, "gen.merge", _on_merge))
    return wraps


def _wrapper(tracer: Tracer, original: Callable, name: str,
             hook: Callable | None) -> Callable:
    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = original(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return traced


def _simulation_run_wrapper(tracer: Tracer, original: Callable
                            ) -> Callable:
    """``Simulation.run``; a run forced onto the reference loop with
    ``engine="reference"`` belongs to the channel layer."""

    def traced(*args: Any, **kwargs: Any) -> Any:
        reference = kwargs.get("engine") == "reference"
        with tracer.span("channel.reference" if reference
                         else "replay.oneshot"):
            result = original(*args, **kwargs)
        if reference:
            tracer.add("channel.events", result.n_updates
                       + result.n_syncs + result.n_accesses)
        elif not kwargs.get("chunk_periods"):
            # Streaming runs are counted once, by StreamingReplay.finish.
            _on_oneshot(tracer, args, result)
        return result
    return traced


@contextlib.contextmanager
def traced_layers(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's public calls for the duration of the block."""
    from repro.sim.simulation import Simulation

    patched: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, hook in _wraps():
            original = owner.__dict__[attribute]
            patched.append((owner, attribute, original))
            setattr(owner, attribute,
                    _wrapper(tracer, original, name, hook))
        original_run = Simulation.__dict__["run"]
        patched.append((Simulation, "run", original_run))
        setattr(Simulation, "run",
                _simulation_run_wrapper(tracer, original_run))
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def program_span_seconds(registry: Any, name: str) -> float:
    """Total seconds of a program span, summed over every nesting path."""
    return sum(total for path, (_, total) in registry.span_totals.items()
               if path.rsplit("/", 1)[-1] == name)


def engine_runs(registries: list, reference: bool) -> float:
    """Runs the program's ``sim.engine.*`` counters record.

    ``reference`` selects the reference loop; otherwise every fast-path
    kernel is summed.  The window replay of the adaptive loop counts
    one run per replayed period.
    """
    return sum(value for registry in registries
               for name, value in registry.counters.items()
               if name.startswith("sim.engine.")
               and (name == "sim.engine.reference") == reference)
