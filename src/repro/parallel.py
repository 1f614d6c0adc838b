"""Parallel experiment executor: deterministic fan-out over tasks.

Every sweep, replication harness and chaos arm in the analysis layer
reduces to *map a pure seeded function over a list of specs*.
:func:`parallel_map` is that map.  With ``jobs=1`` (the default) it
runs inline — no pool, no pickling, bit-identical to the serial list
comprehension it replaces.  With ``jobs>1`` it fans the tasks out to
a spawned :class:`~concurrent.futures.ProcessPoolExecutor` and
returns results **in input order**, so callers observe the same
structure either way.

Determinism contract (common random numbers):

* Task functions must derive their randomness from an explicit
  per-task seed — never from shared mutable state.  :func:`seed_rng`
  builds the per-task generator from its own
  :class:`numpy.random.SeedSequence`; ``default_rng(SeedSequence(s))``
  draws the identical stream as ``default_rng(s)``, so results are
  bit-identical whether a task runs in the parent or in a worker.
* Tasks and their return values must be picklable for ``jobs>1``
  (module-level functions, ``functools.partial`` over them, frozen
  dataclasses).

Telemetry (when enabled, in the parent): every call opens a span
(``label``), bumps ``parallel.tasks`` by the task count, sets
``parallel.jobs`` to the effective worker count, and records each
task's in-worker wall time into the ``parallel.task_seconds``
histogram, in seconds.

Worker telemetry is **captured, not lost**: when the parent has
telemetry on, each worker task runs inside a fresh
:func:`repro.obs.registry.telemetry` registry that is pickled back
with the result and folded into the parent through
:meth:`~repro.obs.registry.MetricsRegistry.merge` — in input order,
tagged ``worker=<task index>`` — so a ``--jobs N`` run reports the
same counter totals as the serial run, bit-for-bit.  The ``jobs=1``
inline path records straight into the parent registry, unchanged.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context
from typing import Callable, Iterable, List, Tuple, TypeVar

import numpy as np

from repro.errors import ValidationError
from repro.obs import registry as obs

__all__ = ["parallel_map", "resolve_jobs", "seed_rng", "spawn_rngs"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value to a worker count.

    Args:
        jobs: Requested workers; ``None`` or ``0`` mean "all cores".

    Returns:
        A worker count >= 1.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValidationError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def seed_rng(seed: int) -> np.random.Generator:
    """A per-task generator spawned from its own seed sequence.

    ``default_rng(SeedSequence(seed))`` draws the identical stream as
    ``default_rng(seed)``, so a task seeded this way is bit-identical
    to the serial code it replaces while still giving every worker an
    independently-spawned sequence.
    """
    return np.random.default_rng(np.random.SeedSequence(seed))


def spawn_rngs(rng: np.random.Generator, n: int
               ) -> list[np.random.Generator]:
    """``n`` child generators of ``rng``, in spawn order.

    ``rng.spawn(n)`` keys them off ``rng``'s seed sequence without
    advancing its draw stream.  A generator with no seed sequence (a
    hand-built bit generator) cannot spawn; its children are derived
    by drawing one seed each from ``rng`` through a
    :class:`numpy.random.SeedSequence`, so they stay CRN-disciplined.
    """
    try:
        return rng.spawn(n)
    except (AttributeError, TypeError, ValueError):
        return [np.random.default_rng(np.random.SeedSequence(
                    int(rng.integers(np.iinfo(np.int64).max))))
                for _ in range(n)]


def _timed(fn: Callable[[ItemT], ResultT], item: ItemT
           ) -> Tuple[ResultT, float, None]:
    """Run one task and measure its wall time, in seconds."""
    started = time.perf_counter()
    value = fn(item)
    return value, time.perf_counter() - started, None


def _timed_captured(fn: Callable[[ItemT], ResultT], capture: bool,
                    item: ItemT
                    ) -> Tuple[ResultT, float, "obs.MetricsRegistry | None"]:
    """Worker-side task wrapper: time the task and, when the parent
    had telemetry on, capture the worker's registry to ship back.

    Spawned workers re-derive their telemetry gate from the
    environment, which loses programmatic ``enable_telemetry()``
    state and — before the merge existed — silently discarded
    whatever a worker recorded.  Running the task inside
    :func:`repro.obs.registry.telemetry` gives it a fresh registry
    this function can return for the parent to fold in.
    """
    if not capture:
        return _timed(fn, item)
    with obs.telemetry() as worker_registry:
        value, seconds, _ = _timed(fn, item)
    return value, seconds, worker_registry


def parallel_map(fn: Callable[[ItemT], ResultT],
                 items: Iterable[ItemT], *, jobs: int = 1,
                 label: str = "parallel.map") -> List[ResultT]:
    """Order-preserving map over ``items``, optionally in processes.

    Args:
        fn: Pure task function; picklable when ``jobs != 1``.
        items: Task specs, consumed eagerly.
        jobs: Worker processes; 1 (default) runs inline and is
            bit-identical to ``[fn(item) for item in items]``; 0
            means "all cores".
        label: Span name for the telemetry tape.

    Returns:
        Task results, in input order.
    """
    specs = list(items)
    workers = min(resolve_jobs(jobs), max(len(specs), 1))
    capture = obs.telemetry_enabled()
    with obs.span(label):
        if workers == 1:
            triples = [_timed(fn, item) for item in specs]
        else:
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=get_context("spawn")) as pool:
                triples = list(pool.map(
                    partial(_timed_captured, fn, capture), specs))
    if capture:
        parent = obs.get_registry()
        for index, (_, _, worker_registry) in enumerate(triples):
            if worker_registry is not None:
                parent.merge(worker_registry, worker=index)
    if obs.telemetry_enabled():
        obs.counter_add("parallel.tasks", len(triples))
        obs.gauge_set("parallel.jobs", workers)
        for _, seconds, _ in triples:
            obs.observe("parallel.task_seconds", seconds)
    return [value for value, _, _ in triples]
