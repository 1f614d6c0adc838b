"""Differential harness: every replay route against its oracle.

The per-event reference loop is the oracle, and every vectorized route
must reproduce it bit for bit.  A case is one row of each of three
tables:

* :data:`SETUPS` — fault setups: a fresh-plan factory plus the
  dispatch decision auto must make for it;
* :data:`WORLDS` — catalogs, schedules, horizons and run knobs;
* :data:`ROUTES` — how the run is replayed, each paired with the run
  that is its oracle.

:func:`check` runs every route that applies to a (world, setup) pair
and compares one :class:`Observation` per side with
:func:`assert_same`: every result field (floats as uint64 bits, array
dtypes included), every non-span telemetry event, the counters, the
gauges, the freshness ledger, the post-run workload and fault rng
states and the Gilbert–Elliott chain states.  :func:`check_manager`
holds the batched adaptive manager to its ``batch=1`` loop the same
way, and :func:`sweep` draws random cases for the hypothesis sweeps.

Two routes cannot be held to the reference loop yet, because they
draw their workload in another order: ``chunk*`` (``chunk_periods=K``)
is compared with ``chunk_periods=1`` until every draw is keyed by
(stream, period), and the batched manager with ``batch=1`` until the
window batcher is deleted; those two changes convert or delete these
rows.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import math
import os
import pickle
from functools import cached_property, partial
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.freshener import GeneralFreshener, PerceivedFreshener
from repro.faults.model import (
    FaultPlan,
    GilbertElliottFaultModel,
    IIDFaultModel,
    LatencyFaultModel,
    OutageWindow,
    PollOutcome,
)
from repro.faults.retry import RetryAdmissionGate, RetryPolicy
from repro.obs import registry as obs
from repro.sim import fastpath
from repro.sim.bursty import BurstyUpdateGenerator
from repro.sim.fastpath import (
    StreamingReplay,
    replay_window_tapes,
    resolve_tape_faults,
)
from repro.sim.simulation import Simulation
from repro.workloads.catalog import Catalog
from repro.workloads.presets import ExperimentSetup, build_catalog

from tests.conftest import random_catalog

# ---------------------------------------------------------------------------
# Fault setups


@dataclasses.dataclass(frozen=True)
class Setup:
    """One fault setup.

    Attributes:
        plan: Fresh-plan factory (Gilbert–Elliott chains carry state,
            so every run gets its own plan), or None for no plan.
        label: The ``sim.engine.*`` label auto dispatch must pick.
            Exactly the non-``reference`` setups are accepted by
            ``engine="fastpath"`` and batched by the manager.
        retries: ``RetryPolicy.max_retries``, or None for no policy.
        budget: Bandwidth budget as a fraction of the planned spend.
        gated: Whether retries pass a shared admission gate.
        dedicated: Faults draw from their own rng (else from the
            workload rng).
        trace: Record the per-attempt fault trace.
        ge_route: For Gilbert–Elliott setups, the resolver route the
            kernel must take: ``"scan"`` or ``"walk"``.
    """

    plan: Callable[[], FaultPlan] | None = None
    label: str = "fastpath"
    retries: int | None = None
    budget: float | None = None
    gated: bool = False
    dedicated: bool = False
    trace: bool = False
    ge_route: str | None = None

    @property
    def kernel(self) -> bool:
        return self.label != "reference"


_iid, _ge = FaultPlan.iid, FaultPlan.bursty


def _models(*models) -> Callable[[], FaultPlan]:
    return lambda: FaultPlan(models=tuple(model() for model in models))


def _outage() -> FaultPlan:
    return FaultPlan(models=(IIDFaultModel(0.2),),
                     outages=(OutageWindow(start=1.0, end=2.0,
                                           elements=(0, 1)),))


_IID, _GE = "fastpath_faulted", "fastpath_ge"

SETUPS: dict[str, Setup] = {
    "none": Setup(),
    "quiet": Setup(FaultPlan.quiet),
    "iid": Setup(partial(_iid, 0.4), _IID),
    "iid_timeout": Setup(partial(_iid, 0.3, failure=PollOutcome.TIMEOUT),
                         _IID, retries=2),
    **{f"iid_loss{p}": Setup(partial(_iid, p), _IID, retries=3,
                             dedicated=True)
       for p in (0.0, 0.3, 1.0)},
    "iid_dedicated": Setup(partial(_iid, 0.35), _IID, retries=2,
                           dedicated=True),
    **{f"iid_budget{b}": Setup(partial(_iid, 0.4), _IID, retries=4,
                               budget=b)
       for b in (0.15, 0.6, 1.0)},
    "iid_trace": Setup(partial(_iid, 0.5), _IID, retries=3, trace=True),
    # Without an ample budget some period can deny: the ledger walk.
    "ge": Setup(partial(_ge, 0.2, 0.5), _GE, ge_route="walk"),
    **{f"ge_loss{good}-{bad}": Setup(
        partial(_ge, 0.2, 0.5, loss_good=good, loss_bad=bad), _GE,
        dedicated=True, ge_route="walk")
       for good, bad in ((0.0, 1.0), (0.1, 0.9), (0.0, 0.5))},
    "ge_scan": Setup(partial(_ge, 0.2, 0.4, loss_bad=0.9), _GE,
                     budget=10.0, dedicated=True, ge_route="scan"),
    "ge_walk": Setup(partial(_ge, 0.2, 0.4, loss_bad=0.9), _GE,
                     retries=2, dedicated=True, ge_route="walk"),
    **{f"ge_budget{b}": Setup(partial(_ge, 0.25, 0.5), _GE, retries=4,
                              budget=b, dedicated=True, ge_route="walk")
       for b in (0.15, 0.6, 1.0)},
    "ge_trace": Setup(partial(_ge, 0.3, 0.4, loss_good=0.2,
                              loss_bad=0.95), _GE, retries=3,
                      dedicated=True, trace=True, ge_route="walk"),
    "ge_shared": Setup(partial(_ge, 0.2, 0.4, loss_good=0.05,
                               loss_bad=0.9), _GE, retries=2,
                       trace=True, ge_route="walk"),
    "ge_fail": Setup(partial(_ge, 0.3, 0.4, loss_good=1.0, loss_bad=1.0),
                     _GE, retries=2, dedicated=True, ge_route="walk"),
    # Reference-only: variable draw shapes, fast-fail outcomes,
    # outages, several models and cross-run gate state.
    "iid_unreachable": Setup(
        partial(_iid, 0.3, failure=PollOutcome.UNREACHABLE), "reference"),
    "ge_unreachable": Setup(
        partial(_ge, 0.2, 0.5, failure=PollOutcome.UNREACHABLE),
        "reference"),
    "latency": Setup(_models(partial(LatencyFaultModel, 0.05, 0.1)),
                     "reference"),
    "outage": Setup(_outage, "reference"),
    "multi_iid": Setup(_models(partial(IIDFaultModel, 0.2),
                               partial(IIDFaultModel, 0.1)), "reference"),
    "gated_iid": Setup(partial(_iid, 0.4), "reference", retries=2,
                       gated=True),
    "gated_ge": Setup(partial(_ge, 0.2, 0.5), "reference", retries=2,
                      gated=True),
}


def setup_kwargs(setup: Setup, world: "World | None" = None) -> dict:
    """Fresh fault arguments for ``setup``: the manager's, or with a
    ``world`` a ``Simulation``'s (budget, fault rng, trace too)."""
    kwargs: dict[str, Any] = {}
    if setup.plan is not None:
        kwargs["fault_plan"] = setup.plan()
    if setup.retries is not None:
        kwargs["retry_policy"] = RetryPolicy(
            max_retries=setup.retries,
            admission_gate=(RetryAdmissionGate(capacity=4.0,
                                               refill_rate=2.0)
                            if setup.gated else None))
    if world is not None:
        catalog, frequencies = world.built
        if setup.budget is not None:
            kwargs["bandwidth_budget"] = setup.budget * float(
                catalog.sizes @ frequencies)
        if setup.dedicated and setup.plan is not None:
            kwargs["fault_rng"] = np.random.default_rng(world.seed + 1)
        kwargs["record_fault_trace"] = setup.trace
    return kwargs


# ---------------------------------------------------------------------------
# Worlds


@dataclasses.dataclass(frozen=True)
class World:
    """One simulated world: ``make`` builds ``(catalog, frequencies)``."""

    make: Callable[[], tuple[Catalog, np.ndarray]]
    horizon: float = 4.0
    seed: int = 71
    request_rate: float = 80.0
    period_length: float = 1.0
    phase_policy: str = "staggered"
    offset: float = 0.0
    bursty: bool = False
    label_cap: int | None = None
    seedless: bool = False

    @cached_property
    def built(self) -> tuple[Catalog, np.ndarray]:
        return self.make()

    @property
    def periods(self) -> int:
        return math.ceil(self.horizon - 1e-9)


def _preset(theta: float = 1.0, n: int = 40, syncs: float = 20.0,
            seed: int = 11, freshener=PerceivedFreshener):
    def make():
        catalog = build_catalog(
            ExperimentSetup(n_objects=n, updates_per_period=2.0 * n,
                            syncs_per_period=syncs, theta=theta,
                            update_std_dev=1.0),
            alignment="shuffled", seed=seed)
        return catalog, freshener().plan(catalog, syncs).frequencies
    return make


_SKEWED = dict(access_probabilities=np.array([0.4, 0.25, 0.2, 0.1, 0.05]),
               change_rates=np.array([3.0, 0.5, 2.0, 1.0, 4.0]))


def _sized():
    catalog = Catalog(**_SKEWED,
                      sizes=np.array([0.5, 2.0, 1.0, 4.0, 0.25]))
    return catalog, PerceivedFreshener().plan(catalog, 6.0).frequencies


def _idle():
    return Catalog(**_SKEWED), np.array([4.0, 0.0, 2.0, 0.0, 1.0])


def _degenerate(frequencies):
    catalog = Catalog(access_probabilities=np.full(6, 1 / 6),
                      change_rates=np.zeros(6),
                      sizes=np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0]))
    return lambda: (catalog, np.asarray(frequencies, dtype=float))


def random_world(n: int, seed: int):
    """A random sized catalog with uniform(0, 2) sync frequencies."""
    def make():
        rng = np.random.default_rng(seed)
        return (random_catalog(rng, n, sized=True),
                rng.uniform(0.0, 2.0, n))
    return make


_DEFAULT = World(_preset())
_STREAMED = World(random_world(400, 21), horizon=2.5, seed=13,
                  request_rate=60.0)
_DEGENERATE = dict(horizon=3.0, seed=41, request_rate=1e-9)

WORLDS: dict[str, World] = {
    "default": _DEFAULT,
    **{f"theta{theta}": World(_preset(theta, n=50, syncs=25.0, seed=3),
                              horizon=10.0, seed=17)
       for theta in (0.0, 1.0, 1.6)},
    **{f"{policy}_phase": dataclasses.replace(
        _DEFAULT, make=_preset(freshener=GeneralFreshener), horizon=6.0,
        seed=5, phase_policy=policy)
       for policy in ("staggered", "zero")},
    "sized": World(_sized, horizon=8.0, seed=23, request_rate=40.0),
    "idle_elements": World(_idle, horizon=9.0, seed=53, request_rate=30.0),
    **{f"h{h}": dataclasses.replace(_DEFAULT, horizon=h)
       for h in (0.75, 1.0, 4.5, 6.0, 7.25)},
    "period2.5": dataclasses.replace(_DEFAULT, horizon=5.5,
                                     period_length=2.5),
    "offset4": dataclasses.replace(_DEFAULT, horizon=3.0, offset=4.0),
    "bursty": dataclasses.replace(_DEFAULT, horizon=8.0, bursty=True),
    "empty": World(_degenerate(np.zeros(6)), **_DEGENERATE),
    "all_fail": World(_degenerate([2.0, 1.0, 0.0, 3.0, 1.0, 2.0]),
                      **_DEGENERATE),
    "cap10": dataclasses.replace(_DEFAULT, horizon=5.0, label_cap=10),
    "streamed": _STREAMED,
    "streamed_h3": dataclasses.replace(_STREAMED, horizon=3.0),
    # Past 2¹⁶ elements, so the radix group sort's high-half pass
    # sorts real keys; the horizon keeps the reference loop near 1 s.
    "wide": World(random_world(70_000, 7), horizon=0.25, seed=19,
                  request_rate=20_000.0),
}


# ---------------------------------------------------------------------------
# The one run helper


def first_period(world: World) -> int:
    """1-based global index of a per-period sequence's first period."""
    return 2 + round(world.offset / world.period_length)


def simulations(world: World, setup: Setup, *,
                periods: int | None = None) -> list[Simulation]:
    """Simulations sharing one workload rng, fault rng and fault plan.

    ``periods=None`` gives one whole-horizon simulation; otherwise
    ``periods`` one-period simulations on consecutive fault clocks,
    the first at global period :func:`first_period` — one period past
    the world's offset, so a window's clock offset is never zero.
    """
    catalog, frequencies = world.built
    rng = (np.random.Generator(
               np.random.RandomState(world.seed)._bit_generator)
           if world.seedless else np.random.default_rng(world.seed))
    kwargs = setup_kwargs(setup, world)
    if world.bursty:
        kwargs["update_generator"] = BurstyUpdateGenerator(
            catalog, burstiness=0.7, cycle_length=2.0,
            rng=np.random.default_rng(99))
    offsets = ([world.offset] if periods is None else
               [(first_period(world) - 1 + j) * world.period_length
                for j in range(periods)])
    return [Simulation(catalog, frequencies,
                       request_rate=world.request_rate, rng=rng,
                       period_length=world.period_length,
                       phase_policy=world.phase_policy,
                       fault_time_offset=offset, **kwargs)
            for offset in offsets]


# ---------------------------------------------------------------------------
# Observation and comparison


@dataclasses.dataclass
class Observation:
    """Everything a run leaves behind that a route must reproduce."""

    results: list
    events: list
    counters: dict
    gauges: dict
    ledger: Any
    states: list
    chains: list
    engines: dict
    prefix: list | None = None

    def total(self, field: str) -> float:
        return sum(getattr(result, field) for result in self.results)


@contextlib.contextmanager
def label_cap(cap: int | None) -> Iterator[None]:
    """Run under ``REPRO_TELEMETRY_MAX_ELEMENTS=cap`` (None: as is)."""
    if cap is None:
        yield
        return
    previous = os.environ.get("REPRO_TELEMETRY_MAX_ELEMENTS")
    os.environ["REPRO_TELEMETRY_MAX_ELEMENTS"] = str(cap)
    obs.refresh_from_env()
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_TELEMETRY_MAX_ELEMENTS"]
        else:
            os.environ["REPRO_TELEMETRY_MAX_ELEMENTS"] = previous
        obs.refresh_from_env()


def _rng_state(generator: np.random.Generator) -> bytes:
    # pickle: an MT19937 state holds an array (no plain ==).
    return pickle.dumps(generator.bit_generator.state)


def observe(go: Callable[[], list], sims: list[Simulation] = (),
            cap: int | None = None) -> Observation:
    """Run ``go`` with telemetry on and capture what it left behind.

    ``sims`` name the streams and plan the run drew from.
    ``sim.engine.*`` counters go to :attr:`Observation.engines`,
    apart from the other counters.
    """
    with label_cap(cap), obs.telemetry() as registry:
        results = go()
    counters = dict(registry.counters)
    engines = {name: counters.pop(name) for name in list(counters)
               if name.startswith("sim.engine.")}
    events = [{k: v for k, v in record.items() if k not in ("seq", "t")}
              for record in registry.events if record["kind"] != "span"]
    states, chains = [], []
    if sims:
        sim = sims[0]
        states = [_rng_state(generator)
                  for generator in (sim._rng, sim._fault_rng)
                  if generator is not None]
        plan = sim._fault_plan
        chains = [model.chain_states(sim._catalog.n_elements).tobytes()
                  for model in (plan.models if plan is not None else ())
                  if isinstance(model, GilbertElliottFaultModel)]
    observation = Observation(results, events, counters,
                              dict(registry.gauges), registry.ledger,
                              states, chains, engines)
    if results and hasattr(results[0], "horizon"):
        # Non-vacuity: one sim.period event per (partial) period, and a
        # ledger whenever the run refreshed or staled anything.
        assert sum(event["kind"] == "sim.period" for event in events) \
            == sum(math.ceil(r.horizon / r.period_length - 1e-9)
                   for r in results)
        assert bool(registry.ledger) == bool(
            observation.total("n_updates") + observation.total("n_syncs"))
    return observation


def _assert_value(a: Any, b: Any, name: Any) -> None:
    if isinstance(b, float):
        assert np.float64(a).view(np.uint64) == np.float64(b).view(
            np.uint64), (name, a, b)
    elif isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    elif isinstance(b, Catalog):
        for field in ("access_probabilities", "change_rates", "sizes"):
            _assert_value(getattr(a, field), getattr(b, field),
                          f"{name}.{field}")
    else:
        assert a == b, (name, a, b)


def assert_same(got: Observation, want: Observation,
                context: Any = None) -> None:
    """The one comparator: results field by field, then telemetry,
    ledger, rng states, chain states and window prefix states."""
    assert len(got.results) == len(want.results), context
    for index, (a, b) in enumerate(zip(got.results, want.results)):
        assert type(a) is type(b), context
        for field in dataclasses.fields(b):
            _assert_value(getattr(a, field.name), getattr(b, field.name),
                          (context, index, field.name))
    for part in ("events", "counters", "gauges", "ledger", "states",
                 "chains", "prefix"):
        assert getattr(got, part) == getattr(want, part), (context, part)


# ---------------------------------------------------------------------------
# Routes and their oracles


def _assert_engine(observation: Observation, label: str) -> Observation:
    assert observation.engines == {
        f"sim.engine.{label}": float(len(observation.results))}
    return observation


def runs(world: World, setup: Setup, *, engine: str = "auto",
         count: int = 1, chunk: int | None = None) -> Observation:
    """``count`` consecutive whole-horizon runs of one simulation."""
    sims = simulations(world, setup)
    observation = observe(
        lambda: [sims[0].run(world.horizon, engine=engine,
                             chunk_periods=chunk) for _ in range(count)],
        sims, world.label_cap)
    return _assert_engine(observation, "reference" if engine ==
                          "reference" else setup.label)


def _slab(k: int, world: World, setup: Setup) -> Observation:
    """The one-shot tape fed to ``StreamingReplay`` in ``k``-period
    slabs split at period bounds (a ragged final slab included)."""
    sims = simulations(world, setup)
    sim = sims[0]

    def go():
        times, elements, kinds = sim.build_tape(world.horizon)
        replay = StreamingReplay(
            *world.built, period_length=world.period_length,
            n_periods=world.horizon, fault_args=sim.fault_kernel_args(),
            fault_time_offset=world.offset, record_fault_trace=setup.trace)
        done = 0.0
        while done < world.horizon - 1e-12:
            last = min(done + k, world.horizon)
            lo, hi = np.searchsorted(
                times, [done * world.period_length,
                        last * world.period_length])
            replay.feed(times[lo:hi], elements[lo:hi], kinds[lo:hi],
                        n_periods=last - done)
            done = last
        return [replay.finish()]
    return _assert_engine(observe(go, sims, world.label_cap), setup.label)


def _per_period(world: World, setup: Setup) -> Observation:
    """Oracle of the window routes: one reference run per period,
    with the fault-rng state recorded after each.  Window replays
    record no fault trace, so neither side does."""
    setup = dataclasses.replace(setup, trace=False)
    sims = simulations(world, setup, periods=world.periods)
    fault_rng = sims[0]._fault_rng
    prefix = []

    def go():
        results = []
        for sim in sims:
            results.append(sim.run(1, engine="reference"))
            if fault_rng is not None:
                prefix.append(_rng_state(fault_rng))
        return results
    observation = _assert_engine(observe(go, sims, world.label_cap),
                                 "reference")
    observation.prefix = prefix
    return observation


def _window(world: World, setup: Setup) -> Observation:
    """Per-period tapes replayed by ``replay_window_tapes``, faults
    resolved inside the window; the ``consumed`` counts must land
    the fault rng where each accepted prefix of periods left it."""
    setup = dataclasses.replace(setup, trace=False)
    sims = simulations(world, setup, periods=world.periods)
    fault_rng = sims[0]._fault_rng
    probe = copy.deepcopy(fault_rng)
    consumed: list[int] = []

    def go():
        tapes = [sim.build_tape(1) for sim in sims]
        results, drawn = replay_window_tapes(
            *world.built, tapes, period_length=world.period_length,
            first_global_period=first_period(world),
            fault_args=sims[-1].fault_kernel_args())
        consumed.extend(drawn)
        return results
    observation = observe(go, sims, world.label_cap)
    prefix = []
    if probe is not None:
        for count in consumed:
            probe.random(count)
            prefix.append(_rng_state(probe))
    else:
        assert consumed == [0] * len(sims)
    observation.prefix = prefix
    return _assert_engine(observation, setup.label)


def _window_interleaved(world: World, setup: Setup) -> Observation:
    """Per-period tapes with their faults resolved right after each
    tape, on whatever stream the setup draws from, then replayed by
    ``replay_window_tapes`` — the batched manager's order."""
    setup = dataclasses.replace(setup, trace=False)
    sims = simulations(world, setup, periods=world.periods)
    sizes = np.asarray(world.built[0].sizes, dtype=float)
    fault_args = sims[0].fault_kernel_args()

    def go():
        tapes, resolutions, chain = [], [], None
        for sim in sims:
            tapes.append(sim.build_tape(1))
            if fault_args is not None:
                resolution, chain = resolve_tape_faults(
                    tapes[-1], sizes, fault_args=fault_args,
                    period_length=world.period_length,
                    fault_clock_offset=sim._fault_time_offset,
                    initial_bad=chain)
                resolutions.append(resolution)
        results, _ = replay_window_tapes(
            *world.built, tapes, period_length=world.period_length,
            first_global_period=first_period(world),
            fault_args=fault_args,
            resolutions=resolutions if fault_args is not None else None)
        if chain is not None:
            fault_args["model"].set_chain_states(chain)
        return results
    observation = observe(go, sims, world.label_cap)
    observation.prefix = []
    return _assert_engine(observation, setup.label)


def _no_prefix(observation: Observation) -> Observation:
    """For a route whose prefix states are not observed."""
    return dataclasses.replace(observation, prefix=[])


def _no_workload_state(observation: Observation) -> Observation:
    """For a route that draws its workload in another order."""
    return dataclasses.replace(observation, states=observation.states[1:])


@dataclasses.dataclass(frozen=True)
class Route:
    """A replay route, the oracle it must equal, and where it applies.

    ``adapt`` maps both sides before the comparison, for what the
    route does not reproduce.
    """

    run: Callable[[World, Setup], Observation]
    oracle: Callable[[World, Setup], Observation]
    kernel_only: bool = True
    needs_dedicated: bool = False
    streams: bool = False
    adapt: Callable[[Observation], Observation] = lambda o: o

    def applies(self, world: World, setup: Setup) -> bool:
        return ((setup.kernel or not self.kernel_only)
                and (setup.dedicated or setup.plan is None
                     or not self.needs_dedicated)
                and not (world.bursty and self.streams))


_reference = partial(runs, engine="reference")
_reference_twice = partial(runs, engine="reference", count=2)
_chunk1 = partial(runs, chunk=1)

ROUTES: dict[str, Route] = {
    "auto": Route(runs, _reference, kernel_only=False),
    **{f"slab{k}": Route(partial(_slab, k), _reference)
       for k in (1, 2, 3, 4)},
    "chained": Route(partial(runs, count=2), _reference_twice),
    "window": Route(_window, _per_period, needs_dedicated=True,
                    streams=True),
    "window_interleaved": Route(_window_interleaved, _per_period,
                                streams=True, adapt=_no_prefix),
    # Held to chunk_periods=1, not to the reference loop, until the
    # one-shot route draws per-period keyed tapes too.
    **{f"chunk{k}": Route(partial(runs, chunk=k), _chunk1, streams=True)
       for k in (1, 2, 3)},
    # Degenerate worlds hold no workload events, so there a streamed
    # run already equals the reference loop, bar the workload rng's
    # final position.
    "chunk1_reference": Route(_chunk1, _reference, streams=True,
                              adapt=_no_workload_state),
}

#: What :func:`check` runs unless told otherwise.
DEFAULT_ROUTES = ("auto", "slab1", "slab2", "chained", "window",
                  "window_interleaved", "chunk2")


@contextlib.contextmanager
def _count_scans(counts: list) -> Iterator[None]:
    scan = fastpath._ge_scan_states

    def counted(*args, **kwargs):
        counts.append(1)
        return scan(*args, **kwargs)
    fastpath._ge_scan_states = counted
    try:
        yield
    finally:
        fastpath._ge_scan_states = scan


def check(world: World | str, setup: Setup | str,
          routes: tuple[str, ...] = DEFAULT_ROUTES) -> Observation:
    """Hold every applicable route of ``routes`` to its oracle.

    Returns the reference run's observation, for case-specific
    assertions on what the setup exercised.
    """
    world = WORLDS[world] if isinstance(world, str) else world
    setup = SETUPS[setup] if isinstance(setup, str) else setup
    oracles: dict[Callable, Observation] = {}
    for name in routes:
        route = ROUTES[name]
        if not route.applies(world, setup):
            continue
        scans: list = []
        with _count_scans(scans):
            got = route.run(world, setup)
        if setup.ge_route is not None and name == "auto":
            assert bool(scans) == (setup.ge_route == "scan"), scans
        if route.oracle not in oracles:
            oracles[route.oracle] = route.oracle(world, setup)
        assert_same(route.adapt(got), route.adapt(oracles[route.oracle]),
                    name)
    return oracles.get(_reference) or _reference(world, setup)


# ---------------------------------------------------------------------------
# The batched adaptive manager


def check_manager(make: Callable[..., Any], setup: Setup | str, *,
                  periods: int, runs: list[dict], **knobs: Any
                  ) -> tuple[Observation, list[Observation]]:
    """Hold each batched run in ``runs`` (``run()`` keyword sets) to
    the ``batch=1`` loop: reports and telemetry (minus the window
    counters), one simulated run per reported period.

    Returns the ``batch=1`` observation and the batched ones.
    """
    setup = SETUPS[setup] if isinstance(setup, str) else setup

    def run(**kwargs):
        manager = make(**setup_kwargs(setup), **knobs)
        observation = observe(lambda: manager.run(periods, **kwargs))
        assert observation.counters.get("sim.runs") == \
            observation.counters["manager.periods"] == periods
        return observation

    sequential = run(batch=1)
    batched = [run(**kwargs) for kwargs in runs]
    for kwargs, observation in zip(runs, batched):
        assert_same(_no_window_counters(observation), sequential, kwargs)
    return sequential, batched


def _no_window_counters(observation: Observation) -> Observation:
    """Drop the counters only the batched loop keeps."""
    window = ("manager.window_rollbacks", "manager.rolled_back_periods")
    return dataclasses.replace(observation, counters={
        name: value for name, value in observation.counters.items()
        if name not in window})


# ---------------------------------------------------------------------------
# The hypothesis sweep


def sweep(seed: int, family: str | None = None,
          slab: bool = False) -> None:
    """One random case: a random catalog × a kernel setup of
    ``family`` (``"quiet"``, ``"iid"`` or ``"ge"``; drawn when None)
    with random retries, budget, failure outcome, fault-rng sharing
    and trace × the one-shot route, or ``slab=True`` for a random
    slab split."""
    rng = np.random.default_rng(seed)
    catalog = random_catalog(rng, int(rng.integers(3, 40)),
                             sized=bool(rng.integers(0, 2)))
    frequencies = PerceivedFreshener().plan(
        catalog, float(catalog.sizes.sum() * rng.uniform(0.2, 2.0))
    ).frequencies
    world = World(lambda: (catalog, frequencies), seed=seed,
                  horizon=float(rng.uniform(0.5, 9.0)),
                  request_rate=float(rng.uniform(5.0, 120.0)))
    if family is None:
        family = str(rng.choice(["quiet", "iid", "ge"]))
    planned = float(catalog.sizes @ frequencies)
    failure = (PollOutcome.TIMEOUT if rng.integers(0, 2)
               else PollOutcome.ERROR)
    if family == "quiet":
        setup = SETUPS["none"]
    elif family == "iid":
        setup = Setup(partial(_iid, float(rng.uniform(0.0, 1.0)),
                              failure=failure), _IID)
    else:
        setup = Setup(partial(
            _ge, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)),
            loss_good=float(rng.uniform(0.0, 0.5)),
            loss_bad=float(rng.uniform(0.5, 1.0)), failure=failure), _GE)
    if family != "quiet":
        setup = dataclasses.replace(
            setup,
            retries=(int(rng.integers(0, 5)) if rng.integers(0, 2)
                     else None),
            budget=(float(rng.uniform(0.2, 1.5))
                    if planned > 0.0 and rng.integers(0, 2) else None),
            dedicated=bool(rng.integers(0, 2)),
            trace=bool(rng.integers(0, 2)))
    route = f"slab{int(rng.integers(1, 5))}" if slab else "auto"
    check(world, setup, routes=(route,))
