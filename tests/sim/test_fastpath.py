"""Equivalence suite: the vectorized kernel vs the reference loop.

The fastpath's contract is **bit-identity**, not statistical
agreement: for every fault-free tape, :func:`repro.sim.fastpath.
replay_fastpath` must return a :class:`SimulationResult` whose every
field — floats included — equals the reference loop's exactly.  These
tests drive both engines from identically seeded simulations across
presets, phase policies, object sizes, partial final periods and a
bursty (non-Poisson) update process, then diff the results bit for
bit.  A seeded hypothesis sweep over random catalogs guards the
corners no fixture thought of.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freshener import GeneralFreshener, PerceivedFreshener
from repro.errors import ValidationError
from repro.faults.model import (
    FaultPlan,
    GilbertElliottFaultModel,
    IIDFaultModel,
    LatencyFaultModel,
    OutageWindow,
    PollOutcome,
)
from repro.faults.retry import RetryPolicy
from repro.obs import registry as obs
from repro.runtime.manager import AdaptiveMirrorManager
from repro.sim.bursty import BurstyUpdateGenerator
from repro.sim.fastpath import replay_window_tapes
from repro.sim.simulation import Simulation, kernel_fault_model
from repro.workloads.catalog import Catalog
from repro.workloads.presets import ExperimentSetup, build_catalog

from tests.conftest import random_catalog


def bits(array: np.ndarray) -> np.ndarray:
    """Reinterpret a float array's bytes for exact comparison."""
    return np.ascontiguousarray(np.asarray(array, dtype=np.float64)
                                ).view(np.uint64)


def assert_bit_identical(fast, reference) -> None:
    """Every ``SimulationResult`` field must match exactly."""
    for field in dataclasses.fields(reference):
        a = getattr(fast, field.name)
        b = getattr(reference, field.name)
        if isinstance(b, float):
            assert bits(np.array([a])) == bits(np.array([b])), field.name
        elif isinstance(b, np.ndarray) and b.dtype.kind == "f":
            assert np.array_equal(bits(a), bits(b)), field.name
        elif isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def run_engine(catalog: Catalog, frequencies: np.ndarray, *,
               engine: str, seed: int, n_periods: float,
               request_rate: float = 80.0, **kwargs):
    """One simulation run with a per-call generator (same seed ⇒
    identical event streams, so the engines see the same tape)."""
    if "update_generator" in kwargs:
        kwargs = dict(kwargs)
        factory = kwargs.pop("update_generator")
        kwargs["update_generator"] = factory(catalog)
    sim = Simulation(catalog, frequencies, request_rate=request_rate,
                     rng=np.random.default_rng(seed), **kwargs)
    return sim.run(n_periods=n_periods, engine=engine)


def assert_engines_agree(catalog: Catalog, frequencies: np.ndarray, *,
                         seed: int, n_periods: float, **kwargs) -> None:
    fast = run_engine(catalog, frequencies, engine="fastpath",
                      seed=seed, n_periods=n_periods, **kwargs)
    reference = run_engine(catalog, frequencies, engine="reference",
                           seed=seed, n_periods=n_periods, **kwargs)
    assert_bit_identical(fast, reference)


@pytest.fixture
def preset_catalog():
    setup = ExperimentSetup(n_objects=40, updates_per_period=80.0,
                            syncs_per_period=20.0, theta=1.0,
                            update_std_dev=1.0)
    return build_catalog(setup, alignment="shuffled", seed=11)


class TestBitIdentity:
    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.6])
    def test_preset_catalogs(self, theta):
        setup = ExperimentSetup(n_objects=50, updates_per_period=100.0,
                                syncs_per_period=25.0, theta=theta,
                                update_std_dev=1.0)
        catalog = build_catalog(setup, alignment="shuffled", seed=3)
        plan = PerceivedFreshener().plan(catalog, 25.0)
        assert_engines_agree(catalog, plan.frequencies, seed=17,
                             n_periods=10.0)

    @pytest.mark.parametrize("phase_policy", ["staggered", "zero"])
    def test_phase_policies(self, preset_catalog, phase_policy):
        plan = GeneralFreshener().plan(preset_catalog, 20.0)
        assert_engines_agree(preset_catalog, plan.frequencies, seed=5,
                             n_periods=6.0, phase_policy=phase_policy)

    def test_variable_sizes(self, sized_catalog):
        plan = PerceivedFreshener().plan(sized_catalog, 6.0)
        assert_engines_agree(sized_catalog, plan.frequencies, seed=23,
                             n_periods=12.0, request_rate=40.0)

    @pytest.mark.parametrize("n_periods", [0.75, 7.25, 1.0])
    def test_partial_final_periods(self, preset_catalog, n_periods):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        assert_engines_agree(preset_catalog, plan.frequencies, seed=31,
                             n_periods=n_periods)

    def test_non_unit_period_length(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        assert_engines_agree(preset_catalog, plan.frequencies, seed=41,
                             n_periods=5.5, period_length=2.5)

    def test_bursty_updates(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        assert_engines_agree(
            preset_catalog, plan.frequencies, seed=47, n_periods=8.0,
            update_generator=lambda catalog: BurstyUpdateGenerator(
                catalog, burstiness=0.7, cycle_length=2.0,
                rng=np.random.default_rng(99)))

    def test_zero_frequency_elements_idle(self, small_catalog):
        frequencies = np.array([4.0, 0.0, 2.0, 0.0, 1.0])
        assert_engines_agree(small_catalog, frequencies, seed=53,
                             n_periods=9.0, request_rate=30.0)

    def test_quiet_fault_plan_stays_on_fastpath(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        fast = run_engine(preset_catalog, plan.frequencies,
                          engine="auto", seed=61, n_periods=5.0,
                          fault_plan=FaultPlan.quiet())
        reference = run_engine(preset_catalog, plan.frequencies,
                               engine="reference", seed=61,
                               n_periods=5.0,
                               fault_plan=FaultPlan.quiet())
        assert_bit_identical(fast, reference)


class TestPropertyRandomCatalogs:
    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_catalogs_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, int(rng.integers(3, 40)),
                                 sized=bool(rng.integers(0, 2)))
        bandwidth = float(catalog.sizes.sum()
                          * rng.uniform(0.2, 2.0))
        plan = PerceivedFreshener().plan(catalog, bandwidth)
        assert_engines_agree(
            catalog, plan.frequencies, seed=seed,
            n_periods=float(rng.uniform(0.5, 9.0)),
            request_rate=float(rng.uniform(5.0, 120.0)))


def _quiet_plan():
    return FaultPlan.quiet()


def _iid_plan():
    return FaultPlan.iid(0.4)


def _iid_timeout_plan():
    return FaultPlan.iid(0.3, failure=PollOutcome.TIMEOUT)


def _iid_unreachable_plan():
    return FaultPlan(models=(IIDFaultModel(
        0.3, failure=PollOutcome.UNREACHABLE),))


def _ge_plan():
    return FaultPlan(models=(GilbertElliottFaultModel(0.2, 0.5),))


def _ge_unreachable_plan():
    return FaultPlan(models=(GilbertElliottFaultModel(
        0.2, 0.5, failure=PollOutcome.UNREACHABLE),))


def _latency_plan():
    return FaultPlan(models=(LatencyFaultModel(0.05, 0.1),))


def _outage_plan():
    return FaultPlan(models=(IIDFaultModel(0.2),),
                     outages=(OutageWindow(start=1.0, end=2.0,
                                           elements=(0, 1)),))


def _multi_iid_plan():
    return FaultPlan(models=(IIDFaultModel(0.2), IIDFaultModel(0.1)))


#: (plan factory, expected engine under "auto"): the dispatch matrix.
#: Stateless single-model i.i.d. retryable loss takes the faulted
#: kernel, a single *retryable* Gilbert–Elliott chain takes the
#: scan-vectorized burst kernel; everything else — variable draw
#: shapes, fast-fail outcomes, outages, multiple models — stays on
#: the loop.
_DISPATCH_MATRIX = [
    (None, "fastpath"),
    (_quiet_plan, "fastpath"),
    (_iid_plan, "fastpath_faulted"),
    (_iid_timeout_plan, "fastpath_faulted"),
    (_iid_unreachable_plan, "reference"),
    (_ge_plan, "fastpath_ge"),
    (_ge_unreachable_plan, "reference"),
    (_latency_plan, "reference"),
    (_outage_plan, "reference"),
    (_multi_iid_plan, "reference"),
]


class TestDispatch:
    @pytest.mark.parametrize("factory,expected", _DISPATCH_MATRIX)
    def test_auto_dispatch_matrix(self, preset_catalog, factory,
                                  expected):
        """auto must route each plan class to its engine — and stay
        bit-identical to a forced reference run either way.  The
        ``sim.engine.*`` counters are the dispatch decision's public
        record, so the matrix reads them rather than inferring the
        path from side effects."""
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        # A fresh plan per run: Gilbert–Elliott chains carry hidden
        # per-element state across runs, so sharing one object would
        # leak the first run's bursts into the second.
        with obs.telemetry() as registry:
            auto = run_engine(
                preset_catalog, plan.frequencies, engine="auto",
                seed=71, n_periods=4.0,
                fault_plan=factory() if factory is not None else None)
        engines = {
            name: registry.counters.get(f"sim.engine.{name}", 0)
            for name in ("fastpath", "fastpath_faulted",
                         "fastpath_ge", "reference")}
        assert engines == {name: (1 if name == expected else 0)
                           for name in engines}
        reference = run_engine(
            preset_catalog, plan.frequencies, engine="reference",
            seed=71, n_periods=4.0,
            fault_plan=factory() if factory is not None else None)
        assert_bit_identical(auto, reference)

    def test_gated_retry_policy_stays_reference(self, preset_catalog):
        """A shared admission gate is cross-run stateful: even an
        otherwise kernel-eligible i.i.d. or GE plan must stay on the
        reference loop."""
        from repro.faults.retry import RetryAdmissionGate
        plan_freq = PerceivedFreshener().plan(preset_catalog, 20.0)
        for factory in (_iid_plan, _ge_plan):
            sim = Simulation(
                preset_catalog, plan_freq.frequencies,
                request_rate=40.0, rng=np.random.default_rng(0),
                fault_plan=factory(),
                retry_policy=RetryPolicy(
                    max_retries=2,
                    admission_gate=RetryAdmissionGate(
                        capacity=4.0, refill_rate=2.0)))
            assert sim.fault_kernel_args() is None
            with pytest.raises(ValidationError):
                sim.run(n_periods=2.0, engine="fastpath")

    @pytest.mark.parametrize(
        "factory,accepted",
        [(factory, expected != "reference")
         for factory, expected in _DISPATCH_MATRIX])
    def test_forced_fastpath_accepts_or_rejects(self, preset_catalog,
                                                factory, accepted):
        """engine='fastpath' runs exactly the kernel-eligible plans
        and raises for stateful ones instead of silently falling
        back."""
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        faults = factory() if factory is not None else None
        sim = Simulation(preset_catalog, plan.frequencies,
                         request_rate=40.0,
                         rng=np.random.default_rng(0),
                         fault_plan=faults)
        if accepted:
            sim.run(n_periods=2.0, engine="fastpath")
        else:
            with pytest.raises(ValidationError):
                sim.run(n_periods=2.0, engine="fastpath")

    @pytest.mark.parametrize(
        "factory,batchable",
        [(factory, expected != "reference")
         for factory, expected in _DISPATCH_MATRIX])
    def test_manager_batches_exactly_the_kernel_plans(
            self, preset_catalog, factory, batchable):
        """The adaptive manager batches replan windows through the
        kernel for exactly the plans auto dispatch sends there."""
        manager = AdaptiveMirrorManager(
            preset_catalog, 20.0, request_rate=40.0,
            rng=np.random.default_rng(0),
            fault_plan=factory() if factory is not None else None)
        assert manager._batchable() is batchable

    def test_auto_iid_exercises_faults(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        auto = run_engine(preset_catalog, plan.frequencies,
                          engine="auto", seed=71, n_periods=5.0,
                          fault_plan=FaultPlan.iid(0.4))
        assert auto.failed_polls > 0

    def test_unknown_engine_rejected(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        sim = Simulation(preset_catalog, plan.frequencies,
                         request_rate=40.0,
                         rng=np.random.default_rng(0))
        with pytest.raises(ValidationError):
            sim.run(n_periods=2.0, engine="turbo")


class _SubclassedIIDFaultModel(IIDFaultModel):
    """Same draws as its parent, but the kernel only trusts the exact
    type: an override could change the per-attempt draw shape."""


class TestKernelFaultModel:
    """``kernel_fault_model`` is the one kernel-eligibility decision."""

    @pytest.mark.parametrize("factory",
                             [_iid_plan, _iid_timeout_plan, _ge_plan])
    def test_single_retryable_model_is_returned(self, factory):
        plan = factory()
        assert kernel_fault_model(plan, RetryPolicy(max_retries=2),
                                  None, None) is plan.models[0]

    @pytest.mark.parametrize("plan", [
        None,
        FaultPlan.quiet(),
        FaultPlan(models=(_SubclassedIIDFaultModel(0.3),)),
        _iid_unreachable_plan(),
        _ge_unreachable_plan(),
        _outage_plan(),
        _multi_iid_plan(),
        _latency_plan(),
    ])
    def test_reference_only_plans_are_refused(self, plan):
        assert kernel_fault_model(plan, None, None, None) is None

    @pytest.mark.parametrize("factory", [_iid_plan, _ge_plan])
    def test_channel_state_refuses_an_eligible_plan(self, factory):
        """A breaker, a relay topology or a shared admission gate
        makes attempts stateful, whatever the plan."""
        from repro.faults.breaker import CircuitBreaker
        from repro.faults.retry import RetryAdmissionGate
        from repro.faults.topology import Topology
        gated = RetryPolicy(max_retries=2, admission_gate=(
            RetryAdmissionGate(capacity=4.0, refill_rate=2.0)))
        assert kernel_fault_model(factory(), None, CircuitBreaker(2),
                                  None) is None
        assert kernel_fault_model(factory(), None, None,
                                  Topology.build(8)) is None
        assert kernel_fault_model(factory(), gated, None, None) is None


class TestFaultedBitIdentity:
    """The faulted kernel's contract is the same bit-identity bar."""

    @pytest.mark.parametrize("probability", [0.0, 0.3, 1.0])
    def test_loss_rates(self, preset_catalog, probability):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        assert_engines_agree(preset_catalog, plan.frequencies,
                             seed=101, n_periods=6.0,
                             fault_plan=FaultPlan.iid(probability),
                             retry_policy=RetryPolicy(max_retries=3))

    def test_dedicated_fault_rng(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        kwargs = dict(fault_plan=FaultPlan.iid(0.35),
                      retry_policy=RetryPolicy(max_retries=2))
        fast = run_engine(preset_catalog, plan.frequencies,
                          engine="fastpath", seed=103, n_periods=5.0,
                          fault_rng=np.random.default_rng(7),
                          **kwargs)
        reference = run_engine(preset_catalog, plan.frequencies,
                               engine="reference", seed=103,
                               n_periods=5.0,
                               fault_rng=np.random.default_rng(7),
                               **kwargs)
        assert_bit_identical(fast, reference)

    @pytest.mark.parametrize("budget_scale", [0.15, 0.6, 1.0])
    def test_tight_budgets_deny_identically(self, sized_catalog,
                                            budget_scale):
        plan = PerceivedFreshener().plan(sized_catalog, 6.0)
        budget = float(
            sized_catalog.sizes @ plan.frequencies) * budget_scale
        assert_engines_agree(sized_catalog, plan.frequencies,
                             seed=107, n_periods=8.0,
                             request_rate=40.0,
                             fault_plan=FaultPlan.iid(0.4),
                             retry_policy=RetryPolicy(max_retries=4),
                             bandwidth_budget=budget)

    def test_fault_trace_identical(self, sized_catalog):
        plan = PerceivedFreshener().plan(sized_catalog, 6.0)
        kwargs = dict(fault_plan=FaultPlan.iid(0.5),
                      retry_policy=RetryPolicy(max_retries=3),
                      record_fault_trace=True)
        fast = run_engine(sized_catalog, plan.frequencies,
                          engine="fastpath", seed=109, n_periods=4.0,
                          request_rate=30.0, **kwargs)
        reference = run_engine(sized_catalog, plan.frequencies,
                               engine="reference", seed=109,
                               n_periods=4.0, request_rate=30.0,
                               **kwargs)
        assert fast.fault_trace is not None
        assert fast.fault_trace == reference.fault_trace
        assert_bit_identical(fast, reference)

    def test_no_retry_policy(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        assert_engines_agree(preset_catalog, plan.frequencies,
                             seed=113, n_periods=5.0,
                             fault_plan=FaultPlan.iid(0.3))

    def test_fault_time_offset(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        assert_engines_agree(preset_catalog, plan.frequencies,
                             seed=127, n_periods=3.0,
                             fault_plan=FaultPlan.iid(0.3),
                             retry_policy=RetryPolicy(max_retries=3),
                             fault_time_offset=4.0)

    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_faulted_catalogs_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, int(rng.integers(3, 40)),
                                 sized=bool(rng.integers(0, 2)))
        bandwidth = float(catalog.sizes.sum()
                          * rng.uniform(0.2, 2.0))
        plan = PerceivedFreshener().plan(catalog, bandwidth)
        planned = float(catalog.sizes @ plan.frequencies)
        budget = (planned * float(rng.uniform(0.2, 1.5))
                  if planned > 0.0 and rng.integers(0, 2) else None)
        retry = (RetryPolicy(max_retries=int(rng.integers(0, 5)))
                 if rng.integers(0, 2) else None)
        failure = (PollOutcome.TIMEOUT if rng.integers(0, 2)
                   else PollOutcome.ERROR)
        assert_engines_agree(
            catalog, plan.frequencies, seed=seed,
            n_periods=float(rng.uniform(0.5, 9.0)),
            request_rate=float(rng.uniform(5.0, 120.0)),
            fault_plan=FaultPlan.iid(float(rng.uniform(0.0, 1.0)),
                                     failure=failure),
            retry_policy=retry, bandwidth_budget=budget,
            record_fault_trace=bool(rng.integers(0, 2)))


class TestGEBitIdentity:
    """The Gilbert–Elliott kernel meets the same bit-identity bar —
    results, fault trace, hidden chain state and post-run fault-rng
    stream position all must equal the reference channel's."""

    @staticmethod
    def _run(catalog, frequencies, engine, *, seed, n_periods,
             plan_factory, runs=1, request_rate=40.0, **kwargs):
        plan = plan_factory()
        fault_rng = np.random.default_rng(seed + 1)
        sim = Simulation(catalog, frequencies,
                         request_rate=request_rate,
                         rng=np.random.default_rng(seed),
                         fault_plan=plan, fault_rng=fault_rng,
                         **kwargs)
        result = None
        for _ in range(runs):
            result = sim.run(n_periods=n_periods, engine=engine)
        chain = plan.models[0].chain_states(catalog.n_elements)
        return result, fault_rng.bit_generator.state, chain

    def _agree(self, catalog, frequencies, **kwargs):
        fast, fast_state, fast_chain = self._run(
            catalog, frequencies, "fastpath", **kwargs)
        ref, ref_state, ref_chain = self._run(
            catalog, frequencies, "reference", **kwargs)
        assert_bit_identical(fast, ref)
        assert fast_state == ref_state
        assert np.array_equal(fast_chain, ref_chain)
        return fast, ref

    @pytest.mark.parametrize("loss_good,loss_bad",
                             [(0.0, 1.0), (0.1, 0.9), (0.0, 0.5)])
    def test_loss_rates(self, preset_catalog, loss_good, loss_bad):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        self._agree(
            preset_catalog, plan.frequencies, seed=211,
            n_periods=6.0,
            plan_factory=lambda: FaultPlan.bursty(
                0.2, 0.5, loss_good=loss_good, loss_bad=loss_bad))

    def test_retries(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        self._agree(
            preset_catalog, plan.frequencies, seed=223,
            n_periods=5.0,
            plan_factory=lambda: FaultPlan.bursty(0.3, 0.4),
            retry_policy=RetryPolicy(max_retries=3))

    @pytest.mark.parametrize("budget_scale", [0.15, 0.6, 1.0])
    def test_tight_budgets_deny_identically(self, sized_catalog,
                                            budget_scale):
        plan = PerceivedFreshener().plan(sized_catalog, 6.0)
        budget = float(
            sized_catalog.sizes @ plan.frequencies) * budget_scale
        self._agree(
            sized_catalog, plan.frequencies, seed=227,
            n_periods=8.0, request_rate=30.0,
            plan_factory=lambda: FaultPlan.bursty(0.25, 0.5),
            retry_policy=RetryPolicy(max_retries=4),
            bandwidth_budget=budget)

    def test_fault_trace_identical(self, sized_catalog):
        plan = PerceivedFreshener().plan(sized_catalog, 6.0)
        fast, ref = self._agree(
            sized_catalog, plan.frequencies, seed=229,
            n_periods=4.0, request_rate=30.0,
            plan_factory=lambda: FaultPlan.bursty(
                0.3, 0.4, loss_good=0.2, loss_bad=0.95),
            retry_policy=RetryPolicy(max_retries=3),
            record_fault_trace=True)
        assert fast.fault_trace is not None
        assert fast.fault_trace == ref.fault_trace

    def test_no_retry_scan_path(self, preset_catalog):
        """An ample budget with no retries takes the segmented-scan
        route (denial-free, fixed two draws per sync)."""
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        self._agree(
            preset_catalog, plan.frequencies, seed=233,
            n_periods=7.25,
            plan_factory=lambda: FaultPlan.bursty(0.2, 0.5),
            bandwidth_budget=1e9)

    def test_fault_time_offset(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        self._agree(
            preset_catalog, plan.frequencies, seed=239,
            n_periods=3.0,
            plan_factory=lambda: FaultPlan.bursty(0.2, 0.5),
            retry_policy=RetryPolicy(max_retries=2),
            fault_time_offset=4.0)

    @pytest.mark.parametrize("n_periods", [0.75, 4.5])
    def test_partial_periods(self, preset_catalog, n_periods):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        self._agree(
            preset_catalog, plan.frequencies, seed=241,
            n_periods=n_periods,
            plan_factory=lambda: FaultPlan.bursty(0.35, 0.3))

    def test_sequential_runs_thread_chain_state(self,
                                                preset_catalog):
        """Two runs on one plan object: the second run must start
        from the first run's committed burst states, exactly like
        the reference channel's hidden per-element dict."""
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        self._agree(
            preset_catalog, plan.frequencies, seed=251,
            n_periods=3.0, runs=2,
            plan_factory=lambda: FaultPlan.bursty(0.3, 0.3))

    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_ge_catalogs_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, int(rng.integers(3, 40)),
                                 sized=bool(rng.integers(0, 2)))
        bandwidth = float(catalog.sizes.sum()
                          * rng.uniform(0.2, 2.0))
        plan = PerceivedFreshener().plan(catalog, bandwidth)
        planned = float(catalog.sizes @ plan.frequencies)
        budget = (planned * float(rng.uniform(0.2, 1.5))
                  if planned > 0.0 and rng.integers(0, 2) else None)
        retry = (RetryPolicy(max_retries=int(rng.integers(0, 5)))
                 if rng.integers(0, 2) else None)
        failure = (PollOutcome.TIMEOUT if rng.integers(0, 2)
                   else PollOutcome.ERROR)
        p_gb = float(rng.uniform(0.0, 1.0))
        p_bg = float(rng.uniform(0.0, 1.0))
        loss_good = float(rng.uniform(0.0, 0.5))
        loss_bad = float(rng.uniform(0.5, 1.0))
        self._agree(
            catalog, plan.frequencies, seed=seed,
            n_periods=float(rng.uniform(0.5, 9.0)),
            request_rate=float(rng.uniform(5.0, 120.0)),
            plan_factory=lambda: FaultPlan.bursty(
                p_gb, p_bg, loss_good=loss_good, loss_bad=loss_bad,
                failure=failure),
            retry_policy=retry, bandwidth_budget=budget,
            record_fault_trace=bool(rng.integers(0, 2)))


class TestWindowReplay:
    """Tiled window batching vs separate per-period runs."""

    @staticmethod
    def _run_periods(catalog, frequencies, *, n_windows, seed, plan,
                     retry, budget, first_global, engine):
        rng = np.random.default_rng(seed)
        fault_rng = (np.random.default_rng(seed + 1)
                     if plan is not None else None)
        results = []
        for j in range(n_windows):
            sim = Simulation(
                catalog, frequencies, request_rate=25.0, rng=rng,
                fault_plan=plan, retry_policy=retry,
                bandwidth_budget=budget, fault_rng=fault_rng,
                fault_time_offset=float(first_global - 1 + j))
            results.append(sim.run(1, engine=engine))
        return results

    @pytest.mark.parametrize("faulty,budget_scale", [
        (False, None), (True, None), (True, 0.5)])
    def test_window_matches_per_period_runs(self, sized_catalog,
                                            faulty, budget_scale):
        frequencies = np.array([4.0, 1.5, 0.0, 2.0, 3.0])
        plan = FaultPlan.iid(0.3) if faulty else None
        retry = RetryPolicy(max_retries=3) if faulty else None
        budget = (float(sized_catalog.sizes @ frequencies)
                  * budget_scale if budget_scale else None)
        reference = self._run_periods(
            sized_catalog, frequencies, n_windows=4, seed=131,
            plan=plan, retry=retry, budget=budget, first_global=2,
            engine="reference")
        rng = np.random.default_rng(131)
        fault_rng = (np.random.default_rng(132) if faulty else None)
        tapes = []
        fault_args = None
        for j in range(4):
            sim = Simulation(
                sized_catalog, frequencies, request_rate=25.0,
                rng=rng, fault_plan=plan, retry_policy=retry,
                bandwidth_budget=budget, fault_rng=fault_rng,
                fault_time_offset=float(1 + j))
            tapes.append(sim.build_tape(1))
            fault_args = sim.fault_kernel_args()
        windowed, consumed = replay_window_tapes(
            sized_catalog, frequencies, tapes, period_length=1.0,
            first_global_period=2, fault_args=fault_args)
        assert len(windowed) == 4
        assert len(consumed) == 4
        for ref, win in zip(reference, windowed):
            assert_bit_identical(win, ref)
        if not faulty:
            assert consumed == [0, 0, 0, 0]

    def test_ge_window_matches_per_period_runs(self, sized_catalog):
        """A GE plan batches through the window replay: one batched
        resolve against the threaded chain state must equal four
        per-period reference runs, stream position included."""
        frequencies = np.array([4.0, 1.5, 0.0, 2.0, 3.0])
        retry = RetryPolicy(max_retries=2)
        reference = self._run_periods(
            sized_catalog, frequencies, n_windows=4, seed=151,
            plan=FaultPlan.bursty(0.3, 0.4), retry=retry,
            budget=None, first_global=2, engine="reference")
        rng = np.random.default_rng(151)
        fault_rng = np.random.default_rng(152)
        plan = FaultPlan.bursty(0.3, 0.4)
        tapes = []
        fault_args = None
        for j in range(4):
            sim = Simulation(
                sized_catalog, frequencies, request_rate=25.0,
                rng=rng, fault_plan=plan, retry_policy=retry,
                fault_rng=fault_rng,
                fault_time_offset=float(1 + j))
            tapes.append(sim.build_tape(1))
            fault_args = sim.fault_kernel_args()
        assert fault_args is not None and \
            type(fault_args["model"]) is GilbertElliottFaultModel
        windowed, consumed = replay_window_tapes(
            sized_catalog, frequencies, tapes, period_length=1.0,
            first_global_period=2, fault_args=fault_args)
        assert len(windowed) == 4
        assert all(c > 0 for c in consumed)
        for ref, win in zip(reference, windowed):
            assert_bit_identical(win, ref)
        probe = np.random.default_rng(152)
        probe.random(int(sum(consumed)))
        assert (fault_rng.bit_generator.state["state"]
                == probe.bit_generator.state["state"])

    def test_interleaved_resolutions_shared_stream(self,
                                                   sized_catalog):
        """:func:`resolve_tape_faults` interleaved with tape
        building keeps a *shared* workload/fault stream
        bit-identical to per-period reference runs — the batched
        manager's shared-rng contract."""
        from repro.sim.fastpath import resolve_tape_faults
        frequencies = np.array([4.0, 1.5, 1.0, 2.0, 3.0])

        rng = np.random.default_rng(157)
        ref_plan = FaultPlan.bursty(0.3, 0.4)
        reference = []
        for j in range(3):
            sim = Simulation(sized_catalog, frequencies,
                             request_rate=25.0, rng=rng,
                             fault_plan=ref_plan,
                             fault_time_offset=float(j))
            reference.append(sim.run(1, engine="reference"))
        ref_state = rng.bit_generator.state

        rng = np.random.default_rng(157)
        plan = FaultPlan.bursty(0.3, 0.4)
        sizes = np.asarray(sized_catalog.sizes, dtype=float)
        tapes = []
        resolutions = []
        fault_args = None
        chain = None
        for j in range(3):
            sim = Simulation(sized_catalog, frequencies,
                             request_rate=25.0, rng=rng,
                             fault_plan=plan,
                             fault_time_offset=float(j))
            tapes.append(sim.build_tape(1))
            if fault_args is None:
                fault_args = sim.fault_kernel_args()
                chain = fault_args["model"].chain_states(
                    sized_catalog.n_elements)
            resolution, chain = resolve_tape_faults(
                tapes[-1], sizes, fault_args=fault_args,
                period_length=1.0, fault_clock_offset=float(j),
                initial_bad=chain)
            resolutions.append(resolution)
        windowed, _ = replay_window_tapes(
            sized_catalog, frequencies, tapes, period_length=1.0,
            first_global_period=1, fault_args=fault_args,
            resolutions=resolutions)
        for ref, win in zip(reference, windowed):
            assert_bit_identical(win, ref)
        assert rng.bit_generator.state == ref_state
        assert np.array_equal(
            chain, ref_plan.models[0].chain_states(
                sized_catalog.n_elements))

    def test_consumed_rewinds_fault_stream(self, sized_catalog):
        """Replaying ``consumed[:k]`` draws from the window-start
        state must land the fault rng exactly where k accepted
        periods left it — the rollback contract."""
        frequencies = np.array([4.0, 1.5, 1.0, 2.0, 3.0])
        plan = FaultPlan.iid(0.4)
        retry = RetryPolicy(max_retries=3)
        rng = np.random.default_rng(137)
        fault_rng = np.random.default_rng(138)
        start = fault_rng.bit_generator.state
        tapes = []
        fault_args = None
        for j in range(3):
            sim = Simulation(
                sized_catalog, frequencies, request_rate=25.0,
                rng=rng, fault_plan=plan, retry_policy=retry,
                fault_rng=fault_rng,
                fault_time_offset=float(j))
            tapes.append(sim.build_tape(1))
            fault_args = sim.fault_kernel_args()
        _, consumed = replay_window_tapes(
            sized_catalog, frequencies, tapes, period_length=1.0,
            first_global_period=1, fault_args=fault_args)
        # Accept two periods, roll back the third.
        fault_rng.bit_generator.state = start
        fault_rng.random(int(sum(consumed[:2])))
        partial = fault_rng.bit_generator.state["state"]
        # A fresh two-period run from the same start must agree.
        probe = np.random.default_rng(139)
        probe.bit_generator.state = start
        rng2 = np.random.default_rng(137)
        for j in range(2):
            sim = Simulation(
                sized_catalog, frequencies, request_rate=25.0,
                rng=rng2, fault_plan=plan, retry_policy=retry,
                fault_rng=probe, fault_time_offset=float(j))
            sim.run(1, engine="reference")
        assert probe.bit_generator.state["state"] == partial


class TestDegenerateTapes:
    """Tapes that leave the replay nothing to fold: a world with no
    events at all, and a sync-only world whose plan fails every
    attempt, so dropping the failed syncs empties each slab.  Every
    route — one-shot, one-period slabs, a window — must still match
    the reference loop bit for bit, ``sim.period`` series included."""

    N_PERIODS = 3

    @staticmethod
    def _world(world):
        catalog = Catalog(access_probabilities=np.full(6, 1 / 6),
                          change_rates=np.zeros(6),
                          sizes=np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0]))
        frequencies = (np.zeros(6) if world == "empty"
                       else np.array([2.0, 1.0, 0.0, 3.0, 1.0, 2.0]))
        return catalog, frequencies

    @staticmethod
    def _plan(mode):
        """A fresh plan per run: the GE chain state lives on it."""
        if mode == "quiet":
            return None
        if mode == "iid":
            return FaultPlan.iid(1.0)
        return FaultPlan.bursty(0.3, 0.4, loss_good=1.0, loss_bad=1.0)

    @staticmethod
    def _simulations(world, mode, n_runs):
        """``n_runs`` consecutive one-period simulations (or one
        whole-horizon simulation) sharing streams and a fresh plan."""
        catalog, frequencies = world
        rng = np.random.default_rng(41)
        fault_rng = np.random.default_rng(42)
        plan = TestDegenerateTapes._plan(mode)
        retry = RetryPolicy(max_retries=2) if plan is not None else None
        return [Simulation(catalog, frequencies, request_rate=1e-9,
                           rng=rng, fault_plan=plan, retry_policy=retry,
                           fault_rng=fault_rng,
                           fault_time_offset=float(j))
                for j in range(n_runs)]

    def _route(self, route, world, mode):
        if route == "window":
            sims = self._simulations(world, mode, self.N_PERIODS)
            tapes = [sim.build_tape(1) for sim in sims]
            results, _ = replay_window_tapes(
                *world, tapes, period_length=1.0,
                first_global_period=1,
                fault_args=sims[-1].fault_kernel_args())
            return results
        (sim,) = self._simulations(world, mode, 1)
        chunk = 1 if route == "chunk1" else None
        return [sim.run(self.N_PERIODS, engine="fastpath",
                        chunk_periods=chunk)]

    def _reference(self, route, world, mode):
        if route == "window":
            return [sim.run(1, engine="reference") for sim in
                    self._simulations(world, mode, self.N_PERIODS)]
        (sim,) = self._simulations(world, mode, 1)
        return [sim.run(self.N_PERIODS, engine="reference")]

    @staticmethod
    def _observed(run):
        with obs.telemetry() as registry:
            results = run()
        periods = [{k: v for k, v in record.items()
                    if k not in ("seq", "t")}
                   for record in registry.events_of_kind("sim.period")]
        return results, periods

    @pytest.mark.parametrize("mode", ["quiet", "iid", "ge"])
    @pytest.mark.parametrize("world", ["empty", "all_fail"])
    @pytest.mark.parametrize("route", ["oneshot", "chunk1", "window"])
    def test_route_matches_reference(self, route, world, mode):
        name, world = world, self._world(world)
        kernel, kernel_periods = self._observed(
            lambda: self._route(route, world, mode))
        reference, reference_periods = self._observed(
            lambda: self._reference(route, world, mode))
        assert len(kernel_periods) == self.N_PERIODS
        assert kernel_periods == reference_periods
        assert len(kernel) == len(reference)
        for fast, ref in zip(kernel, reference):
            assert_bit_identical(fast, ref)
            assert fast.n_updates == fast.n_accesses == 0
            if name == "empty" or mode != "quiet":
                assert fast.n_syncs == 0
            if name == "all_fail" and mode != "quiet":
                assert fast.failed_polls > 0


class TestTelemetryParity:
    """Both engines must emit the same telemetry: every non-span
    event (``sim.period``, ``monitor.close``), every counter but the
    ``sim.engine.*`` dispatch label, every gauge and the ledger."""

    @staticmethod
    def _faults(mode: str) -> dict:
        """A fresh kernel-eligible fault setup (Gilbert–Elliott models
        carry chain state, so each run needs its own): i.i.d. loss
        with retries against a budget tighter than the plan's spend
        (denials), and one Gilbert–Elliott channel on each resolver
        route — retry-free under an ample budget (the segmented scan)
        and with retries (the ledger walk)."""
        if mode == "iid":
            return dict(fault_plan=FaultPlan.iid(0.3),
                        retry_policy=RetryPolicy(max_retries=2),
                        bandwidth_budget=14.0)
        plan = FaultPlan.bursty(0.2, 0.4, loss_bad=0.9)
        if mode == "ge_scan":
            return dict(fault_plan=plan, bandwidth_budget=200.0)
        return dict(fault_plan=plan,
                    retry_policy=RetryPolicy(max_retries=2))

    @staticmethod
    def _tape(preset_catalog, engine: str, n_periods: float, **kwargs):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        with obs.telemetry() as registry:
            run_engine(preset_catalog, plan.frequencies, engine=engine,
                       seed=83, n_periods=n_periods, **kwargs)
        events = [{k: v for k, v in record.items()
                   if k not in ("seq", "t")}
                  for record in registry.events if record["kind"] != "span"]
        counters = dict(registry.counters)
        engines = {name: counters.pop(name) for name in list(counters)
                   if name.startswith("sim.engine.")}
        return (events, counters, dict(registry.gauges),
                registry.ledger, engines)

    def _assert_parity(self, preset_catalog, n_periods, label,
                       mode=None):
        def kwargs():
            return {} if mode is None else self._faults(mode)

        fast = self._tape(preset_catalog, "fastpath", n_periods,
                          **kwargs())
        reference = self._tape(preset_catalog, "reference", n_periods,
                               **kwargs())
        assert len(fast[0]) == int(np.ceil(n_periods)) + 1
        assert [event["kind"] for event in fast[0]][-1] == "monitor.close"
        for fast_part, reference_part in zip(fast[:4], reference[:4]):
            assert fast_part == reference_part
        # The dispatch-decision counters differ by design.
        assert fast[4] == {f"sim.engine.{label}": 1.0}
        assert reference[4] == {"sim.engine.reference": 1.0}
        return fast

    @pytest.mark.parametrize("n_periods", [6.0, 4.5])
    def test_period_series_match(self, preset_catalog, n_periods):
        self._assert_parity(preset_catalog, n_periods, "fastpath")

    @pytest.mark.parametrize("mode", ["iid", "ge_scan", "ge_walk"])
    def test_faulted_telemetry_matches(self, preset_catalog, mode,
                                       monkeypatch):
        import repro.sim.fastpath as fastpath

        scans = []
        scan = fastpath._ge_scan_states

        def counted_scan(*args, **kwargs):
            scans.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(fastpath, "_ge_scan_states", counted_scan)
        label = "fastpath_faulted" if mode == "iid" else "fastpath_ge"
        events, counters, _, _, _ = self._assert_parity(
            preset_catalog, 4.5, label, mode)
        # The kernel's Gilbert–Elliott resolver took the named route.
        assert bool(scans) == (mode == "ge_scan")
        assert sum(event.get("failed_polls", 0) for event in events) > 0
        if mode == "iid":
            assert counters.get("faults.denied_polls", 0.0) > 0
        if mode != "ge_scan":
            assert counters.get("faults.retries", 0.0) > 0


class TestLedgerParity:
    """The freshness ledger extends the bit-identity contract: both
    engines feed the same per-element refresh/stale folds — the
    reference loop one scalar event at a time, the kernels in bulk
    through ``np.bincount``/``np.maximum.at`` — and must land on
    *equal* ledgers, overflow bucket and timestamp offsets included."""

    @staticmethod
    def _ledger(preset_catalog, engine: str, **kwargs):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        with obs.telemetry() as registry:
            run_engine(preset_catalog, plan.frequencies, engine=engine,
                       seed=83, n_periods=5.0, **kwargs)
        return registry.ledger

    def test_quiet_engines_agree(self, preset_catalog):
        fast = self._ledger(preset_catalog, "fastpath")
        reference = self._ledger(preset_catalog, "reference")
        assert len(fast) > 0
        assert fast == reference

    def test_capped_labels_agree(self, preset_catalog, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_MAX_ELEMENTS", "10")
        obs.refresh_from_env()
        try:
            fast = self._ledger(preset_catalog, "fastpath")
            reference = self._ledger(preset_catalog, "reference")
        finally:
            monkeypatch.delenv("REPRO_TELEMETRY_MAX_ELEMENTS")
            obs.refresh_from_env()
        assert fast == reference
        assert "overflow" in fast.entries
        assert all(isinstance(label, str) or label < 10
                   for label in fast.entries)

    def test_faulted_engines_agree(self, preset_catalog):
        kwargs = dict(fault_plan=FaultPlan.iid(0.3),
                      retry_policy=RetryPolicy(max_retries=2))
        fast = self._ledger(preset_catalog, "fastpath", **kwargs)
        reference = self._ledger(preset_catalog, "reference", **kwargs)
        assert fast == reference
        # Faults delay refreshes, so some elements must be stale.
        assert any(entry.is_stale for entry in fast.entries.values())

    def test_fault_time_offset_shifts_ledger_times(
            self, preset_catalog):
        kwargs = dict(fault_plan=FaultPlan.iid(0.3),
                      retry_policy=RetryPolicy(max_retries=2))
        base = self._ledger(preset_catalog, "fastpath", **kwargs)
        shifted_fast = self._ledger(preset_catalog, "fastpath",
                                    fault_time_offset=3.0, **kwargs)
        shifted_ref = self._ledger(preset_catalog, "reference",
                                   fault_time_offset=3.0, **kwargs)
        assert shifted_fast == shifted_ref
        for label, entry in base.entries.items():
            if entry.refreshed_at is None:
                continue
            shifted = shifted_fast.entries[label]
            assert shifted.refreshed_at == pytest.approx(
                entry.refreshed_at + 3.0)

    def test_fastpath_counter_increments(self, preset_catalog):
        plan = PerceivedFreshener().plan(preset_catalog, 20.0)
        with obs.telemetry() as registry:
            run_engine(preset_catalog, plan.frequencies, engine="auto",
                       seed=89, n_periods=3.0)
        assert registry.counters.get("sim.engine.fastpath") == 1.0
        spans = [record["path"]
                 for record in registry.span_records()]
        assert "sim.run" in spans
