"""Equivalence suite: the vectorized routes vs the reference loop.

The fastpath's contract is **bit-identity**, not statistical
agreement.  Every case below names one world and one fault setup of
the differential harness (:mod:`tests.sim.differential`), which runs
every replay route that applies — auto one-shot, slab-fed streaming,
two chained runs, per-period windows, chunked runs — against its
oracle and compares results, telemetry, ledger, rng and chain states
bit for bit.  Seeded hypothesis sweeps over random catalogs guard the
corners no table row thought of.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.faults.model import FaultPlan, IIDFaultModel
from repro.faults.retry import RetryPolicy
from repro.runtime.manager import AdaptiveMirrorManager
from repro.sim.events import EventKind
from repro.sim.fastpath import ReplayCarry, _replay_tape_chunk
from repro.sim.simulation import Simulation, kernel_fault_model
from repro.workloads.catalog import Catalog

from tests.sim.differential import (
    SETUPS,
    WORLDS,
    check,
    runs,
    setup_kwargs,
    simulations,
    sweep,
)

SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)


class TestBitIdentity:
    """Fault-free worlds."""

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.6])
    def test_preset_catalogs(self, theta):
        check(f"theta{theta}", "none")

    @pytest.mark.parametrize("phase_policy", ["staggered", "zero"])
    def test_phase_policies(self, phase_policy):
        check(f"{phase_policy}_phase", "none")

    def test_variable_sizes(self):
        check("sized", "none")

    @pytest.mark.parametrize("n_periods", [0.75, 7.25, 1.0])
    def test_partial_final_periods(self, n_periods):
        check(f"h{n_periods}", "none")

    def test_non_unit_period_length(self):
        check("period2.5", "none")

    def test_bursty_updates(self):
        check("bursty", "none")

    def test_zero_frequency_elements_idle(self):
        check("idle_elements", "none")

    def test_quiet_fault_plan_stays_on_fastpath(self):
        check("h4.5", "quiet")


class TestWideCatalog:
    """A catalog past 2¹⁶ elements: ids with a nonzero high half."""

    @pytest.mark.parametrize("setup", ["none", "iid_dedicated", "ge_scan"])
    def test_routes_match_reference(self, setup):
        result = check("wide", setup, routes=("auto", "slab1")).results[0]
        high = slice(1 << 16, None)
        assert result.poll_counts[high].sum() > 0
        assert result.access_counts[high].sum() > 0


class TestCarryDtypes:
    """The carry's fold accumulators stay float64 whatever a slab
    holds: ``np.bincount`` without weights counts in int64."""

    def test_copy_stale_at_the_horizon(self):
        """A one-shot slab with no stale event, then a copy that ends
        stale: the flush adds its age trapezoid to the carry."""
        def simulation():
            return Simulation(Catalog([0.5, 0.5], [1.0, 1.0]),
                              np.array([0.2, 0.2]), request_rate=0.5,
                              rng=np.random.default_rng(0))
        want = simulation().run(1.0, engine="reference")
        got = simulation().run(1.0)
        assert want.element_time_age[0] > 0.0
        for name in ("element_time_age", "element_time_freshness"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()

    def test_sync_only_and_update_only_slabs(self):
        carry = ReplayCarry.start(2)
        sync, update = int(EventKind.SYNC), int(EventKind.UPDATE)
        # A sync (only fresh events), an update that finds its copy
        # fresh, then an update that finds it stale (only stale events).
        for time, element, kind in ((0.5, 0, sync), (0.6, 1, update),
                                    (0.7, 1, update)):
            syncs = np.arange(1 if kind == sync else 0)
            _replay_tape_chunk(
                carry, np.ones(2), np.array([time]),
                np.array([element], dtype=np.int32),
                np.array([kind], dtype=np.int8), failed=None,
                kept_syncs=syncs, tape_fresh=False)
            assert carry.fresh_time.dtype == np.float64
            assert carry.age_integral.dtype == np.float64
        assert carry.age_integral[1] > 0.0


class TestPropertyRandomCatalogs:
    @given(seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_random_catalogs_bit_identical(self, seed):
        sweep(seed, "quiet")


#: The original dispatch matrix's test ids → harness setup rows.
_DISPATCH_IDS = {
    "None": "none", "_quiet_plan": "quiet", "_iid_plan": "iid",
    "_iid_timeout_plan": "iid_timeout",
    "_iid_unreachable_plan": "iid_unreachable", "_ge_plan": "ge",
    "_ge_unreachable_plan": "ge_unreachable", "_latency_plan": "latency",
    "_outage_plan": "outage", "_multi_iid_plan": "multi_iid",
}
_LEGACY = {row: legacy for legacy, row in _DISPATCH_IDS.items()}


def _legacy(*names):
    return [pytest.param(name, id=_LEGACY[name]) for name in names]


def _rows(value):
    """Every setup row, under its original id where it has one."""
    return [pytest.param(name, id=f"{_LEGACY.get(name, name)}-"
                         f"{value(setup)}")
            for name, setup in SETUPS.items()]


class TestDispatch:
    @pytest.mark.parametrize(
        "name", [pytest.param(row, id=f"{legacy}-{SETUPS[row].label}")
                 for legacy, row in _DISPATCH_IDS.items()])
    def test_auto_dispatch_matrix(self, name):
        """auto routes each plan class to its engine (the harness
        asserts the ``sim.engine.*`` label on every run) and every
        route stays bit-identical to its oracle."""
        check("default", name)

    def test_gated_retry_policy_stays_reference(self):
        """A shared admission gate is cross-run stateful: even an
        otherwise kernel-eligible i.i.d. or GE plan must stay on the
        reference loop."""
        check("default", "gated_iid")
        check("default", "gated_ge")

    @pytest.mark.parametrize("name", _rows(lambda setup: setup.kernel))
    def test_forced_fastpath_accepts_or_rejects(self, name):
        """engine='fastpath' runs exactly the kernel-eligible setups
        and raises for the others instead of silently falling back."""
        setup = SETUPS[name]
        sim = simulations(WORLDS["default"], setup)[0]
        if setup.kernel:
            sim.run(n_periods=2.0, engine="fastpath")
        else:
            assert sim.fault_kernel_args() is None
            with pytest.raises(ValidationError):
                sim.run(n_periods=2.0, engine="fastpath")

    @pytest.mark.parametrize("name", _rows(lambda setup: setup.kernel))
    def test_manager_batches_exactly_the_kernel_plans(self, name):
        """The adaptive manager's kernel route takes exactly the
        setups auto dispatch sends to the kernel."""
        manager = AdaptiveMirrorManager(
            WORLDS["default"].built[0], 20.0, request_rate=40.0,
            rng=np.random.default_rng(0), **setup_kwargs(SETUPS[name]))
        assert manager._batchable() is SETUPS[name].kernel

    def test_auto_iid_exercises_faults(self):
        assert check("h7.25", "iid").total("failed_polls") > 0

    def test_unknown_engine_rejected(self):
        sim = simulations(WORLDS["default"], SETUPS["none"])[0]
        with pytest.raises(ValidationError):
            sim.run(n_periods=2.0, engine="turbo")


class _SubclassedIIDFaultModel(IIDFaultModel):
    """Same draws as its parent, but the kernel only trusts the exact
    type: an override could change the per-attempt draw shape."""


class TestKernelFaultModel:
    """``kernel_fault_model`` is the one kernel-eligibility decision."""

    @pytest.mark.parametrize("name", _legacy("iid", "iid_timeout", "ge"))
    def test_single_retryable_model_is_returned(self, name):
        plan = SETUPS[name].plan()
        assert kernel_fault_model(plan, RetryPolicy(max_retries=2),
                                  None, None) is plan.models[0]

    @pytest.mark.parametrize("plan", [
        None,
        FaultPlan.quiet(),
        FaultPlan(models=(_SubclassedIIDFaultModel(0.3),)),
        *(SETUPS[name].plan() for name in (
            "iid_unreachable", "ge_unreachable", "outage", "multi_iid",
            "latency")),
    ])
    def test_reference_only_plans_are_refused(self, plan):
        assert kernel_fault_model(plan, None, None, None) is None

    @pytest.mark.parametrize("name", _legacy("iid", "ge"))
    def test_channel_state_refuses_an_eligible_plan(self, name):
        """A breaker, a relay topology or a shared admission gate
        makes attempts stateful, whatever the plan."""
        from repro.faults.breaker import CircuitBreaker
        from repro.faults.retry import RetryAdmissionGate
        from repro.faults.topology import Topology
        plan = SETUPS[name].plan
        gated = RetryPolicy(max_retries=2, admission_gate=(
            RetryAdmissionGate(capacity=4.0, refill_rate=2.0)))
        assert kernel_fault_model(plan(), None, CircuitBreaker(2),
                                  None) is None
        assert kernel_fault_model(plan(), None, None,
                                  Topology.build(8)) is None
        assert kernel_fault_model(plan(), gated, None, None) is None


class TestFaultedBitIdentity:
    """i.i.d. loss setups."""

    @pytest.mark.parametrize("probability", [0.0, 0.3, 1.0])
    def test_loss_rates(self, probability):
        check("default", f"iid_loss{probability}")

    def test_dedicated_fault_rng(self):
        check("default", "iid_dedicated")

    @pytest.mark.parametrize("budget_scale", [0.15, 0.6, 1.0])
    def test_tight_budgets_deny_identically(self, budget_scale):
        reference = check("sized", f"iid_budget{budget_scale}")
        if budget_scale < 1.0:
            assert reference.total("denied_polls") > 0

    def test_fault_trace_identical(self):
        assert check("sized", "iid_trace").results[0].fault_trace

    def test_no_retry_policy(self):
        check("h4.5", "iid")

    def test_fault_time_offset(self):
        check("offset4", "iid_timeout")

    @given(seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_random_faulted_catalogs_bit_identical(self, seed):
        sweep(seed, "iid")


class TestGEBitIdentity:
    """Gilbert–Elliott setups: besides results and fault trace, the
    hidden chain states and the post-run fault-rng position must equal
    the reference channel's."""

    @pytest.mark.parametrize("loss_good,loss_bad",
                             [(0.0, 1.0), (0.1, 0.9), (0.0, 0.5)])
    def test_loss_rates(self, loss_good, loss_bad):
        check("default", f"ge_loss{loss_good}-{loss_bad}")

    def test_retries(self):
        assert check("default", "ge_walk").total("retries") > 0

    @pytest.mark.parametrize("budget_scale", [0.15, 0.6, 1.0])
    def test_tight_budgets_deny_identically(self, budget_scale):
        check("sized", f"ge_budget{budget_scale}")

    def test_fault_trace_identical(self):
        assert check("sized", "ge_trace").results[0].fault_trace

    def test_no_retry_scan_path(self):
        check("h7.25", "ge_scan")

    def test_fault_time_offset(self):
        check("offset4", "ge_walk")

    @pytest.mark.parametrize("n_periods", [0.75, 4.5])
    def test_partial_periods(self, n_periods):
        check(f"h{n_periods}", "ge_shared")

    def test_sequential_runs_thread_chain_state(self):
        """Two runs on one plan object: the second run starts from
        the first run's committed burst states (the ``chained``
        route), as the reference channel's hidden per-element dict
        does."""
        check("default", "ge_loss0.1-0.9", routes=("chained",))

    @given(seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_random_ge_catalogs_bit_identical(self, seed):
        sweep(seed, "ge")


class TestWindowReplay:
    """Per-period window replay vs separate per-period runs, faults
    resolved inside the window; the ``consumed`` counts must rewind
    the fault rng to each accepted prefix."""

    @pytest.mark.parametrize("faulty,budget_scale", [
        (False, None), (True, None), (True, 0.5)])
    def test_window_matches_per_period_runs(self, faulty,
                                            budget_scale):
        setup = SETUPS["iid_loss0.3" if faulty else "none"]
        if budget_scale is not None:
            setup = dataclasses.replace(setup, budget=budget_scale)
        check("sized", setup, routes=("window",))

    def test_ge_window_matches_per_period_runs(self):
        check("sized", "ge_walk", routes=("window",))

    def test_consumed_rewinds_fault_stream(self):
        check("cap10", "iid_dedicated", routes=("window",))


class TestDegenerateTapes:
    """Tapes that leave the replay nothing to fold: a world with no
    events at all, and a sync-only world whose plan fails every
    attempt, so dropping the failed syncs empties each slab."""

    _ROUTES = {"oneshot": ("auto", "slab1", "chained"),
               "chunk1": ("chunk1_reference",),
               "window": ("window",)}
    _SETUPS = {"quiet": "none", "iid": "iid_loss1.0", "ge": "ge_fail"}

    @pytest.mark.parametrize("mode", ["quiet", "iid", "ge"])
    @pytest.mark.parametrize("world", ["empty", "all_fail"])
    @pytest.mark.parametrize("route", ["oneshot", "chunk1", "window"])
    def test_route_matches_reference(self, route, world, mode):
        reference = check(world, self._SETUPS[mode], self._ROUTES[route])
        assert reference.total("n_updates") == 0
        assert reference.total("n_accesses") == 0
        if world == "empty" or mode != "quiet":
            assert reference.total("n_syncs") == 0
        if world == "all_fail" and mode != "quiet":
            assert reference.total("failed_polls") > 0


class TestTelemetryParity:
    """Both engines emit the same telemetry; the harness compares it
    on every route.  These rows pin the setups whose counters must
    show the fault machinery at work."""

    @pytest.mark.parametrize("n_periods", [6.0, 4.5])
    def test_period_series_match(self, n_periods):
        check(f"h{n_periods}", "none")

    @pytest.mark.parametrize("mode", ["iid", "ge_scan", "ge_walk"])
    def test_faulted_telemetry_matches(self, mode):
        setup = SETUPS[mode]
        if mode == "iid":
            setup = dataclasses.replace(SETUPS["iid_dedicated"],
                                        budget=0.7)
        counters = check("h4.5", setup).counters
        assert counters.get("faults.error", 0.0) > 0
        if mode == "iid":
            assert counters.get("faults.denied_polls", 0.0) > 0
        if mode != "ge_scan":
            assert counters.get("faults.retries", 0.0) > 0


class TestLedgerParity:
    """The freshness ledger extends the bit-identity contract; the
    harness compares it (with ``==``) on every route."""

    def test_quiet_engines_agree(self):
        assert check("default", "none").ledger

    def test_capped_labels_agree(self):
        ledger = check("cap10", "none").ledger
        assert "overflow" in ledger.entries
        assert all(isinstance(label, str) or label < 10
                   for label in ledger.entries)

    def test_faulted_engines_agree(self):
        ledger = check("h7.25", "iid_dedicated").ledger
        # Faults delay refreshes, so some elements must be stale.
        assert any(entry.is_stale for entry in ledger.entries.values())

    def test_fault_time_offset_shifts_ledger_times(self):
        world = WORLDS["h4.5"]
        base = check(world, "iid_dedicated", routes=("auto",)).ledger
        shifted = check(dataclasses.replace(world, offset=3.0),
                        "iid_dedicated", routes=("auto",)).ledger
        for label, entry in base.entries.items():
            if entry.refreshed_at is None:
                continue
            assert shifted.entries[label].refreshed_at == pytest.approx(
                entry.refreshed_at + 3.0)

    def test_fastpath_counter_increments(self):
        """One auto run records its engine label once (the harness
        asserts it); the ``sim.run`` span is pinned in
        ``tests/obs/test_instrumentation.py``."""
        assert runs(WORLDS["h1.0"], SETUPS["none"]).engines == {
            "sim.engine.fastpath": 1.0}
