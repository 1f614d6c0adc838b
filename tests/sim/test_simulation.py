"""Integration tests: the full simulation against the analytic model.

The paper verifies every result with both evaluator modes — analytic
calculation and monitored measurement.  These tests reproduce that
verification: for optimal PF/GF schedules the simulated (monitored)
perceived freshness must match the closed form within sampling error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.freshener import GeneralFreshener, PerceivedFreshener
from repro.errors import ValidationError
from repro.sim.simulation import Simulation
from repro.workloads.catalog import Catalog
from repro.workloads.presets import ExperimentSetup, build_catalog


@pytest.fixture
def sim_catalog():
    setup = ExperimentSetup(n_objects=50, updates_per_period=100.0,
                            syncs_per_period=25.0, theta=1.0,
                            update_std_dev=1.0)
    return build_catalog(setup, alignment="shuffled", seed=2)


class TestSimulationMechanics:
    def test_budget_accounting(self, sim_catalog):
        plan = PerceivedFreshener().plan(sim_catalog, 25.0)
        sim = Simulation(sim_catalog, plan.frequencies,
                         request_rate=100.0,
                         rng=np.random.default_rng(0))
        result = sim.run(n_periods=8)
        # Syncs per period must match the planned budget.
        assert result.n_syncs / 8.0 == pytest.approx(25.0, rel=0.05)
        assert result.bandwidth_used / 8.0 == pytest.approx(25.0,
                                                            rel=0.05)

    def test_update_count_near_expectation(self, sim_catalog):
        plan = PerceivedFreshener().plan(sim_catalog, 25.0)
        sim = Simulation(sim_catalog, plan.frequencies,
                         request_rate=50.0,
                         rng=np.random.default_rng(1))
        result = sim.run(n_periods=10)
        expected = sim_catalog.change_rates.sum() * 10.0
        assert result.n_updates == pytest.approx(expected, rel=0.1)

    def test_deterministic_given_seed(self, sim_catalog):
        plan = PerceivedFreshener().plan(sim_catalog, 25.0)
        results = [
            Simulation(sim_catalog, plan.frequencies, request_rate=50.0,
                       rng=np.random.default_rng(3)).run(n_periods=3)
            for _ in range(2)
        ]
        assert results[0].n_updates == results[1].n_updates
        assert results[0].monitored_perceived_freshness == \
            results[1].monitored_perceived_freshness

    def test_rejects_bad_parameters(self, sim_catalog):
        plan = PerceivedFreshener().plan(sim_catalog, 25.0)
        with pytest.raises(ValidationError):
            Simulation(sim_catalog, plan.frequencies[:-1],
                       request_rate=50.0, rng=np.random.default_rng(0))
        with pytest.raises(ValidationError):
            Simulation(sim_catalog, plan.frequencies, request_rate=0.0,
                       rng=np.random.default_rng(0))
        sim = Simulation(sim_catalog, plan.frequencies,
                         request_rate=50.0,
                         rng=np.random.default_rng(0))
        with pytest.raises(ValidationError):
            sim.run(n_periods=0)

    def test_rejects_update_generator_without_draw_window(
            self, sim_catalog):
        """An update process offering only ``generate`` is refused at
        construction, before any draw, not mid-run."""
        plan = PerceivedFreshener().plan(sim_catalog, 25.0)

        class GenerateOnly:
            def generate(self, horizon):
                raise AssertionError("never drawn")

        with pytest.raises(ValidationError, match="draw_window"):
            Simulation(sim_catalog, plan.frequencies, request_rate=50.0,
                       rng=np.random.default_rng(0),
                       update_generator=GenerateOnly())

    def test_wasted_sync_fraction_in_range(self, sim_catalog):
        plan = PerceivedFreshener().plan(sim_catalog, 25.0)
        sim = Simulation(sim_catalog, plan.frequencies,
                         request_rate=50.0,
                         rng=np.random.default_rng(4))
        result = sim.run(n_periods=5)
        assert 0.0 <= result.wasted_sync_fraction <= 1.0


class TestMonitoredVsAnalytic:
    """The paper's two evaluator modes must agree."""

    def test_perceived_freshness_matches_closed_form(self, sim_catalog):
        plan = PerceivedFreshener().plan(sim_catalog, 25.0)
        sim = Simulation(sim_catalog, plan.frequencies,
                         request_rate=400.0,
                         rng=np.random.default_rng(7))
        result = sim.run(n_periods=40)
        analytic_pf, analytic_gf = result.analytic()
        assert result.monitored_time_perceived == pytest.approx(
            analytic_pf, abs=0.03)
        assert result.monitored_general_freshness == pytest.approx(
            analytic_gf, abs=0.03)
        assert result.monitored_perceived_freshness == pytest.approx(
            analytic_pf, abs=0.04)

    def test_gf_schedule_also_matches(self, sim_catalog):
        plan = GeneralFreshener().plan(sim_catalog, 25.0)
        sim = Simulation(sim_catalog, plan.frequencies,
                         request_rate=400.0,
                         rng=np.random.default_rng(8))
        result = sim.run(n_periods=40)
        analytic_pf, _ = result.analytic()
        assert result.monitored_time_perceived == pytest.approx(
            analytic_pf, abs=0.03)

    def test_pf_beats_gf_in_simulation(self, sim_catalog):
        """The headline claim holds under simulation, not just math."""
        seeds = np.random.default_rng(9)
        pf_plan = PerceivedFreshener().plan(sim_catalog, 25.0)
        gf_plan = GeneralFreshener().plan(sim_catalog, 25.0)
        pf_result = Simulation(sim_catalog, pf_plan.frequencies,
                               request_rate=300.0, rng=seeds).run(30)
        gf_result = Simulation(sim_catalog, gf_plan.frequencies,
                               request_rate=300.0, rng=seeds).run(30)
        assert pf_result.monitored_perceived_freshness > \
            gf_result.monitored_perceived_freshness

    def test_single_element_exact_rate(self):
        """F̄ = (f/λ)(1 − e^(−λ/f)) against a long single-element run."""
        catalog = Catalog(access_probabilities=np.array([1.0]),
                          change_rates=np.array([2.0]))
        sim = Simulation(catalog, np.array([2.0]), request_rate=50.0,
                         rng=np.random.default_rng(11))
        result = sim.run(n_periods=1500)
        expected = (1.0 - np.exp(-1.0))  # r = 1
        assert result.monitored_time_perceived == pytest.approx(
            expected, abs=0.02)

    def test_zero_schedule_all_stale_eventually(self):
        catalog = Catalog(access_probabilities=np.array([1.0]),
                          change_rates=np.array([10.0]))
        sim = Simulation(catalog, np.array([0.0]), request_rate=50.0,
                         rng=np.random.default_rng(12))
        result = sim.run(n_periods=50)
        # With rate 10/period and no syncs, staleness is near-total.
        assert result.monitored_time_perceived < 0.05
        assert result.n_syncs == 0
