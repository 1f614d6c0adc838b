"""Tests for repro.core.incremental — warm-started re-solving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.incremental import IncrementalSolver
from repro.core.solver import solve_core_problem
from repro.errors import InfeasibleProblemError
from repro.obs import registry as obs
from repro.workloads.presets import ExperimentSetup, build_catalog

from tests.conftest import random_catalog

SETUP = ExperimentSetup(n_objects=300, updates_per_period=600.0,
                        syncs_per_period=150.0, theta=1.0,
                        update_std_dev=1.0)


def perturb(catalog, rng, *, profile_noise=0.02, rate_noise=0.02):
    """A small drift of the catalog, like one adaptive period."""
    p = catalog.access_probabilities * rng.lognormal(
        0.0, profile_noise, size=catalog.n_elements)
    rates = catalog.change_rates * rng.lognormal(
        0.0, rate_noise, size=catalog.n_elements)
    return catalog.with_profile(p / p.sum()).with_change_rates(rates)


def warm_starts(registry) -> float:
    return registry.counters.get("waterfill.warm_starts", 0.0)


class TestIncrementalSolver:
    def test_first_solve_is_cold_and_exact(self):
        catalog = build_catalog(SETUP, seed=0)
        solver = IncrementalSolver()
        with obs.telemetry() as registry:
            first = solver.solve(catalog, SETUP.syncs_per_period)
        cold = solve_core_problem(catalog, SETUP.syncs_per_period)
        assert warm_starts(registry) == 0.0
        # With no guess the search is the cold one, bit for bit.
        assert np.array_equal(first.frequencies, cold.frequencies)
        assert first.multiplier == cold.multiplier

    def test_repeat_solve_hits_warm_path(self):
        catalog = build_catalog(SETUP, seed=0)
        solver = IncrementalSolver()
        solver.solve(catalog, SETUP.syncs_per_period)
        with obs.telemetry() as registry:
            solver.solve(catalog, SETUP.syncs_per_period)
        assert warm_starts(registry) == 1.0

    def test_warm_solution_matches_cold_under_drift(self):
        catalog = build_catalog(SETUP, seed=0)
        rng = np.random.default_rng(1)
        solver = IncrementalSolver()
        solver.solve(catalog, SETUP.syncs_per_period)
        with obs.telemetry() as registry:
            for _ in range(5):
                catalog = perturb(catalog, rng)
                warm = solver.solve(catalog, SETUP.syncs_per_period)
                cold = solve_core_problem(catalog,
                                          SETUP.syncs_per_period)
                assert warm.objective == pytest.approx(cold.objective,
                                                       abs=1e-8)
                assert np.allclose(warm.frequencies, cold.frequencies,
                                   atol=1e-5)
        assert warm_starts(registry) == 5.0

    def test_large_jump_falls_back_to_cold(self):
        """A 10x bandwidth change moves μ far from the guess; the
        search steps its bracket out to it and still lands on the cold
        plan."""
        catalog = build_catalog(SETUP, seed=0)
        solver = IncrementalSolver()
        solver.solve(catalog, SETUP.syncs_per_period)
        with obs.telemetry() as registry:
            solution = solver.solve(catalog,
                                    10.0 * SETUP.syncs_per_period)
        assert warm_starts(registry) == 1.0
        cold = solve_core_problem(catalog,
                                  10.0 * SETUP.syncs_per_period)
        assert np.allclose(solution.frequencies, cold.frequencies,
                           atol=1e-6)

    def test_rejects_bad_bandwidth(self, small_catalog):
        solver = IncrementalSolver()
        with pytest.raises(InfeasibleProblemError):
            solver.solve(small_catalog, 0.0)

    def test_all_static_catalog_cold_path(self):
        from repro.workloads.catalog import Catalog
        catalog = Catalog(access_probabilities=np.array([0.5, 0.5]),
                          change_rates=np.zeros(2))
        solver = IncrementalSolver()
        solution = solver.solve(catalog, 1.0)
        assert (solution.frequencies == 0.0).all()
        # μ is 0, so the next solve cannot warm-start; must still work.
        again = solver.solve(catalog, 1.0)
        assert (again.frequencies == 0.0).all()

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_warm_matches_cold_on_random_catalogs(self, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, 50)
        solver = IncrementalSolver()
        solver.solve(catalog, 20.0)
        drifted = perturb(catalog, rng, profile_noise=0.05,
                          rate_noise=0.05)
        warm = solver.solve(drifted, 20.0)
        cold = solve_core_problem(drifted, 20.0)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
