"""Tests for repro.core.solver — the exact Core-Problem solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freshness import PoissonSyncPolicy
from repro.core.solver import (
    kkt_residual,
    solve_core_problem,
    solve_weighted_problem,
)
from repro.errors import InfeasibleProblemError, ValidationError
from repro.workloads.catalog import Catalog
from repro.workloads.presets import TOY_BANDWIDTH, toy_example_catalog

from tests.conftest import random_catalog


class TestTable1Reproduction:
    """The paper's Table 1, digit for digit (to its 2-decimal print)."""

    def test_uniform_profile_p1(self):
        solution = solve_core_problem(toy_example_catalog("P1"),
                                      TOY_BANDWIDTH)
        assert np.round(solution.frequencies, 2).tolist() == [
            1.15, 1.36, 1.35, 1.14, 0.00]

    def test_hottest_change_most_p2(self):
        solution = solve_core_problem(toy_example_catalog("P2"),
                                      TOY_BANDWIDTH)
        assert np.round(solution.frequencies, 2).tolist() == [
            0.33, 0.67, 1.00, 1.33, 1.67]

    def test_hottest_change_least_p3(self):
        solution = solve_core_problem(toy_example_catalog("P3"),
                                      TOY_BANDWIDTH)
        # Paper prints 1.68 1.83 1.49 0.00 0.00; first entry rounds to
        # 1.69 at our tighter convergence — match to the paper's
        # precision.
        assert solution.frequencies == pytest.approx(
            [1.685, 1.83, 1.49, 0.0, 0.0], abs=0.01)

    def test_p2_gives_volatile_element_the_most_bandwidth(self):
        solution = solve_core_problem(toy_example_catalog("P2"),
                                      TOY_BANDWIDTH)
        assert solution.frequencies.argmax() == 4

    def test_budget_exactly_spent(self):
        for profile in ("P1", "P2", "P3"):
            solution = solve_core_problem(toy_example_catalog(profile),
                                          TOY_BANDWIDTH)
            assert solution.bandwidth == pytest.approx(TOY_BANDWIDTH,
                                                       rel=1e-9)


class TestSolverStructure:
    def test_zero_weight_element_gets_nothing(self):
        solution = solve_weighted_problem(
            np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.ones(2), 2.0)
        assert solution.frequencies[0] == 0.0
        assert solution.frequencies[1] == pytest.approx(2.0)

    def test_static_element_gets_nothing(self):
        solution = solve_weighted_problem(
            np.array([0.5, 0.5]), np.array([0.0, 1.0]), np.ones(2), 2.0)
        assert solution.frequencies[0] == 0.0

    def test_all_static_catalog_returns_zero_schedule(self):
        catalog = Catalog(access_probabilities=np.array([0.5, 0.5]),
                          change_rates=np.zeros(2))
        solution = solve_core_problem(catalog, 5.0)
        assert (solution.frequencies == 0.0).all()
        assert solution.objective == pytest.approx(1.0)  # always fresh
        assert solution.bandwidth == 0.0

    def test_identical_elements_get_identical_frequencies(self):
        solution = solve_weighted_problem(
            np.full(4, 0.25), np.full(4, 2.0), np.ones(4), 8.0)
        assert np.allclose(solution.frequencies,
                           solution.frequencies[0])

    def test_higher_interest_gets_more_bandwidth_at_equal_rate(self):
        solution = solve_weighted_problem(
            np.array([0.7, 0.3]), np.array([2.0, 2.0]), np.ones(2), 2.0)
        assert solution.frequencies[0] > solution.frequencies[1]

    def test_objective_monotone_in_bandwidth(self, small_catalog):
        low = solve_core_problem(small_catalog, 1.0)
        high = solve_core_problem(small_catalog, 4.0)
        assert high.objective > low.objective

    def test_equation6_locus(self, small_catalog):
        """Paper Equation 6: active elements share one marginal value."""
        solution = solve_core_problem(small_catalog, 3.0)
        residual = kkt_residual(solution,
                                small_catalog.access_probabilities,
                                small_catalog.change_rates,
                                small_catalog.sizes)
        assert residual < 1e-6

    def test_rejects_nonpositive_bandwidth(self, small_catalog):
        with pytest.raises(InfeasibleProblemError):
            solve_core_problem(small_catalog, 0.0)
        with pytest.raises(InfeasibleProblemError):
            solve_core_problem(small_catalog, -1.0)

    def test_rejects_malformed_inputs(self):
        with pytest.raises(ValidationError):
            solve_weighted_problem(np.array([1.0]), np.array([1.0, 2.0]),
                                   np.ones(2), 1.0)
        with pytest.raises(ValidationError):
            solve_weighted_problem(np.array([-1.0]), np.array([1.0]),
                                   np.ones(1), 1.0)
        with pytest.raises(ValidationError):
            solve_weighted_problem(np.array([1.0]), np.array([-1.0]),
                                   np.ones(1), 1.0)
        with pytest.raises(ValidationError):
            solve_weighted_problem(np.array([1.0]), np.array([1.0]),
                                   np.zeros(1), 1.0)

    def test_solution_scale_invariant_in_weights(self, small_catalog):
        p = small_catalog.access_probabilities
        lam = small_catalog.change_rates
        one = solve_weighted_problem(p, lam, np.ones(5), 3.0)
        scaled = solve_weighted_problem(10.0 * p, lam, np.ones(5), 3.0)
        assert np.allclose(one.frequencies, scaled.frequencies,
                           atol=1e-8)


class TestSolverProperties:
    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.5, max_value=200.0),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kkt_residual_small_on_random_catalogs(self, n, bandwidth,
                                                   seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, n)
        solution = solve_core_problem(catalog, bandwidth)
        assert solution.bandwidth == pytest.approx(bandwidth, rel=1e-6)
        assert (solution.frequencies >= 0.0).all()
        residual = kkt_residual(solution, catalog.access_probabilities,
                                catalog.change_rates, catalog.sizes)
        scale = (catalog.access_probabilities
                 / catalog.change_rates).max()
        assert residual < 1e-5 * scale + 1e-9

    @given(st.integers(min_value=2, max_value=30),
           st.floats(min_value=1.0, max_value=50.0),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sized_problem_kkt(self, n, bandwidth, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, n, sized=True)
        solution = solve_core_problem(catalog, bandwidth)
        assert float(catalog.sizes @ solution.frequencies) == \
            pytest.approx(bandwidth, rel=1e-6)
        residual = kkt_residual(solution, catalog.access_probabilities,
                                catalog.change_rates, catalog.sizes)
        scale = (catalog.access_probabilities
                 / (catalog.change_rates * catalog.sizes)).max()
        assert residual < 1e-5 * scale + 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_optimal_beats_uniform_allocation(self, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, 20)
        bandwidth = 10.0
        solution = solve_core_problem(catalog, bandwidth)
        from repro.core.metrics import perceived_freshness
        uniform = np.full(20, bandwidth / 20.0)
        assert solution.objective >= perceived_freshness(
            catalog, uniform) - 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_poisson_policy_solutions_feasible_and_stationary(self, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, 15)
        model = PoissonSyncPolicy()
        solution = solve_core_problem(catalog, 7.5, model=model)
        assert solution.bandwidth == pytest.approx(7.5, rel=1e-6)
        residual = kkt_residual(solution, catalog.access_probabilities,
                                catalog.change_rates, catalog.sizes,
                                model=model)
        assert residual < 1e-6


def _mu_max(catalog: Catalog) -> float:
    """The solver's cold start: the largest zero-frequency ceiling."""
    from repro.core.freshness import FixedOrderPolicy

    rates = catalog.change_rates
    ceilings = (catalog.access_probabilities
                * FixedOrderPolicy().derivative(rates, np.zeros_like(rates))
                / catalog.sizes)
    return float(ceilings.max())


class TestWarmStart:
    """A guess moves where the multiplier search starts, not its answer."""

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.5, max_value=200.0),
           st.booleans(),
           st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.one_of(st.integers(min_value=-6, max_value=6),
                     st.sampled_from(["none", "zero", "negative",
                                      "mu_max", "above", "inf", "nan"])))
    @settings(max_examples=120, deadline=None)
    def test_any_guess_meets_the_budget_and_the_cold_plan(
            self, n, bandwidth, sized, seed, where):
        catalog = random_catalog(np.random.default_rng(seed), n,
                                 sized=sized)
        cold = solve_core_problem(catalog, bandwidth)
        mu_max = _mu_max(catalog)
        guess = (cold.multiplier * 10.0 ** where
                 if isinstance(where, int) else
                 {"none": None, "zero": 0.0,
                  "negative": -cold.multiplier,
                  "mu_max": mu_max, "above": 3.0 * mu_max,
                  "inf": float("inf"), "nan": float("nan")}[where])
        warm = solve_core_problem(catalog, bandwidth, guess=guess)
        if not isinstance(where, int):
            # No guess, or one outside (0, μ_max): the cold search.
            assert np.array_equal(warm.frequencies, cold.frequencies)
            assert warm.iterations == cold.iterations
        assert float(catalog.sizes @ warm.frequencies) == pytest.approx(
            bandwidth, rel=1e-9)
        assert warm.multiplier == pytest.approx(cold.multiplier,
                                                rel=1e-9)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        np.testing.assert_allclose(
            warm.frequencies, cold.frequencies, rtol=1e-9,
            atol=1e-9 * float(cold.frequencies.max()))
