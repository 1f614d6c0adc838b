"""Exact solver for the Core Problem (paper §2.2 and Appendix).

The Core Problem is

    max  Σᵢ wᵢ · F̄(λᵢ, fᵢ)    s.t.  Σᵢ cᵢ·fᵢ = B,  fᵢ ≥ 0

where ``wᵢ`` is the objective weight (the access probability pᵢ for
Perceived Freshening, 1/N for General Freshening, or nₖ·p̄ₖ for the
transformed partition problem) and ``cᵢ`` the per-sync bandwidth cost
(the object size sᵢ, or nₖ·s̄ₖ for partitions).

Because every F̄ is strictly concave and increasing in f, the KKT
conditions (the paper's Equations 5/6) characterize the optimum: a
single multiplier μ with

    (wᵢ/cᵢ)·∂F̄/∂f(λᵢ, fᵢ) = μ   if fᵢ > 0,
    (wᵢ/cᵢ)·∂F̄/∂f(λᵢ, 0⁺) ≤ μ   if fᵢ = 0.

The paper solved this with a generic NLP package and reports it
intractable beyond ~10³ elements; this module instead exploits the
separable structure — an exact water-filling search on μ (Illinois
regula falsi) with a vectorized per-element marginal inversion — and
solves 500 000-element instances in well under a second.  It is used
both directly (the "best_case"/ideal curves) and as the optimization
step of every heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.contracts import (
    check_budget_feasible,
    check_kkt_stationarity,
    check_nonnegative,
    check_simplex,
    postcondition,
)
from repro.core.freshness import FixedOrderPolicy, FreshnessModel
from repro.errors import InfeasibleProblemError, ValidationError
from repro.numerics.waterfill import BUDGET_RTOL, waterfill
from repro.obs import registry as obs
from repro.workloads.catalog import Catalog

__all__ = ["ScheduleSolution", "solve_core_problem", "solve_weighted_problem",
           "kkt_residual"]

_DEFAULT_MODEL = FixedOrderPolicy()


@dataclass(frozen=True)
class ScheduleSolution:
    """An optimal (or heuristic) bandwidth allocation.

    Attributes:
        frequencies: Sync frequency per element, ``f ≥ 0``.
        multiplier: The KKT multiplier μ at the solution (0 when the
            problem was degenerate and nothing was allocated).
        bandwidth: Total bandwidth consumed, ``Σ cᵢ·fᵢ``.
        objective: Objective value ``Σ wᵢ·F̄(λᵢ, fᵢ)``.
        iterations: Outer regula falsi iterations used.
    """

    frequencies: np.ndarray
    multiplier: float
    bandwidth: float
    objective: float
    iterations: int


def _check_weighted_solution(solution: "ScheduleSolution",
                             arguments: Mapping[str, object]) -> None:
    """Postcondition: the paper's feasibility + stationarity invariants."""
    where = "solve_weighted_problem"
    costs = np.asarray(arguments["costs"], dtype=float)
    bandwidth = float(arguments["bandwidth"])  # type: ignore[arg-type]
    model = arguments.get("model")
    check_nonnegative(solution.frequencies, name="frequencies",
                      where=where)
    check_budget_feasible(costs, solution.frequencies, bandwidth,
                          where=where)
    residual = kkt_residual(solution, np.asarray(arguments["weights"]),
                            np.asarray(arguments["change_rates"]),
                            costs,
                            model=model if isinstance(model,
                                                      FreshnessModel)
                            else None)
    check_kkt_stationarity(residual, solution.multiplier, where=where)


@postcondition(_check_weighted_solution)
def solve_weighted_problem(weights: np.ndarray, change_rates: np.ndarray,
                           costs: np.ndarray, bandwidth: float, *,
                           model: FreshnessModel | None = None,
                           guess: float | None = None,
                           ) -> ScheduleSolution:
    """Solve ``max Σ wᵢ·F̄(λᵢ, fᵢ)`` s.t. ``Σ cᵢ·fᵢ = B``, ``f ≥ 0``.

    Args:
        weights: Nonnegative objective weights ``w``.
        change_rates: Poisson change rates ``λ ≥ 0``, in changes per
            period.
        costs: Strictly positive bandwidth cost per sync, in size
            units.
        bandwidth: Budget ``B > 0``, in size units per period.
        model: Freshness model (Fixed-Order by default).
        guess: Optional multiplier to start the search from, such as
            a neighbouring solve's μ (see
            :func:`~repro.numerics.waterfill.waterfill`); any value
            is safe, and None solves cold.

    Returns:
        The optimal :class:`ScheduleSolution`.  Elements with zero
        weight or zero change rate receive zero frequency (syncing
        them cannot raise the objective).

    Raises:
        InfeasibleProblemError: If the budget is not positive.
        ValidationError: On malformed inputs.
    """
    with obs.span("solver.solve_weighted"):
        solution = _solve_weighted(weights, change_rates, costs,
                                   bandwidth, model=model, guess=guess)
    if obs.telemetry_enabled():
        _record_solver_telemetry(solution, weights, change_rates, costs,
                                 model)
    return solution


def _record_solver_telemetry(solution: ScheduleSolution,
                             weights: np.ndarray,
                             change_rates: np.ndarray, costs: np.ndarray,
                             model: FreshnessModel | None) -> None:
    """Record one solve outcome (μ, iterations, KKT residual).

    The KKT residual is recomputed here — one vectorized derivative
    pass — so it is only paid while telemetry is on.  All quantities
    are per period / dimensionless, matching the solver's units.
    """
    residual = kkt_residual(solution, weights, change_rates, costs,
                            model=model)
    obs.counter_add("solver.calls")
    obs.counter_add("solver.iterations", solution.iterations)
    obs.observe("solver.iterations", solution.iterations)
    obs.gauge_set("solver.multiplier", solution.multiplier)
    obs.gauge_set("solver.kkt_residual", residual)
    obs.gauge_set("solver.objective", solution.objective)
    obs.event("solver.solve",
              n_elements=int(np.asarray(weights).shape[0]),
              iterations=solution.iterations,
              multiplier=solution.multiplier,
              bandwidth=solution.bandwidth,
              objective=solution.objective,
              kkt_residual=residual)


def _solve_weighted(weights: np.ndarray, change_rates: np.ndarray,
                    costs: np.ndarray, bandwidth: float, *,
                    model: FreshnessModel | None,
                    guess: float | None,
                    ) -> ScheduleSolution:
    """The undecorated solve (see :func:`solve_weighted_problem`)."""
    weights = np.asarray(weights, dtype=float)
    change_rates = np.asarray(change_rates, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if not (weights.shape == change_rates.shape == costs.shape):
        raise ValidationError(
            "weights, change_rates and costs must have matching shapes, "
            f"got {weights.shape}, {change_rates.shape}, {costs.shape}")
    if weights.ndim != 1:
        raise ValidationError("solver inputs must be 1-D")
    if (weights < 0.0).any():
        raise ValidationError("weights must be nonnegative")
    if (change_rates < 0.0).any():
        raise ValidationError("change rates must be nonnegative")
    if (costs <= 0.0).any():
        raise ValidationError("costs must be strictly positive")
    if bandwidth <= 0.0:
        raise InfeasibleProblemError(
            f"bandwidth must be positive, got {bandwidth!r}")

    chosen = model if model is not None else _DEFAULT_MODEL
    frequencies = np.zeros_like(weights)

    # Only elements that are both interesting (w > 0) and volatile
    # (λ > 0) can benefit from bandwidth.
    live = (weights > 0.0) & (change_rates > 0.0)
    if not live.any():
        objective = float(weights @ chosen.freshness(change_rates,
                                                     frequencies))
        return ScheduleSolution(frequencies=frequencies, multiplier=0.0,
                                bandwidth=0.0, objective=objective,
                                iterations=0)

    w = weights[live]
    lam = change_rates[live]
    c = costs[live]

    # Marginal objective per unit *bandwidth* at f→0⁺ is
    # (w/c)·∂F̄/∂f(λ, 0⁺); μ above the max of these allocates nothing.
    zero_marginals = chosen.derivative(lam, np.zeros_like(lam))
    ceilings = w * zero_marginals / c
    mu_max = float(ceilings.max())

    def allocate_at(mu: float) -> tuple[np.ndarray, float]:
        active = ceilings > mu
        freqs = np.zeros_like(w)
        if active.any():
            marginal_targets = mu * c[active] / w[active]
            freqs[active] = chosen.frequency_for_marginal(lam[active],
                                                          marginal_targets)
        return freqs, float(c @ freqs)

    result = waterfill(allocate_at, bandwidth, mu_max, snap=False,
                       guess=guess)
    live_freqs = result.allocations.copy()
    mu = result.multiplier
    if mu > 0.0 and abs(result.cost - bandwidth) > BUDGET_RTOL * bandwidth:
        # Degenerate optimum: μ sits on an element's activation
        # ceiling, where the inverted frequency jumps (at float
        # resolution of the marginal kernel) between ~λ/40 and 0, so
        # the search cannot meet the budget.  The KKT-correct
        # resolution: elements *at* the ceiling absorb exactly the
        # leftover bandwidth — their marginal stays ≈ μ for any small
        # frequency.
        threshold = np.abs(ceilings - mu) <= 1e-6 * mu
        if threshold.any():
            obs.counter_add("solver.threshold_degeneracies")
            live_freqs[threshold] = 0.0
            gap = bandwidth - float(c @ live_freqs)
            if gap > 0.0:
                indices = np.flatnonzero(threshold)
                live_freqs[indices] = (gap / indices.size) / c[indices]
    # Snap exactly onto the budget (a no-op up to rounding).
    cost = float(c @ live_freqs)
    if cost > 0.0:
        live_freqs *= bandwidth / cost
    frequencies[live] = live_freqs
    objective = float(weights @ chosen.freshness(change_rates, frequencies))
    return ScheduleSolution(frequencies=frequencies,
                            multiplier=result.multiplier,
                            bandwidth=float(costs @ frequencies),
                            objective=objective,
                            iterations=result.iterations)


def _check_core_inputs(solution: "ScheduleSolution",
                       arguments: Mapping[str, object]) -> None:
    """Postcondition: the catalog's profile is simplex-valid.

    Feasibility and stationarity of ``solution`` are already checked
    by the inner :func:`solve_weighted_problem` contract; this adds
    the access-profile invariant Definition 4 relies on (Σp = 1 makes
    perceived freshness a true expectation).
    """
    catalog: Catalog = arguments["catalog"]  # type: ignore[assignment]
    check_simplex(catalog.access_probabilities,
                  where="solve_core_problem")


@postcondition(_check_core_inputs)
def solve_core_problem(catalog: Catalog, bandwidth: float, *,
                       model: FreshnessModel | None = None,
                       guess: float | None = None
                       ) -> ScheduleSolution:
    """Optimal Perceived-Freshening schedule for a catalog.

    Maximizes ``Σ pᵢ·F̄(λᵢ, fᵢ)`` subject to ``Σ sᵢ·fᵢ = B`` — the
    paper's Core Problem (equations 1–2), or its variable-size
    extension (equation 4) when the catalog has non-uniform sizes.

    Args:
        catalog: Workload description (profile, change rates, sizes).
        bandwidth: Sync bandwidth budget per period.
        model: Freshness model (Fixed-Order by default).
        guess: Optional multiplier to start the search from, such as
            a neighbouring solve's μ; None solves cold.

    Returns:
        The optimal :class:`ScheduleSolution`; its ``objective`` is
        the achieved perceived freshness contribution of volatile
        elements plus the always-fresh mass.
    """
    return solve_weighted_problem(catalog.access_probabilities,
                                  catalog.change_rates, catalog.sizes,
                                  bandwidth, model=model, guess=guess)


def kkt_residual(solution: ScheduleSolution, weights: np.ndarray,
                 change_rates: np.ndarray, costs: np.ndarray, *,
                 model: FreshnessModel | None = None) -> float:
    """Maximum violation of the KKT stationarity conditions.

    For every element with positive frequency the scaled marginal
    ``(wᵢ/cᵢ)·∂F̄/∂f`` must equal the multiplier μ; for every element
    at zero it must not exceed μ.  This is the paper's Equation 6
    invariant ("all solutions lie on the same marginal locus") and is
    exercised by the property-based tests.

    Args:
        solution: A solution from this module's solvers.
        weights: Objective weights used in the solve.
        change_rates: Change rates used in the solve, in changes per
            period.
        costs: Costs used in the solve.
        model: Freshness model used in the solve.

    Returns:
        The largest absolute stationarity violation (0 at a perfect
        optimum).
    """
    chosen = model if model is not None else _DEFAULT_MODEL
    weights = np.asarray(weights, dtype=float)
    change_rates = np.asarray(change_rates, dtype=float)
    costs = np.asarray(costs, dtype=float)
    marginals = chosen.derivative(change_rates, solution.frequencies)
    scaled = weights * marginals / costs
    positive = solution.frequencies > 0.0
    residual = 0.0
    if positive.any():
        residual = float(np.abs(scaled[positive] - solution.multiplier).max())
    at_zero = ~positive & (weights > 0.0) & (change_rates > 0.0)
    if at_zero.any():
        overshoot = float((scaled[at_zero] - solution.multiplier).max())
        residual = max(residual, overshoot, 0.0)
    return residual
