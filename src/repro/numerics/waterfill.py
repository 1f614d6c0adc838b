"""Generic water-filling for separable concave resource allocation.

Problems of the form ``max Σ uᵢ(xᵢ) s.t. Σ cᵢ·xᵢ = B, xᵢ ≥ 0`` with
each ``uᵢ`` smooth, increasing and strictly concave are solved exactly
by their KKT conditions: there is a multiplier ``μ ≥ 0`` such that

* ``uᵢ'(xᵢ) = μ·cᵢ`` for every item with ``xᵢ > 0``, and
* ``uᵢ'(0⁺) ≤ μ·cᵢ`` for every item with ``xᵢ = 0``.

The caller supplies ``allocate_at(μ)``, which inverts the marginal
conditions item-by-item (typically vectorized), and this module runs
the outer search for the ``μ`` whose total cost matches the budget.
Total cost is nonincreasing in ``μ``, so Illinois regula falsi on a
bracket is exact and robust.  The search has one entry point: a warm
start (the multiplier of a neighbouring solve) is only where the
bracket search begins, so cold and warm solves share every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Tuple

import numpy as np

from repro.contracts import (
    check_budget_feasible,
    check_multiplier_in_bracket,
    check_nonnegative,
    contracts_enabled,
    postcondition,
)
from repro.errors import ConvergenceError, InfeasibleProblemError, ValidationError
from repro.obs import registry as obs

__all__ = ["WaterfillResult", "waterfill"]

#: Relative tolerance on the allocated budget.
BUDGET_RTOL = 1e-10
#: Cap on the halvings below a search's start, and separately on its
#: regula falsi iterations (doubling up stops at ``mu_max``).
MAXITER = 200

#: ``allocate_at(μ)`` returns ``(allocations, total_cost)``.
AllocateAt = Callable[[float], Tuple[np.ndarray, float]]


@dataclass(frozen=True)
class WaterfillResult:
    """Outcome of a water-filling search.

    Attributes:
        allocations: Per-item allocation ``xᵢ`` (1-D float array).
        multiplier: The KKT multiplier ``μ`` at the solution.
        cost: Total cost ``Σ cᵢ·xᵢ`` of the returned allocations
            (equal to the budget up to ``BUDGET_RTOL``).
        iterations: Regula falsi iterations performed (``MAXITER``
            on a saturated exit).
    """

    allocations: np.ndarray
    multiplier: float
    cost: float
    iterations: int


def _check_waterfill_result(result: "WaterfillResult",
                            arguments: Mapping[str, object]) -> None:
    """Postcondition: allocations ≥ 0, μ ≥ 0, and budget feasibility.

    The budget bound only applies on the ``snap=True`` path: with
    ``snap=False`` the caller asked for the raw search endpoint,
    which may sit on the over-budget side of a degenerate activation
    kink (the Core-Problem solver post-processes and re-snaps it, and
    its own contract checks the final allocation).
    """
    where = "waterfill"
    budget = float(arguments["budget"])  # type: ignore[arg-type]
    check_nonnegative(result.allocations, name="allocations",
                      where=where)
    check_nonnegative(np.asarray([result.multiplier]),
                      name="multiplier", where=where)
    if arguments["snap"]:
        check_budget_feasible(np.ones(1), np.asarray([result.cost]),
                              budget, rtol=4.0 * BUDGET_RTOL,
                              where=where)


def _record_telemetry(expansions: int, iterations: int, cost: float,
                      budget: float, *, saturated: bool) -> None:
    """Record one waterfill outcome into the telemetry registry.

    ``cost``/``budget`` are in the caller's cost units per period;
    the exit residual gauge is their relative gap (dimensionless).
    """
    if not obs.telemetry_enabled():
        return
    obs.counter_add("waterfill.calls")
    obs.counter_add("waterfill.iterations", iterations)
    obs.observe("waterfill.iterations", iterations)
    if expansions:
        obs.counter_add("waterfill.bracket_expansions", expansions)
    if saturated:
        obs.counter_add("waterfill.saturated_exits")
    obs.gauge_set("waterfill.exit_residual",
                  abs(cost - budget) / budget if budget else 0.0)


@postcondition(_check_waterfill_result)
def waterfill(allocate_at: AllocateAt, budget: float, mu_max: float, *,
              snap: bool = True,
              guess: float | None = None) -> WaterfillResult:
    """Find the multiplier whose allocation consumes exactly ``budget``.

    The search starts at one point, which stays one end of the
    bracket: ``mu_max`` (cost 0) cold, or ``guess`` warm.  The other
    end steps away from it by 2× until the cost crosses the budget —
    down while the cost is below it, up (capped at ``mu_max``) while
    it is above — and Illinois regula falsi closes the bracket.

    Args:
        allocate_at: Maps a multiplier ``μ > 0`` to the KKT-optimal
            allocations and their total cost.  Cost must be continuous
            and nonincreasing in ``μ``.
        budget: Total budget ``B > 0``.
        mu_max: A multiplier at (or above) which every allocation is
            zero — i.e. ``max uᵢ'(0⁺)/cᵢ``.
        snap: Rescale the final allocations onto the budget exactly.
            Callers that post-process degenerate (threshold) items —
            like the Core-Problem solver — pass False and snap
            themselves.
        guess: Where to start the search, typically a neighbouring
            solve's multiplier.  A guess that is not finite or not
            strictly inside ``(0, mu_max)`` starts cold; no guess
            raises.

    Returns:
        A :class:`WaterfillResult` whose allocations are rescaled so
        the cost matches ``budget`` exactly — unless the utilities
        saturate below the budget, in which case the saturated
        allocation is returned with ``multiplier`` 0 and its true
        (smaller) cost.

    Raises:
        InfeasibleProblemError: If ``budget`` or ``mu_max`` is not
            positive.
        ConvergenceError: If the iteration cap is exhausted without
            meeting the budget tolerance.
    """
    if budget <= 0.0:
        raise InfeasibleProblemError(f"budget must be positive, got {budget!r}")
    if not np.isfinite(budget):
        raise ValidationError(f"budget must be finite, got {budget!r}")
    if mu_max <= 0.0:
        raise InfeasibleProblemError(
            f"mu_max must be positive, got {mu_max!r}; "
            "no item has positive marginal utility"
        )

    # Establish the bracket [mu_lo, mu_hi] with cost(mu_lo) >= budget
    # >= cost(mu_hi), stepping away from the start.  cost(mu_max) is 0
    # by definition, so the cold start never evaluates it.
    if guess is not None and 0.0 < guess < mu_max:
        start = float(guess)
        _, cost = allocate_at(start)
        obs.counter_add("waterfill.warm_starts")
    else:
        start, cost = mu_max, 0.0
    mu_lo = mu_hi = start
    cost_lo = cost_hi = cost
    expansions = 0
    if cost < budget:
        for expansions in range(1, MAXITER + 1):
            mu_lo *= 0.5
            _, cost_lo = allocate_at(mu_lo)
            if cost_lo >= budget:
                break
        else:
            # The utilities saturate: even an (effectively) zero price
            # does not spend the budget.  With the constraint read as
            # Σcᵢxᵢ ≤ B — the natural form for a resource *budget* —
            # the saturated allocation is optimal, so return it
            # unscaled.
            allocations, cost = allocate_at(mu_lo)
            _record_telemetry(expansions, MAXITER, cost, budget,
                              saturated=True)
            return WaterfillResult(allocations=allocations,
                                   multiplier=0.0, cost=cost,
                                   iterations=MAXITER)
    else:
        while cost_hi > budget:
            expansions += 1
            mu_hi = min(2.0 * mu_hi, mu_max)
            cost_hi = 0.0 if mu_hi == mu_max else allocate_at(mu_hi)[1]
    bracket = (mu_lo, mu_hi)

    # Illinois (modified regula falsi) on f(μ) = cost(μ) − budget over
    # the bracket: superlinear on the smooth segments of the cost
    # curve, and the maintained bracket keeps it safe across the kinks
    # at activation thresholds.  Each evaluation is a full vectorized
    # allocation, so cutting evaluations from ~100 (bisection) to
    # ~10-20 matters at catalog scale.
    f_lo = cost_lo - budget
    f_hi = cost_hi - budget
    last_side = 0
    for iterations in range(1, MAXITER + 1):
        denom = f_hi - f_lo
        if denom < 0.0:
            mu = mu_hi - f_hi * (mu_hi - mu_lo) / denom
        else:
            mu = 0.5 * (mu_lo + mu_hi)
        if not mu_lo < mu < mu_hi:
            mu = 0.5 * (mu_lo + mu_hi)
        allocations, cost = allocate_at(mu)
        residual = cost - budget
        if abs(residual) <= BUDGET_RTOL * budget:
            break
        # The μ bracket can bottom out at float precision while the
        # cost residual is still above an aggressive tolerance (the
        # inner inversion has its own tolerance).  The final snap onto
        # the budget makes that residual harmless, so accept.
        if mu_hi - mu_lo <= 4.0 * np.finfo(float).eps * mu_hi:
            break
        if residual > 0.0:
            mu_lo, f_lo = mu, residual
            if last_side == 1:
                f_hi *= 0.5  # Illinois: halve the stagnant endpoint
            last_side = 1
        else:
            mu_hi, f_hi = mu, residual
            if last_side == -1:
                f_lo *= 0.5
            last_side = -1
    else:
        obs.counter_add("waterfill.convergence_failures")
        raise ConvergenceError(
            f"water-filling did not reach budget rtol {BUDGET_RTOL} in "
            f"{MAXITER} iterations (cost={cost}, budget={budget})",
            iterations=MAXITER, residual=abs(cost - budget),
        )

    if contracts_enabled():
        # Regula falsi only narrows the bracket the search found, so a
        # μ outside it means the search loop itself is broken.
        check_multiplier_in_bracket(mu, bracket, where="waterfill")
    _record_telemetry(expansions, iterations, cost, budget,
                      saturated=False)
    # Snap the (already extremely close) allocation onto the budget so
    # downstream equality checks hold exactly.
    if snap and cost > 0.0:
        allocations = allocations * (budget / cost)
        cost = budget
    return WaterfillResult(allocations=allocations, multiplier=mu,
                           cost=cost, iterations=iterations)
