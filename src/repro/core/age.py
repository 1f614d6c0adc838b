"""The *age* metric and age-optimal scheduling (Cho & G-M, ref [5]).

Freshness is binary; **age** measures *how* stale a copy is: the time
since the first unseen update.  For a Poisson-updated element synced
every ``I = 1/f``, the expected age at time ``t`` after a sync is
``t − (1 − e^(−λt))/λ``, and its time average over the interval is

    Ā(λ, f) = 1/(2f) − 1/λ + f·(1 − e^(−λ/f))/λ²,

with the limits one expects: 0 as f→∞, ∞ as f→0 (for λ > 0), and
``1/(2f)`` as λ→∞ (a permanently stale copy ages at the polling
half-interval).  Ā is strictly convex in f (``∂²Ā/∂f² =
(1 − e^(−λ/f))/f³ > 0``), and — remarkably — shares its marginal
structure with freshness:

    ∂Ā/∂f = −1/(2f²) + g(λ/f)/λ²,

with the same kernel ``g(r) = 1 − (1+r)e^(−r)``.

**Perceived age** weights by the master profile, ``Σ pᵢ·Āᵢ``, and
:func:`solve_min_age_problem` minimizes it under the bandwidth
constraint by the same water-filling machinery as the Core Problem.
The qualitative difference matters: the marginal age reduction
diverges as f→0⁺, so the age-optimal schedule gives **every**
interesting element some bandwidth — whereas the freshness-optimal
schedule abandons fast changers entirely, driving their age (and the
mirror's perceived age) to infinity.  The ablation benchmark
quantifies this freshness/age tension.
"""

from __future__ import annotations

import numpy as np

from repro.core.freshness import marginal_gain
from repro.core.solver import ScheduleSolution
from repro.errors import InfeasibleProblemError, ValidationError
from repro.numerics.waterfill import waterfill
from repro.workloads.catalog import Catalog

__all__ = [
    "fixed_order_age",
    "age_marginal_reduction",
    "invert_age_marginal",
    "perceived_age",
    "solve_min_age_problem",
    "solve_weighted_age_problem",
]


def fixed_order_age(change_rates: np.ndarray,
                    frequencies: np.ndarray) -> np.ndarray:
    """Time-averaged age ``Ā(λ, f)`` under the Fixed-Order policy.

    Args:
        change_rates: Poisson change rates ``λ ≥ 0``, in changes per
            period.
        frequencies: Sync frequencies ``f ≥ 0``, in syncs per period.

    Returns:
        Element-wise ages in periods: 0 for static elements, ``inf``
        for changing elements that are never synced.
    """
    lam = np.asarray(change_rates, dtype=float)
    f = np.asarray(frequencies, dtype=float)
    lam, f = np.broadcast_arrays(lam, f)
    out = np.zeros(lam.shape, dtype=float)
    live = lam > 0.0
    starved = live & (f == 0.0)
    out[starved] = np.inf
    running = live & (f > 0.0)
    if running.any():
        lam_r = lam[running]
        f_r = f[running]
        r = lam_r / f_r
        # f(1−e^{−r})/λ² computed via expm1 for small-r accuracy.
        tail = -np.expm1(-r) * f_r / lam_r ** 2
        out[running] = 0.5 / f_r - 1.0 / lam_r + tail
        # Clamp epsilon negatives from cancellation at huge f.
        out[running] = np.maximum(out[running], 0.0)
    return out if out.ndim else float(out)


def age_marginal_reduction(change_rates: np.ndarray,
                           frequencies: np.ndarray) -> np.ndarray:
    """Marginal age reduction per unit frequency, ``−∂Ā/∂f``.

    Diverges as f→0⁺ — one more sync always helps an unsynced
    element's age, unlike its (bounded-marginal) freshness.

    Args:
        change_rates: Poisson change rates ``λ ≥ 0``, in changes per
            period.
        frequencies: Sync frequencies ``f > 0`` where λ > 0, in syncs
            per period.

    Returns:
        ``1/(2f²) − g(λ/f)/λ²`` element-wise (0 for static elements,
        ``inf`` at f = 0).
    """
    lam = np.asarray(change_rates, dtype=float)
    f = np.asarray(frequencies, dtype=float)
    lam, f = np.broadcast_arrays(lam, f)
    out = np.zeros(lam.shape, dtype=float)
    live = lam > 0.0
    out[live & (f == 0.0)] = np.inf
    running = live & (f > 0.0)
    if running.any():
        lam_r = lam[running]
        f_r = f[running]
        g = marginal_gain(lam_r / f_r)
        out[running] = 0.5 / f_r ** 2 - g / lam_r ** 2
    return out if out.ndim else float(out)


def invert_age_marginal(change_rates: np.ndarray, targets: np.ndarray,
                        *, iterations: int = 80) -> np.ndarray:
    """The frequency at which ``−∂Ā/∂f`` equals each target.

    The marginal is strictly decreasing from ∞ to 0, so bisection on
    the analytic bracket ``√(1/(2(t + 1/λ²))) ≤ f ≤ √(1/(2t))``
    converges unconditionally.

    Args:
        change_rates: Rates ``λ > 0``, in changes per period.
        targets: Required marginal reductions, ``> 0``.
        iterations: Bisection steps (2⁻⁸⁰ relative bracket).

    Returns:
        Frequencies ``f > 0``.
    """
    lam = np.asarray(change_rates, dtype=float)
    t = np.asarray(targets, dtype=float)
    lam, t = np.broadcast_arrays(lam, t)
    if (lam <= 0.0).any():
        raise ValidationError("age marginals require λ > 0")
    if (t <= 0.0).any():
        raise ValidationError("marginal targets must be positive")
    hi = np.sqrt(0.5 / t)
    lo = np.sqrt(0.5 / (t + 1.0 / lam ** 2))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        too_high = age_marginal_reduction(lam, mid) > t
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
    return 0.5 * (lo + hi)


def perceived_age(catalog: Catalog, frequencies: np.ndarray) -> float:
    """Profile-weighted mean age, ``Σ pᵢ·Āᵢ`` (lower is better).

    Args:
        catalog: Workload description.
        frequencies: Sync frequencies per element, in syncs per
            period.

    Returns:
        The perceived age in periods; ``inf`` if any accessed,
        changing element is never synced.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.shape != (catalog.n_elements,):
        raise ValidationError(
            f"frequencies shape {frequencies.shape} does not match "
            f"catalog size {catalog.n_elements}")
    ages = fixed_order_age(catalog.change_rates, frequencies)
    p = catalog.access_probabilities
    relevant = p > 0.0
    if np.isinf(ages[relevant]).any():
        return float("inf")
    return float(p[relevant] @ ages[relevant])


def solve_weighted_age_problem(weights: np.ndarray,
                               change_rates: np.ndarray,
                               costs: np.ndarray, bandwidth: float
                               ) -> ScheduleSolution:
    """Minimize ``Σ wᵢ·Ā(λᵢ, fᵢ)`` s.t. ``Σ cᵢfᵢ = B``, ``f ≥ 0``.

    The weighted form serves both the direct problem (weights = the
    profile) and the transformed partition problem (weights = nₖp̄ₖ,
    costs = nₖs̄ₖ).  Every element with positive weight and rate gets
    positive frequency — the marginal age reduction diverges at 0.

    Args:
        weights: Nonnegative objective weights.
        change_rates: Poisson change rates ``λ ≥ 0``, in changes per
            period.
        costs: Strictly positive bandwidth cost per sync, in size
            units.
        bandwidth: Budget ``B > 0``, in size units per period.

    Returns:
        A :class:`ScheduleSolution` whose ``objective`` is the
        achieved weighted age (lower is better).
    """
    weights = np.asarray(weights, dtype=float)
    change_rates = np.asarray(change_rates, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if not (weights.shape == change_rates.shape == costs.shape):
        raise ValidationError(
            "weights, change_rates and costs must have matching shapes")
    if (weights < 0.0).any():
        raise ValidationError("weights must be nonnegative")
    if (change_rates < 0.0).any():
        raise ValidationError("change rates must be nonnegative")
    if (costs <= 0.0).any():
        raise ValidationError("costs must be strictly positive")
    if bandwidth <= 0.0:
        raise InfeasibleProblemError(
            f"bandwidth must be positive, got {bandwidth!r}")

    frequencies = np.zeros(weights.shape[0])
    live = (weights > 0.0) & (change_rates > 0.0)
    if not live.any():
        ages = fixed_order_age(change_rates, frequencies)
        finite = weights > 0.0
        objective = float(weights[finite] @ ages[finite]) if \
            finite.any() else 0.0
        return ScheduleSolution(frequencies=frequencies, multiplier=0.0,
                                bandwidth=0.0, objective=objective,
                                iterations=0)

    w = weights[live]
    lam_live = change_rates[live]
    c = costs[live]

    def allocate_at(mu: float) -> tuple[np.ndarray, float]:
        targets = mu * c / w
        freqs = invert_age_marginal(lam_live, targets)
        return freqs, float(c @ freqs)

    # A multiplier high enough that the allocation fits the budget:
    # f ≤ √(w/(2μc)) per element ⇒ cost ≤ Σ√(wc/2)/√μ.
    sqrt_sum = float(np.sqrt(0.5 * w * c).sum())
    mu_max = max((sqrt_sum / bandwidth) ** 2 * 4.0, 1e-12)
    result = waterfill(allocate_at, bandwidth, mu_max)
    frequencies[live] = result.allocations
    ages = fixed_order_age(change_rates, frequencies)
    relevant = weights > 0.0
    objective = (float("inf")
                 if np.isinf(ages[relevant]).any()
                 else float(weights[relevant] @ ages[relevant]))
    return ScheduleSolution(frequencies=frequencies,
                            multiplier=result.multiplier,
                            bandwidth=float(costs @ frequencies),
                            objective=objective,
                            iterations=result.iterations)


def solve_min_age_problem(catalog: Catalog, bandwidth: float
                          ) -> ScheduleSolution:
    """Minimize perceived age under the bandwidth constraint.

    ``min Σ pᵢ·Ā(λᵢ, fᵢ)`` s.t. ``Σ sᵢfᵢ = B``, ``f ≥ 0`` — convex,
    solved by water-filling on the marginal-reduction KKT conditions.
    Every element with ``pᵢ > 0`` and ``λᵢ > 0`` receives positive
    frequency (the marginal reduction at f = 0 is infinite).

    Args:
        catalog: Workload description.
        bandwidth: Budget ``B > 0``, in size units per period.

    Returns:
        A :class:`ScheduleSolution` whose ``objective`` is the
        achieved perceived age (lower is better).
    """
    return solve_weighted_age_problem(catalog.access_probabilities,
                                      catalog.change_rates,
                                      catalog.sizes, bandwidth)
