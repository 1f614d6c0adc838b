"""Freshness metrics (paper §2, Definitions 1–4).

Two families:

* **Analytic** metrics evaluate the closed-form time-averaged
  freshness of a schedule against a catalog:
  ``general_freshness`` (the Cho/Garcia-Molina objective — unweighted
  mean freshness) and ``perceived_freshness`` (this paper's objective
  — freshness weighted by access probability).
* **Empirical** metrics score concrete access observations:
  ``perceived_freshness_of_accesses`` is Definition 3 — the fraction
  of accesses that saw an up-to-date copy.

The identity behind Definition 4 — time-averaged perceived freshness
equals ``Σ pᵢ·F̄ᵢ`` — is what lets the scheduler optimize the analytic
form while users experience the empirical one; the simulator's
integration tests confirm the two agree.
"""

from __future__ import annotations

import numpy as np

from repro.core.freshness import FixedOrderPolicy, FreshnessModel
from repro.errors import ValidationError
from repro.workloads.catalog import Catalog

__all__ = [
    "element_freshness",
    "general_freshness",
    "perceived_freshness",
    "weighted_freshness",
    "perceived_freshness_of_accesses",
]

_DEFAULT_MODEL = FixedOrderPolicy()


def element_freshness(catalog: Catalog, frequencies: np.ndarray, *,
                      model: FreshnessModel | None = None) -> np.ndarray:
    """Per-element time-averaged freshness ``F̄(λᵢ, fᵢ)``.

    Args:
        catalog: Workload description.
        frequencies: Sync frequencies per element, ``f ≥ 0``, in
            syncs per period.
        model: Synchronization-policy model; Fixed-Order by default.

    Returns:
        Freshness values in ``[0, 1]``, shape ``(N,)``.
    """
    frequencies = _checked_frequencies(catalog, frequencies)
    chosen = model if model is not None else _DEFAULT_MODEL
    return chosen.freshness(catalog.change_rates, frequencies)


def weighted_freshness(catalog: Catalog, frequencies: np.ndarray,
                       weights: np.ndarray, *,
                       model: FreshnessModel | None = None) -> float:
    """Weighted mean freshness ``Σ wᵢ·F̄ᵢ / Σ wᵢ``.

    Args:
        catalog: Workload description.
        frequencies: Sync frequencies per element, in syncs per
            period.
        weights: Nonnegative weights with a positive sum.
        model: Synchronization-policy model; Fixed-Order by default.

    Returns:
        The weighted average freshness.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (catalog.n_elements,):
        raise ValidationError(
            f"weights shape {weights.shape} does not match catalog size "
            f"{catalog.n_elements}")
    if (weights < 0.0).any():
        raise ValidationError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0.0:
        raise ValidationError("weights must have a positive sum")
    freshness = element_freshness(catalog, frequencies, model=model)
    return float(weights @ freshness / total)


def general_freshness(catalog: Catalog, frequencies: np.ndarray, *,
                      model: FreshnessModel | None = None) -> float:
    """Average freshness over elements (Definition 2; the GF objective).

    Args:
        catalog: Workload description.
        frequencies: Sync frequencies per element, in syncs per
            period.
        model: Synchronization-policy model; Fixed-Order by default.

    Returns:
        Mean of the per-element freshness values.
    """
    freshness = element_freshness(catalog, frequencies, model=model)
    return float(freshness.mean())


def perceived_freshness(catalog: Catalog, frequencies: np.ndarray, *,
                        model: FreshnessModel | None = None) -> float:
    """Time-averaged perceived freshness ``Σ pᵢ·F̄ᵢ`` (Definition 4).

    Args:
        catalog: Workload description (supplies the master profile).
        frequencies: Sync frequencies per element, in syncs per
            period.
        model: Synchronization-policy model; Fixed-Order by default.

    Returns:
        The perceived freshness the master profile would observe.
    """
    freshness = element_freshness(catalog, frequencies, model=model)
    return float(catalog.access_probabilities @ freshness)


def perceived_freshness_of_accesses(access_fresh: np.ndarray) -> float:
    """Perceived freshness of an observed access set (Definition 3).

    Args:
        access_fresh: Boolean (or 0/1) array — whether each access saw
            an up-to-date copy.

    Returns:
        The fraction of accesses that saw fresh data.

    Raises:
        ValidationError: For an empty access set.
    """
    observed = np.asarray(access_fresh)
    if observed.ndim != 1:
        raise ValidationError("access freshness must be 1-D")
    if observed.size == 0:
        raise ValidationError(
            "perceived freshness of an empty access set is undefined")
    return float(np.mean(observed.astype(float)))


def _checked_frequencies(catalog: Catalog,
                         frequencies: np.ndarray) -> np.ndarray:
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.shape != (catalog.n_elements,):
        raise ValidationError(
            f"frequencies shape {frequencies.shape} does not match catalog "
            f"size {catalog.n_elements}")
    if not np.isfinite(frequencies).all():
        raise ValidationError("sync frequencies must be finite")
    if (frequencies < 0.0).any():
        raise ValidationError("sync frequencies must be nonnegative")
    return frequencies
