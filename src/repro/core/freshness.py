"""Time-averaged freshness models for synchronization policies.

An element is updated at the source by a Poisson process with change
rate ``λ`` and is synchronized (polled and refreshed) by the mirror at
frequency ``f``.  A *freshness model* gives the long-run fraction of
time the local copy is up to date, ``F̄(λ, f)``, together with its
partial derivative in ``f`` — the marginal freshness per unit of sync
frequency, which drives the KKT water-filling solver.

Two policies are provided:

* :class:`FixedOrderPolicy` — syncs happen at evenly spaced instants
  (the paper's Fixed-Order policy, shown best in Cho & Garcia-Molina):

      F̄(λ, f) = (f/λ)·(1 − e^(−λ/f))

* :class:`PoissonSyncPolicy` — syncs happen at exponentially
  distributed intervals (memoryless polling), an ablation baseline:

      F̄(λ, f) = f / (f + λ)

Both are strictly concave and increasing in ``f``, so the Core Problem
is a convex program for either.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "FreshnessModel",
    "FixedOrderPolicy",
    "PoissonSyncPolicy",
    "fixed_order_freshness",
    "marginal_gain",
    "invert_marginal_gain",
]

#: Below this staleness ratio ``r = λ/f`` the closed forms are replaced
#: by series expansions to avoid catastrophic cancellation.
_SERIES_CUTOFF = 1e-4


def fixed_order_freshness(change_rates: np.ndarray,
                          frequencies: np.ndarray) -> np.ndarray:
    """Fixed-Order time-averaged freshness ``F̄(λ, f)``, vectorized.

    Conventions at the boundary: ``f = 0`` gives freshness 0 for any
    ``λ > 0`` (never refreshed, eventually always stale) and ``λ = 0``
    gives freshness 1 (never changes, always fresh).  A ratio ``λ/f``
    that underflows to 0 takes its ``r → 0`` limit, 1.

    Args:
        change_rates: Poisson change rates ``λ ≥ 0``, in changes per
            period.
        frequencies: Sync frequencies ``f ≥ 0``, in syncs per period
            (same broadcastable shape).

    Returns:
        Element-wise freshness in ``[0, 1]``.
    """
    lam = np.asarray(change_rates, dtype=float)
    f = np.asarray(frequencies, dtype=float)
    lam, f = np.broadcast_arrays(lam, f)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = lam / f
        # (1 − e^(−r))/r via expm1 for accuracy at small r.
        out = np.asarray(-np.expm1(-r) / r)
    # The limit and the boundary conventions overwrite whatever 0/0
    # or x/0 gave; λ = 0 wins over f = 0.
    out[r == 0.0] = 1.0
    out[f == 0.0] = 0.0
    out[lam == 0.0] = 1.0
    return out if out.ndim else float(out)


def _small_ratio_gain(r: np.ndarray) -> np.ndarray:
    """``g(r) = r²/2 − r³/3 + r⁴/8 − …``; three terms suffice below
    :data:`_SERIES_CUTOFF`."""
    return r * r * (0.5 - r / 3.0 + r * r / 8.0)


def marginal_gain(staleness_ratio: np.ndarray) -> np.ndarray:
    """The Fixed-Order marginal kernel ``g(r) = 1 − (1 + r)·e^(−r)``.

    ``∂F̄/∂f = g(λ/f)/λ``; ``g`` maps ``(0, ∞)`` onto ``(0, 1)`` and is
    strictly increasing, which is what makes the KKT inversion a
    one-dimensional monotone root-find.

    Args:
        staleness_ratio: ``r = λ/f ≥ 0``.

    Returns:
        ``g(r)`` element-wise, computed with a series at small ``r``.
    """
    r = np.asarray(staleness_ratio, dtype=float)
    out = np.empty(r.shape, dtype=float)
    small = r < _SERIES_CUTOFF
    if small.any():
        out[small] = _small_ratio_gain(r[small])
    big = ~small
    if big.any():
        rb = r[big]
        out[big] = 1.0 - (1.0 + rb) * np.exp(-rb)
    return out if out.ndim else float(out)


#: Halley steps from the initial guess.  Three bring ``|g(r) − t|``
#: within 4e-16 for every target in ``(0, 1)``, and within
#: ``4·eps·t`` for ``t ≤ 1e-12``.
_HALLEY_STEPS = 3


def invert_marginal_gain(targets: np.ndarray) -> np.ndarray:
    """Solve ``g(r) = t`` for ``r``, element by element.

    A fixed number of Halley steps (``g′ = r·e^(−r)``,
    ``g″ = (1 − r)·e^(−r)``) from a closed-form guess.  Each result
    depends on its own target only, never on the rest of the batch.

    Args:
        targets: Values ``t`` with ``0 < t < 1`` element-wise.

    Returns:
        The staleness ratios ``r`` with ``g(r) = t``.

    Raises:
        ValidationError: If any target lies outside ``(0, 1)``.
    """
    t = np.asarray(targets, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if ((t <= 0.0) | (t >= 1.0)).any():
        raise ValidationError("marginal targets must lie strictly in (0, 1)")

    # Initial guess: small-t series g ≈ r²/2 ⇒ r ≈ √(2t); large-t
    # asymptotic (1+r)e^(−r) = 1−t ⇒ r ≈ −ln(1−t) + ln(1+r), iterated
    # once from r₀ = −ln(1−t).
    guess_small = np.sqrt(2.0 * t)
    base = -np.log1p(-t)
    guess_large = base + np.log1p(base)
    r = np.where(t < 0.5, guess_small, np.maximum(guess_large, guess_small))

    for _ in range(_HALLEY_STEPS):
        decay = np.exp(-r)
        # Unlike marginal_gain's 1 − (1+r)·e^(−r), g written as
        # −expm1(−r) − r·e^(−r) does not cancel against 1.
        residual = np.where(r < _SERIES_CUTOFF, _small_ratio_gain(r),
                            -np.expm1(-r) - r * decay) - t
        # r − 2hg′/(2g′² − hg″), with the common factor e^(−r) divided
        # out of g′ and g″.
        r = r - 2.0 * residual * r / (
            2.0 * r * r * decay - residual * (1.0 - r))
    return float(r[0]) if scalar else r


class FreshnessModel(ABC):
    """Interface of a synchronization-policy freshness model."""

    @abstractmethod
    def freshness(self, change_rates: np.ndarray,
                  frequencies: np.ndarray) -> np.ndarray:
        """Time-averaged freshness ``F̄(λ, f)``, element-wise.

        ``change_rates`` are in changes per period, ``frequencies``
        in syncs per period; the result is dimensionless in [0, 1].
        """

    @abstractmethod
    def derivative(self, change_rates: np.ndarray,
                   frequencies: np.ndarray) -> np.ndarray:
        """Marginal freshness ``∂F̄/∂f``, element-wise.

        ``change_rates`` are in changes per period, ``frequencies``
        in syncs per period; the marginal is in periods per sync.
        """

    @abstractmethod
    def frequency_for_marginal(self, change_rates: np.ndarray,
                               marginals: np.ndarray) -> np.ndarray:
        """Invert the marginal: the ``f`` with ``∂F̄/∂f = m``.

        ``change_rates`` are in changes per period and the returned
        frequencies in syncs per period.  Only defined for ``0 < m <
        ∂F̄/∂f|_{f→0⁺}``; the water-filling solver guarantees this
        precondition.
        """


class FixedOrderPolicy(FreshnessModel):
    """Evenly spaced synchronization instants (the paper's policy)."""

    name = "fixed-order"

    def freshness(self, change_rates: np.ndarray,
                  frequencies: np.ndarray) -> np.ndarray:
        return fixed_order_freshness(change_rates, frequencies)

    def derivative(self, change_rates: np.ndarray,
                   frequencies: np.ndarray) -> np.ndarray:
        lam = np.asarray(change_rates, dtype=float)
        f = np.asarray(frequencies, dtype=float)
        lam, f = np.broadcast_arrays(lam, f)
        out = np.zeros(lam.shape, dtype=float)
        live = lam > 0.0
        synced = live & (f > 0.0)
        if synced.any():
            r = lam[synced] / f[synced]
            out[synced] = marginal_gain(r) / lam[synced]
        # The f→0⁺ supremum of the marginal is 1/λ.
        unsynced = live & (f == 0.0)
        out[unsynced] = 1.0 / lam[unsynced]
        return out if out.ndim else float(out)

    def frequency_for_marginal(self, change_rates: np.ndarray,
                               marginals: np.ndarray) -> np.ndarray:
        lam = np.asarray(change_rates, dtype=float)
        m = np.asarray(marginals, dtype=float)
        lam, m = np.broadcast_arrays(lam, m)
        # Callers guarantee m < 1/λ mathematically, but the product
        # m·λ can round to exactly 1.0 when m sits a rounding error
        # below the supremum; clamp just inside the open interval (the
        # resulting frequency ≈ λ/40 is in the same degenerate band
        # the solver's threshold handling absorbs).
        targets = np.minimum(m * lam, np.nextafter(1.0, 0.0))
        ratios = invert_marginal_gain(targets)
        return lam / ratios


class PoissonSyncPolicy(FreshnessModel):
    """Memoryless (exponential-interval) polling — ablation baseline.

    With Poisson syncs at rate ``f`` against Poisson updates at rate
    ``λ``, the copy is fresh exactly when the most recent event is a
    sync, so ``F̄ = f/(f + λ)``.
    """

    name = "poisson-sync"

    def freshness(self, change_rates: np.ndarray,
                  frequencies: np.ndarray) -> np.ndarray:
        lam = np.asarray(change_rates, dtype=float)
        f = np.asarray(frequencies, dtype=float)
        lam, f = np.broadcast_arrays(lam, f)
        out = np.ones(lam.shape, dtype=float)
        live = lam > 0.0
        out[live] = f[live] / (f[live] + lam[live])
        return out if out.ndim else float(out)

    def derivative(self, change_rates: np.ndarray,
                   frequencies: np.ndarray) -> np.ndarray:
        lam = np.asarray(change_rates, dtype=float)
        f = np.asarray(frequencies, dtype=float)
        lam, f = np.broadcast_arrays(lam, f)
        out = np.zeros(lam.shape, dtype=float)
        live = lam > 0.0
        out[live] = lam[live] / (f[live] + lam[live]) ** 2
        return out if out.ndim else float(out)

    def frequency_for_marginal(self, change_rates: np.ndarray,
                               marginals: np.ndarray) -> np.ndarray:
        lam = np.asarray(change_rates, dtype=float)
        m = np.asarray(marginals, dtype=float)
        lam, m = np.broadcast_arrays(lam, m)
        # λ/(f+λ)² = m  ⇒  f = √(λ/m) − λ; clamp the rounding band
        # where m ≥ 1/λ would yield an epsilon-negative frequency.
        return np.maximum(np.sqrt(lam / m) - lam, 0.0)
