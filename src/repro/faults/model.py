"""Deterministic, seeded fault models for the sync path.

The paper's mirror assumes every synchronization succeeds instantly;
its own motivating deployments (large mirrors of remote, flaky
sources) do not.  This module describes *how* polls fail, as pure
probability models driven by an injected ``np.random.Generator`` —
the same seeded-generator discipline the rest of the simulator obeys
(freshlint FL001), so a seed reproduces the exact fault trace.

Vocabulary:

* :class:`PollOutcome` — the typed result of one poll attempt
  (``ok | timeout | error | unreachable``).
* :class:`FaultModel` — a stochastic outcome source for one attempt:
  :class:`IIDFaultModel` (per-attempt i.i.d. loss),
  :class:`GilbertElliottFaultModel` (bursty two-state Markov loss),
  :class:`LatencyFaultModel` (latency draws against a timeout).
* :class:`OutageWindow` — a timed, deterministic shard outage: the
  named elements are ``unreachable`` for the window's duration.
* :class:`FaultPlan` — the composition the simulator consumes:
  outage windows first (no randomness consumed), then each model in
  order; the first non-``ok`` outcome wins.

A quiet plan (no models, no outages) is a *true no-op*: the sync
layer bypasses it entirely and consumes no random draws, so results
are bit-identical to a fault-free run.

Plans with a fixed per-attempt draw shape — a single i.i.d. model or
a single Gilbert–Elliott model, as
:func:`repro.sim.simulation.kernel_fault_model` decides — are
resolved in bulk ahead of the vectorized replay
(:func:`repro.sim.fastpath.resolve_tape_faults`); every other plan
runs on the per-event reference loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "FaultModel",
    "FaultPlan",
    "GilbertElliottFaultModel",
    "IIDFaultModel",
    "LatencyFaultModel",
    "OutageWindow",
    "PollOutcome",
]


class PollOutcome(str, Enum):
    """The typed result of one poll attempt over the sync channel."""

    #: The poll reached the source and returned its current version.
    OK = "ok"
    #: The transfer started but exceeded its deadline (bandwidth was
    #: burned; the copy did not refresh).  Retryable.
    TIMEOUT = "timeout"
    #: The source answered with an error (bandwidth was burned; the
    #: copy did not refresh).  Retryable.
    ERROR = "error"
    #: The source could not be reached at all (fast failure, no
    #: bandwidth burned).  Not retryable — outages end on their own
    #: schedule, not on the retry policy's.
    UNREACHABLE = "unreachable"

    @property
    def is_failure(self) -> bool:
        """Whether the attempt failed to refresh the copy."""
        return self is not PollOutcome.OK

    @property
    def is_retryable(self) -> bool:
        """Whether a retry policy may immediately try again."""
        return self in (PollOutcome.TIMEOUT, PollOutcome.ERROR)


class FaultModel(ABC):
    """A stochastic source of poll outcomes for single attempts.

    Implementations must be deterministic given the injected
    generator: every random decision draws from ``rng`` and nothing
    else, so a seeded run replays the identical fault trace.
    """

    @abstractmethod
    def outcome(self, element: int, time: float,
                rng: np.random.Generator) -> PollOutcome:
        """Draw the outcome of one poll attempt.

        Args:
            element: Element index being polled.
            time: Simulated clock time of the attempt, in period
                units.
            rng: Seeded generator; the only source of randomness.

        Returns:
            The attempt's :class:`PollOutcome`.
        """


class IIDFaultModel(FaultModel):
    """Each attempt independently fails with a fixed probability.

    Args:
        failure_probability: Per-attempt failure probability in
            ``[0, 1]`` (dimensionless).
        failure: The outcome reported on failure (``ERROR`` by
            default; ``TIMEOUT`` for deadline-style loss).
    """

    def __init__(self, failure_probability: float, *,
                 failure: PollOutcome = PollOutcome.ERROR) -> None:
        if not 0.0 <= failure_probability <= 1.0:
            raise ValidationError(
                "failure_probability must be in [0, 1], got "
                f"{failure_probability}")
        if not failure.is_failure:
            raise ValidationError(
                "failure outcome must be a failure, got "
                f"{failure.value!r}")
        self._p = failure_probability
        self._failure = failure

    @property
    def failure_probability(self) -> float:
        """Per-attempt failure probability (dimensionless)."""
        return self._p

    @property
    def failure_outcome(self) -> PollOutcome:
        """The outcome reported when an attempt fails."""
        return self._failure

    def outcome(self, element: int, time: float,
                rng: np.random.Generator) -> PollOutcome:
        """Draw one i.i.d. attempt outcome (consumes one draw)."""
        if rng.random() < self._p:
            return self._failure
        return PollOutcome.OK


class GilbertElliottFaultModel(FaultModel):
    """Bursty loss: a per-element two-state (good/bad) Markov chain.

    The classic Gilbert–Elliott channel: each element carries a
    hidden state that flips between *good* and *bad* on every
    attempt, and the attempt is lost with the state's loss
    probability.  Long bad sojourns produce the correlated failure
    bursts that i.i.d. loss cannot.

    The chain advances on poll attempts (not on clock time), which
    keeps the trace exactly reproducible under any schedule.

    Args:
        p_good_to_bad: Per-attempt transition probability out of the
            good state, in ``[0, 1]`` (dimensionless).
        p_bad_to_good: Per-attempt transition probability out of the
            bad state, in ``[0, 1]`` (dimensionless).
        loss_good: Failure probability while good (dimensionless).
        loss_bad: Failure probability while bad (dimensionless).
        failure: The outcome reported on failure.
    """

    def __init__(self, p_good_to_bad: float, p_bad_to_good: float, *,
                 loss_good: float = 0.0, loss_bad: float = 1.0,
                 failure: PollOutcome = PollOutcome.ERROR) -> None:
        for name, value in (("p_good_to_bad", p_good_to_bad),
                            ("p_bad_to_good", p_bad_to_good),
                            ("loss_good", loss_good),
                            ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{name} must be in [0, 1], got {value}")
        if not failure.is_failure:
            raise ValidationError(
                "failure outcome must be a failure, got "
                f"{failure.value!r}")
        self._p_gb = p_good_to_bad
        self._p_bg = p_bad_to_good
        self._loss = (loss_good, loss_bad)
        self._failure = failure
        self._bad: dict[int, bool] = {}

    @property
    def p_good_to_bad(self) -> float:
        """Per-attempt transition probability out of good."""
        return self._p_gb

    @property
    def p_bad_to_good(self) -> float:
        """Per-attempt transition probability out of bad."""
        return self._p_bg

    @property
    def loss_good(self) -> float:
        """Failure probability while good (dimensionless)."""
        return self._loss[0]

    @property
    def loss_bad(self) -> float:
        """Failure probability while bad (dimensionless)."""
        return self._loss[1]

    @property
    def failure_outcome(self) -> PollOutcome:
        """The outcome reported when an attempt fails."""
        return self._failure

    def chain_states(self, n_elements: int) -> np.ndarray:
        """The per-element hidden state as a dense bool array.

        An element the chain has never polled is in the good state,
        so absent dict entries and False entries are interchangeable.

        Args:
            n_elements: Catalog size; element ids must be < this.

        Returns:
            ``bad`` flags, shape ``(n_elements,)``, dtype bool.
        """
        bad = np.zeros(n_elements, dtype=bool)
        for element, state in self._bad.items():
            if state:
                bad[element] = True
        return bad

    def set_chain_states(self, bad: np.ndarray) -> None:
        """Commit a dense per-element state array back into the chain.

        Only bad elements are stored — the reference path treats a
        missing entry as good, so dropping False entries is
        behaviorally identical and keeps the dict minimal.

        Args:
            bad: ``bad`` flags, shape ``(n_elements,)``.
        """
        self._bad = {element: True
                     for element in np.flatnonzero(bad).tolist()}

    def outcome(self, element: int, time: float,
                rng: np.random.Generator) -> PollOutcome:
        """Advance the element's chain one step and draw the loss.

        Consumes exactly two draws per attempt (transition, loss).
        """
        bad = self._bad.get(element, False)
        flip = rng.random() < (self._p_bg if bad else self._p_gb)
        if flip:
            bad = not bad
        self._bad[element] = bad
        if rng.random() < self._loss[1 if bad else 0]:
            return self._failure
        return PollOutcome.OK


class LatencyFaultModel(FaultModel):
    """Exponential per-attempt latency draws against a deadline.

    Each attempt's service latency is drawn ``Exponential(mean)``;
    attempts slower than the timeout are reported ``TIMEOUT`` (the
    transfer ran — and burned bandwidth — but delivered nothing).

    Args:
        mean_latency: Mean attempt latency, in period units, > 0.
        timeout: Deadline per attempt, in period units, > 0.
    """

    def __init__(self, mean_latency: float, timeout: float) -> None:
        if mean_latency <= 0.0:
            raise ValidationError(
                f"mean_latency must be > 0, got {mean_latency}")
        if timeout <= 0.0:
            raise ValidationError(f"timeout must be > 0, got {timeout}")
        self._mean = mean_latency
        self._timeout = timeout

    def outcome(self, element: int, time: float,
                rng: np.random.Generator) -> PollOutcome:
        """Draw one latency and compare it to the deadline."""
        if rng.exponential(self._mean) > self._timeout:
            return PollOutcome.TIMEOUT
        return PollOutcome.OK


@dataclass(frozen=True)
class OutageWindow:
    """A deterministic shard outage: elements unreachable for a while.

    Attributes:
        start: Window start, in simulated clock time (period units).
        end: Window end (exclusive), in period units, > ``start``.
        elements: The element indices that are down for the window.
    """

    start: float
    end: float
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValidationError(
                f"outage window must have end > start, got "
                f"[{self.start}, {self.end})")
        object.__setattr__(self, "elements",
                           tuple(int(e) for e in self.elements))

    def covers(self, element: int, time: float) -> bool:
        """Whether ``element`` is down at simulated ``time``."""
        return (self.start <= time < self.end
                and element in self._element_set)

    @property
    def _element_set(self) -> frozenset[int]:
        # Cached on first use; frozen dataclasses route through
        # object.__setattr__.
        cached = self.__dict__.get("_elements_cached")
        if cached is None:
            cached = frozenset(self.elements)
            object.__setattr__(self, "_elements_cached", cached)
        return cached


@dataclass(frozen=True)
class FaultPlan:
    """The composed fault behavior of a sync channel.

    Outage windows are consulted first and consume no randomness;
    then each model draws in declaration order and the first
    non-``ok`` outcome wins (later models do not draw once an attempt
    has failed, keeping the per-attempt draw count bounded and the
    trace reproducible).

    Attributes:
        models: Stochastic per-attempt fault models, in draw order.
        outages: Deterministic timed outage windows.
    """

    models: tuple[FaultModel, ...] = ()
    outages: tuple[OutageWindow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "outages", tuple(self.outages))

    @property
    def is_quiet(self) -> bool:
        """True when the plan can never produce a failure.

        The simulator bypasses a quiet plan entirely — no random
        draws are consumed — so results are bit-identical to running
        with no plan at all.
        """
        return not self.models and not self.outages

    def outcome(self, element: int, time: float,
                rng: np.random.Generator) -> PollOutcome:
        """Draw the outcome of one poll attempt.

        Args:
            element: Element index being polled.
            time: Simulated clock time of the attempt (period units).
            rng: Seeded generator driving the stochastic models.

        Returns:
            The attempt's :class:`PollOutcome`.
        """
        for window in self.outages:
            if window.covers(element, time):
                return PollOutcome.UNREACHABLE
        for model in self.models:
            drawn = model.outcome(element, time, rng)
            if drawn.is_failure:
                return drawn
        return PollOutcome.OK

    @classmethod
    def quiet(cls) -> "FaultPlan":
        """The zero-fault plan (a guaranteed no-op)."""
        return cls()

    @classmethod
    def iid(cls, failure_probability: float, *,
            failure: PollOutcome = PollOutcome.ERROR) -> "FaultPlan":
        """A plan with a single i.i.d. loss model.

        Args:
            failure_probability: Per-attempt failure probability in
                ``[0, 1]`` (dimensionless).
            failure: Outcome reported on failure.

        Returns:
            The single-model :class:`FaultPlan`.
        """
        return cls(models=(IIDFaultModel(failure_probability,
                                         failure=failure),))

    @classmethod
    def bursty(cls, p_good_to_bad: float, p_bad_to_good: float, *,
               loss_good: float = 0.0, loss_bad: float = 1.0,
               failure: PollOutcome = PollOutcome.ERROR) -> "FaultPlan":
        """A plan with a single Gilbert–Elliott burst-loss model.

        Args:
            p_good_to_bad: Per-attempt transition probability out of
                the good state, in ``[0, 1]`` (dimensionless).
            p_bad_to_good: Per-attempt transition probability out of
                the bad state, in ``[0, 1]`` (dimensionless).
            loss_good: Failure probability while good.
            loss_bad: Failure probability while bad.
            failure: Outcome reported on failure.

        Returns:
            The single-model :class:`FaultPlan`.
        """
        return cls(models=(GilbertElliottFaultModel(
            p_good_to_bad, p_bad_to_good, loss_good=loss_good,
            loss_bad=loss_bad, failure=failure),))
