"""Vectorized replay of the simulation event tape.

Every vectorized route consumes the *same* merged event tape the
per-event reference loop in :meth:`repro.sim.simulation.Simulation.run`
walks, and produces a :class:`~repro.sim.evaluator.SimulationResult`
that is **bit-identical** — not merely statistically equivalent — to
the reference loop's.  There is one replay core: a
:class:`ReplayCarry` of per-element copy state, folded forward one
slab of the tape at a time by :func:`_replay_tape_chunk`.  The routes
differ only in how they slice the tape:

* :class:`StreamingReplay` feeds consecutive whole-period slabs and
  assembles the result once, from the carry;
* :func:`replay_fastpath` is one slab, fed from
  :meth:`ReplayCarry.start`;
* :func:`replay_window_tapes` replays each one-period tape of an
  adaptive-manager window as its own one-slab replay.

Only the stepping is the kernel's own.  A finished run is packaged by
:mod:`repro.sim.evaluator`, exactly as the reference loop's is: the
carry is flushed by :func:`~repro.sim.evaluator.flush_to_horizon`,
the result derives its monitored metrics, and
:func:`~repro.sim.evaluator.close_run` emits the ``monitor.*`` and
``sim.*`` telemetry and checks the run contracts; each slab's
per-period counts go out through
:func:`~repro.sim.evaluator.emit_period`.

Faults enter through one resolver, :func:`resolve_tape_faults`,
before the replay: it dispatches on the type of
``fault_args["model"]`` to :func:`resolve_iid_faults` (one i.i.d.
model) or :func:`resolve_ge_faults` (one Gilbert–Elliott model).
Both run on one core, :func:`_resolve_on_pool`, which decides every
scheduled sync's attempts and success; the failed syncs are then
dropped from the slab and the survivors replay through the
fault-free copy-state machine unchanged.  Stateful plans the core
cannot pre-draw — latency draws, outage windows, breakers,
topologies, multi-model plans — stay on the reference loop;
:func:`repro.sim.simulation.kernel_fault_model` decides.

How the loop is vectorized
--------------------------

The slab is regrouped per element with a stable sort, which preserves
each element's global event order (updates before syncs before
accesses at equal timestamps, courtesy of the merge).  The sort is
two LSD radix passes over the uint16 halves of each element id
(:func:`_stable_element_argsort`): O(n), and the same permutation as
a direct stable argsort, since a stable sort's permutation is unique.
The per-element monitor state machine is then reconstructed with
segment operations:

* the fresh/stale flag before each event comes from the last
  update/sync strictly before it (a segmented running maximum over
  state-change positions), or from the carried flag when no in-slab
  state change precedes it;
* stale-run start times (``stale_since``) carry forward from each
  run-opening update by the same trick;
* fresh-time and age-integral increments are computed for every event
  at once and folded per element with :func:`numpy.bincount`.

Bit-identity notes (all verified by the equivalence suite):

* ``np.bincount`` accumulates its weights as an exact sequential
  left-fold per bin in input order — unlike ``np.sum`` or
  ``np.add.reduceat``, which use pairwise summation and would break
  bit-identity with the loop's ``+=``.  Prepending each element's
  carried accumulator as its bin's first weight continues the fold
  bit-exactly — left folds compose — so slab-by-slab replay of a tape
  is bit-identical to the reference loop over the whole tape.
* The reference loop squares *scalars* (``(time - since) ** 2`` on
  ``np.float64`` goes through libm ``pow``), while the horizon flush
  squares *arrays* (``** 2`` lowers to ``x*x``).  These differ in the
  last bit for ~0.1% of inputs, so the kernel uses
  ``np.float_power`` (bit-equal to scalar ``pow``) for per-event
  trapezoids and shares the loop's flush.
* Adding the ``0.0`` increments the loop never performs is safe here:
  no accumulator can hold ``-0.0``.
* ``Generator.random(n)`` produces the same values *and* the same
  post-call state as ``n`` successive scalar ``random()`` calls, and
  ``Generator.uniform(low, high)`` consumes exactly one draw and
  equals ``low + (high - low) * random()`` bit-for-bit — which is
  what lets the resolvers pre-draw an oversized pool, rewind the bit
  generator, and re-advance it by the exact number of draws the
  reference channel would have consumed.

The one sequential piece of fault resolution is the per-period
bandwidth ledger: how many draws a sync consumes depends on where
earlier syncs left the pool cursor and the ledger, so the cursor walk
is a tight O(total attempts) scalar scan over precomputed outcome
flags.  The Gilbert–Elliott chain is stateful across attempts, but
its draw shape is fixed (transition, loss, jitter per retry); on the
retry-free, denial-free route its evolution is a segmented
Hillis–Steele scan, whose rounds stop at the longest element run
rather than the batch size, and its per-element state is threaded
explicitly
(:meth:`~repro.faults.model.GilbertElliottFaultModel.chain_states`).
Each slab's pool starts exactly where the previous slab's consumption
ended; slabs split at whole-period boundaries so the per-period
ledger resets in the same places the reference channel resets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.faults.model import (
    GilbertElliottFaultModel,
    IIDFaultModel,
    PollOutcome,
)
from repro.faults.retry import RetryPolicy
from repro.obs import registry as obs
from repro.sim.events import EventKind
from repro.sim.evaluator import (
    SimulationResult,
    close_run,
    emit_period,
    flush_to_horizon,
)
from repro.workloads.catalog import Catalog

__all__ = ["ReplayArena", "ReplayCarry", "StreamingReplay",
           "replay_fastpath", "replay_window_tapes",
           "resolve_ge_faults", "resolve_iid_faults",
           "resolve_tape_faults"]

#: Largest slab, in events, the replay kernel can index: its
#: positional arrays are int32.
_SLAB_EVENT_LIMIT = int(np.iinfo(np.int32).max)



def _stable_element_argsort(elements: np.ndarray) -> np.ndarray:
    """``np.argsort(elements, kind="stable")`` for element ids in
    ``[0, 2³¹)``, as two LSD radix passes.

    Pass one stable-sorts the low uint16 half of each id, pass two
    the high half of the permuted ids; composing two stable sorts
    keyed (high, low) equals one stable sort keyed by the id.  numpy's
    stable sort of a 16-bit key is an O(n) radix sort, so this runs
    several times faster than a direct stable argsort of 32-bit ids,
    and a stable sort's permutation is unique, so it is the same.
    """
    order = np.argsort((elements & 0xFFFF).astype(np.uint16),
                       kind="stable")
    high = (elements[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def _segment_starts(elements_sorted: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """First-event flag and per-event segment-start position.

    Args:
        elements_sorted: Element ids after the stable per-element sort.

    Returns:
        ``(new_segment, segment_start_of)`` — a boolean mask of
        segment-opening events and, per event, the global position of
        its segment's first event.
    """
    n_events = elements_sorted.shape[0]
    new_segment = np.empty(n_events, dtype=bool)
    new_segment[0] = True
    np.not_equal(elements_sorted[1:], elements_sorted[:-1],
                 out=new_segment[1:])
    start_positions = np.flatnonzero(new_segment)
    segment_ids = np.cumsum(new_segment) - 1
    return new_segment, start_positions[segment_ids]


def _shift_within_segment(values: np.ndarray, new_segment: np.ndarray,
                          fill: float) -> np.ndarray:
    """Previous event's value within each segment (``fill`` at starts)."""
    shifted = np.empty_like(values)
    shifted[0] = fill
    shifted[1:] = values[:-1]
    shifted[new_segment] = fill
    return shifted


def _last_position_at_or_before(candidate_positions: np.ndarray,
                                segment_start_of: np.ndarray
                                ) -> np.ndarray:
    """Segmented running maximum of marked positions (−1 = none yet).

    ``candidate_positions`` holds each event's own global position
    where the event is a mark and −1 elsewhere; the result holds, per
    event, the latest marked position at or before it *within its
    segment*.
    """
    running = np.maximum.accumulate(candidate_positions)
    return np.where(running >= segment_start_of, running, -1)

@dataclass
class FaultResolution:
    """Per-sync outcome of the vectorized fault resolution.

    Arrays have one entry per *scheduled* sync in tape order.

    Attributes:
        attempts: Attempts made per sync (0 = budget-denied outright).
        success: Whether the sync's final attempt succeeded.
        denied: Whether the sync was denied before its first attempt.
        offsets: Each sync's first draw position in the pre-drawn
            pool (meaningful only where ``attempts > 0``).
        consumed: RNG draws consumed per sync (``2·attempts − 1``
            for i.i.d. plans, ``3·attempts − 1`` for Gilbert–Elliott
            plans whose attempts each take a transition *and* a loss
            draw; 0 for denied syncs).
        denied_retries: Retries refused by the period budget, total.
        trace: The reference channel's per-attempt trace —
            ``(attempt_time, element, outcome_value)`` — or None when
            not recorded.
    """

    attempts: np.ndarray
    success: np.ndarray
    denied: np.ndarray
    offsets: np.ndarray
    consumed: np.ndarray
    denied_retries: int
    trace: list[tuple[float, int, str]] | None


# seedflow: pair=repro.faults.channel.SyncChannel.sync
def _resolve_on_pool(sync_times: np.ndarray, sync_elements: np.ndarray,
                     sizes: np.ndarray, *,
                     thresholds: tuple[float, ...],
                     initial_bad: np.ndarray | None,
                     failure_outcome: PollOutcome,
                     retry_policy: RetryPolicy | None,
                     bandwidth_budget: float | None,
                     period_length: float,
                     rng: np.random.Generator,
                     record_trace: bool
                     ) -> tuple[FaultResolution, np.ndarray | None]:
    """The fault-resolution core behind both public resolvers.

    ``initial_bad`` selects the model.  None means an i.i.d. plan:
    ``thresholds`` is ``(failure_probability,)`` and each attempt
    takes one outcome draw.  A per-element chain state means a
    Gilbert–Elliott plan: ``thresholds`` is ``(p_good_to_bad,
    p_bad_to_good, loss_good, loss_bad)`` and each attempt takes a
    transition draw, then a loss draw against the new state.  Each
    retry adds one jitter draw, so consecutive attempts of one sync
    sit ``stride`` pool positions apart (2 for i.i.d., 3 for GE).

    Pre-draws an oversized uniform pool from ``rng`` (one vectorized
    call), then walks the syncs once to place each sync's draw cursor
    and charge its attempts against the per-period bandwidth ledger —
    the one sequential piece, O(total attempts).  A retry-free GE
    batch in which no period can deny instead evolves its chains with
    a segmented scan (:func:`_ge_scan_states`).  Finally the bit
    generator is rewound and re-advanced by exactly the draws the
    reference :class:`~repro.faults.channel.SyncChannel` would have
    consumed, so downstream draws see an identical stream.

    Returns:
        ``(resolution, final_bad)`` — the per-sync
        :class:`FaultResolution` and the per-element chain state
        after the batch (None for i.i.d. plans).
    """
    ge = initial_bad is not None
    stride = 3 if ge else 2
    m = int(sync_times.shape[0])
    max_attempts = (1 if retry_policy is None
                    else retry_policy.max_retries + 1)
    width = stride * max_attempts - 1
    final_bad = (None if initial_bad is None
                 else np.asarray(initial_bad, dtype=bool).copy())

    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return FaultResolution(
            attempts=empty, success=np.zeros(0, dtype=bool),
            denied=np.zeros(0, dtype=bool), offsets=empty.copy(),
            consumed=empty.copy(), denied_retries=0,
            trace=[] if record_trace else None), final_bad

    state = rng.bit_generator.state
    pool = rng.random(m * width + width)
    sync_sizes = sizes[sync_elements]
    periods = (sync_times / period_length).astype(np.int64)

    scan_route = ge and max_attempts == 1
    if scan_route and bandwidth_budget is not None:
        # The scan needs every sync to make its one attempt.  A
        # denial in period P happens iff the period's sequential
        # spend fold exceeds B at some prefix; spends are
        # nonnegative, so that is iff the period *total* (the same
        # left-fold, via bincount) exceeds B.  When any period can
        # deny, fall through to the exact ledger walk.
        period_spend = np.bincount(periods - periods[0],
                                   weights=sync_sizes)
        scan_route = bool((period_spend <= bandwidth_budget).all())

    denied_retries = 0
    if scan_route:
        assert final_bad is not None
        p_good_to_bad, p_bad_to_good, loss_good, loss_bad = thresholds
        # Retry-free and denial-free: sync i's draws sit at pool
        # positions 2i (transition) and 2i+1 (loss), unconditionally.
        order, state_after, final_bad = _ge_scan_states(
            sync_elements, pool < p_good_to_bad, pool < p_bad_to_good,
            final_bad)
        success = np.empty(m, dtype=bool)
        success[order] = pool[order * 2 + 1] >= np.where(
            state_after, loss_bad, loss_good)
        attempts = np.ones(m, dtype=np.int64)
        offsets = np.arange(m, dtype=np.int64) * 2
        cursor = 2 * m
    else:
        if final_bad is None:
            ok_list = (pool >= thresholds[0]).tolist()
        else:
            p_good_to_bad, p_bad_to_good, loss_good, loss_bad = thresholds
            flip_good_list = (pool < p_good_to_bad).tolist()
            flip_bad_list = (pool < p_bad_to_good).tolist()
            ok_good_list = (pool >= loss_good).tolist()
            ok_bad_list = (pool >= loss_bad).tolist()
            bad_list = final_bad.tolist()
            element_list = sync_elements.tolist()
        size_list = sync_sizes.tolist()
        period_list = periods.tolist()
        out_attempts = [0] * m
        out_success = [False] * m
        out_offsets = [0] * m
        cursor = 0
        current_period = 0
        spent = 0.0
        budget = bandwidth_budget
        for i in range(m):
            period = period_list[i]
            if period > current_period:
                current_period = period
                spent = 0.0
            size = size_list[i]
            if budget is not None and spent + size > budget:
                continue  # denied outright: zero attempts, zero draws
            out_offsets[i] = cursor
            if ge:
                element = element_list[i]
                bad = bad_list[element]
            draw = cursor
            attempts_made = 0
            while True:
                attempts_made += 1
                if ge:
                    # Transition first (the flip probability depends
                    # on the in-state), then the loss draw against
                    # the new state — the reference model's order.
                    bad = ((not flip_bad_list[draw]) if bad
                           else flip_good_list[draw])
                    ok = (ok_bad_list[draw + 1] if bad
                          else ok_good_list[draw + 1])
                else:
                    ok = ok_list[draw]
                if budget is not None:
                    spent += size
                if ok or attempts_made == max_attempts:
                    break
                if budget is not None and spent + size > budget:
                    denied_retries += 1
                    break
                draw += stride
            if ge:
                bad_list[element] = bad
            out_attempts[i] = attempts_made
            out_success[i] = ok
            cursor += stride * attempts_made - 1
        attempts = np.asarray(out_attempts, dtype=np.int64)
        success = np.asarray(out_success, dtype=bool)
        offsets = np.asarray(out_offsets, dtype=np.int64)
        if ge:
            final_bad = np.asarray(bad_list, dtype=bool)

    # Rewind the oversized pool draw, then advance by exactly what the
    # reference channel consumed (array and scalar draws advance the
    # PCG64 state identically).
    rng.bit_generator.state = state
    if cursor:
        # Data-dependent on purpose: re-advances the rewound stream
        # by exactly the reference channel's consumption, so this
        # branch *restores* draw parity rather than breaking it.
        rng.random(cursor)  # freshlint: disable=FL013

    trace: list[tuple[float, int, str]] | None = None
    if record_trace:
        trace = _build_trace(
            sync_times, sync_elements, attempts, success, offsets,
            pool, failure_outcome=failure_outcome,
            retry_policy=retry_policy, draw_stride=stride)

    made = attempts > 0
    return FaultResolution(
        attempts=attempts, success=success, denied=~made,
        offsets=offsets,
        consumed=np.where(made, stride * attempts - 1, 0),
        denied_retries=denied_retries, trace=trace), final_bad


# seedflow: pair=repro.faults.channel.SyncChannel.sync
def resolve_iid_faults(sync_times: np.ndarray,
                       sync_elements: np.ndarray,
                       sizes: np.ndarray, *,
                       failure_probability: float,
                       failure_outcome: PollOutcome,
                       retry_policy: RetryPolicy | None,
                       bandwidth_budget: float | None,
                       period_length: float,
                       rng: np.random.Generator,
                       record_trace: bool = False
                       ) -> FaultResolution:
    """Resolve every scheduled sync's fate under an i.i.d. channel.

    Each attempt takes one outcome draw, failing below
    ``failure_probability``; each retry adds one jitter draw.  Runs
    on the shared core, :func:`_resolve_on_pool`.

    Args:
        sync_times: Scheduled sync times *on the fault clock* (local
            time plus any fault offset), in clock units, nondecreasing.
        sync_elements: Element index per scheduled sync.
        sizes: Per-element transfer sizes, in size units.
        failure_probability: Per-attempt failure probability in
            ``[0, 1]`` (dimensionless).
        failure_outcome: Outcome reported on a failed attempt (must
            be retryable; the dispatcher guarantees this).
        retry_policy: Backoff policy, or None to disable retries.
        bandwidth_budget: Per-period attempt budget B in size units
            per period, or None to disable the ledger.
        period_length: Clock length of one budget period, > 0.
        rng: The fault generator (``fault_rng`` or the shared
            workload generator), advanced exactly as the reference
            channel would.
        record_trace: When True, build the reference-identical
            per-attempt trace (costs a Python loop over attempts).

    Returns:
        The per-sync :class:`FaultResolution`.
    """
    resolution, _ = _resolve_on_pool(
        sync_times, sync_elements, sizes,
        thresholds=(failure_probability,), initial_bad=None,
        failure_outcome=failure_outcome, retry_policy=retry_policy,
        bandwidth_budget=bandwidth_budget, period_length=period_length,
        rng=rng, record_trace=record_trace)
    return resolution


def _build_trace(sync_times: np.ndarray, sync_elements: np.ndarray,
                 attempts: np.ndarray, success: np.ndarray,
                 offsets: np.ndarray, pool: np.ndarray, *,
                 failure_outcome: PollOutcome,
                 retry_policy: RetryPolicy | None,
                 draw_stride: int = 2
                 ) -> list[tuple[float, int, str]]:
    """Reconstruct the reference channel's per-attempt trace.

    Retry timestamps replay the decorrelated-jitter chain: each delay
    is ``min(base + (max(3·prev, base) − base) · u, max_delay)`` with
    ``u`` the jitter draw interleaved between the attempt draws —
    bit-equal to ``rng.uniform(base, anchor)`` in the reference.
    ``draw_stride`` is the pool distance between consecutive attempts
    of one sync: 2 for i.i.d. plans (outcome + jitter), 3 for
    Gilbert–Elliott (transition + loss + jitter); the jitter draw
    always sits last, at ``offset + stride·k + stride − 1``.
    """
    trace: list[tuple[float, int, str]] = []
    ok_value = PollOutcome.OK.value
    fail_value = failure_outcome.value
    base = retry_policy.base_delay if retry_policy is not None else 0.0
    cap = retry_policy.max_delay if retry_policy is not None else 0.0
    pool_list = pool.tolist()
    times_list = sync_times.tolist()
    elements_list = sync_elements.tolist()
    attempts_list = attempts.tolist()
    success_list = success.tolist()
    offsets_list = offsets.tolist()
    for i in range(len(times_list)):
        n_attempts = attempts_list[i]
        if n_attempts == 0:
            continue
        element = int(elements_list[i])
        time = times_list[i]
        offset = offsets_list[i]
        delay = 0.0
        for k in range(n_attempts):
            last = k == n_attempts - 1
            value = (ok_value if last and success_list[i]
                     else fail_value)
            trace.append((time, element, value))
            if not last:
                jitter = pool_list[offset + draw_stride * k
                                   + draw_stride - 1]
                anchor = max(3.0 * delay, base)
                delay = min(base + (anchor - base) * jitter, cap)
                time += delay
    return trace


def _ge_scan_states(sync_elements: np.ndarray, flip_good: np.ndarray,
                    flip_bad: np.ndarray, initial_bad: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-attempt chain states for the retry-free GE fast route.

    With exactly one attempt per sync, sync ``i``'s transition draw
    sits at pool position ``2·i`` and the chain for each element
    evolves as a composition of two-state transition functions — an
    associative operator, so a Hillis–Steele inclusive scan over the
    element-sorted sync sequence replaces the sequential walk.  It
    takes ⌈log₂ L⌉ rounds for the longest element run ``L``, not
    ⌈log₂ m⌉ for the batch: no aggregate reaches past its run.  Each
    per-sync function is encoded as the pair *(state-if-entered-good,
    state-if-entered-bad)*; composing ``g ∘ f`` routes ``g`` through
    ``f``'s outputs with two ``np.where`` selects.

    Args:
        sync_elements: Element index per sync, tape order.
        flip_good: Whether each pool draw flips a good-state chain.
        flip_bad: Whether each pool draw flips a bad-state chain.
        initial_bad: Per-element chain state entering the batch.

    Returns:
        ``(order, state_after_sorted, final_bad)`` — the stable
        element sort permutation, each sync's post-transition state in
        sorted order, and the per-element state after the batch.
    """
    m = int(sync_elements.shape[0])
    order = _stable_element_argsort(sync_elements)
    element_sorted = sync_elements[order]
    transition_at = order * 2
    # out-state of this sync's transition, given the in-state:
    out_if_good = flip_good[transition_at]
    out_if_bad = ~flip_bad[transition_at]
    new_segment, segment_start_of = _segment_starts(element_sorted)
    segment_starts = np.flatnonzero(new_segment)
    segment_ends = np.append(segment_starts[1:] - 1, m - 1)
    # After the round at `shift`, each aggregate spans 2·shift syncs;
    # rounds past the longest element run compose nothing new.
    longest = int((segment_ends - segment_starts).max()) + 1
    positions = np.arange(m, dtype=np.int64)
    shift = 1
    while shift < longest:
        # Compose each position's aggregate with the aggregate
        # `shift` places back (when still inside the same segment):
        # new = current ∘ previous.
        in_segment = positions - shift >= segment_start_of
        prev_good = np.empty_like(out_if_good)
        prev_good[:shift] = False
        prev_good[shift:] = out_if_good[:-shift]
        prev_bad = np.empty_like(out_if_bad)
        prev_bad[:shift] = False
        prev_bad[shift:] = out_if_bad[:-shift]
        composed_good = np.where(
            in_segment, np.where(prev_good, out_if_bad, out_if_good),
            out_if_good)
        composed_bad = np.where(
            in_segment, np.where(prev_bad, out_if_bad, out_if_good),
            out_if_bad)
        out_if_good, out_if_bad = composed_good, composed_bad
        shift <<= 1
    state_after = np.where(initial_bad[element_sorted],
                           out_if_bad, out_if_good)
    final_bad = initial_bad.copy()
    final_bad[element_sorted[segment_ends]] = state_after[segment_ends]
    return order, state_after, final_bad


# seedflow: pair=repro.faults.channel.SyncChannel.sync
def resolve_ge_faults(sync_times: np.ndarray,
                      sync_elements: np.ndarray,
                      sizes: np.ndarray, *,
                      p_good_to_bad: float,
                      p_bad_to_good: float,
                      loss_good: float,
                      loss_bad: float,
                      failure_outcome: PollOutcome,
                      initial_bad: np.ndarray,
                      retry_policy: RetryPolicy | None,
                      bandwidth_budget: float | None,
                      period_length: float,
                      rng: np.random.Generator,
                      record_trace: bool = False
                      ) -> tuple[FaultResolution, np.ndarray]:
    """Resolve every sync's fate under a Gilbert–Elliott channel.

    Each attempt takes one transition draw (against the current
    state's flip probability) and one loss draw (against the new
    state's loss probability); each retry adds one jitter draw.
    Runs on the shared core, :func:`_resolve_on_pool`, which threads
    the chain state explicitly and takes the segmented-scan route
    when the batch is retry-free and no period can deny.

    Args:
        sync_times: Scheduled sync times on the fault clock, in clock
            units, nondecreasing.
        sync_elements: Element index per scheduled sync.
        sizes: Per-element transfer sizes, in size units.
        p_good_to_bad: Per-attempt flip probability out of good.
        p_bad_to_good: Per-attempt flip probability out of bad.
        loss_good: Loss probability in the good state.
        loss_bad: Loss probability in the bad state.
        failure_outcome: Outcome reported on a failed attempt (must
            be retryable; the dispatcher guarantees this).
        initial_bad: Per-element chain state entering this batch,
            shape ``(n_elements,)``, dtype bool; never mutated.
        retry_policy: Backoff policy, or None to disable retries.
        bandwidth_budget: Per-period attempt budget B in size units
            per period, or None to disable the ledger.
        period_length: Clock length of one budget period, > 0.
        rng: The fault generator, advanced exactly as the reference
            channel would.
        record_trace: When True, build the reference-identical
            per-attempt trace.

    Returns:
        ``(resolution, final_bad)`` — the per-sync
        :class:`FaultResolution` and the per-element chain state
        after the batch, for the caller to commit back into the
        model (:meth:`~repro.faults.model.GilbertElliottFaultModel.
        set_chain_states`).
    """
    resolution, final_bad = _resolve_on_pool(
        sync_times, sync_elements, sizes,
        thresholds=(p_good_to_bad, p_bad_to_good, loss_good, loss_bad),
        initial_bad=initial_bad, failure_outcome=failure_outcome,
        retry_policy=retry_policy, bandwidth_budget=bandwidth_budget,
        period_length=period_length, rng=rng,
        record_trace=record_trace)
    assert final_bad is not None
    return resolution, final_bad


def _resolve_faults(sync_times: np.ndarray, sync_elements: np.ndarray,
                    sizes: np.ndarray, *, fault_args: dict,
                    period_length: float,
                    initial_bad: np.ndarray | None,
                    record_trace: bool
                    ) -> tuple[FaultResolution, np.ndarray | None]:
    """Dispatch one batch of scheduled syncs to its model's resolver.

    The one place that reads the type of ``fault_args["model"]``;
    see :func:`resolve_tape_faults` for the arguments.
    ``sync_times`` are already on the fault clock.
    """
    model = fault_args["model"]
    if isinstance(model, GilbertElliottFaultModel):
        if initial_bad is None:
            initial_bad = model.chain_states(sizes.shape[0])
        return resolve_ge_faults(
            sync_times, sync_elements, sizes,
            p_good_to_bad=model.p_good_to_bad,
            p_bad_to_good=model.p_bad_to_good,
            loss_good=model.loss_good, loss_bad=model.loss_bad,
            failure_outcome=model.failure_outcome,
            initial_bad=initial_bad,
            retry_policy=fault_args["retry_policy"],
            bandwidth_budget=fault_args["bandwidth_budget"],
            period_length=period_length, rng=fault_args["rng"],
            record_trace=record_trace)
    resolution = resolve_iid_faults(
        sync_times, sync_elements, sizes,
        failure_probability=model.failure_probability,
        failure_outcome=model.failure_outcome,
        retry_policy=fault_args["retry_policy"],
        bandwidth_budget=fault_args["bandwidth_budget"],
        period_length=period_length, rng=fault_args["rng"],
        record_trace=record_trace)
    return resolution, None


def resolve_tape_faults(tape: tuple[np.ndarray, np.ndarray,
                                    np.ndarray],
                        sizes: np.ndarray, *, fault_args: dict,
                        period_length: float,
                        fault_clock_offset: float,
                        initial_bad: np.ndarray | None = None
                        ) -> tuple[FaultResolution,
                                   np.ndarray | None]:
    """Resolve one tape's scheduled syncs under a kernel fault plan.

    Dispatches on the type of ``fault_args["model"]``: an
    :class:`~repro.faults.model.IIDFaultModel` to
    :func:`resolve_iid_faults`, a
    :class:`~repro.faults.model.GilbertElliottFaultModel` to
    :func:`resolve_ge_faults`.  The batched manager calls this right
    after building each period's tape, so a fault rng shared with
    the workload stream would consume its draws in exactly the
    per-period reference order.

    Gilbert–Elliott plans are resolved against an explicit
    ``initial_bad`` chain state and the model object is *not*
    mutated: the caller threads the returned state into the next
    call and commits it to the model once it is final (a mid-window
    rollback then just drops the tail states).

    Args:
        tape: One ``(times, elements, kinds)`` merged tape.
        sizes: Per-element sizes, in bandwidth units.
        fault_args: Dispatch arguments from
            :meth:`repro.sim.simulation.Simulation.fault_kernel_args`.
        period_length: Clock length of one sync period.
        fault_clock_offset: Added to event times on the fault clock,
            in clock units (whole periods).
        initial_bad: Gilbert–Elliott chain state entering the
            tape, or None to read it from the plan model
            (ignored for i.i.d. plans).

    Returns:
        ``(resolution, final_bad)`` where ``final_bad`` is the chain
        state after the tape for Gilbert–Elliott plans and None for
        i.i.d. plans.
    """
    times, elements, kinds = tape
    sync_positions = np.flatnonzero(kinds == int(EventKind.SYNC))
    return _resolve_faults(
        times[sync_positions] + fault_clock_offset,
        elements[sync_positions], sizes, fault_args=fault_args,
        period_length=period_length, initial_bad=initial_bad,
        record_trace=False)


@dataclass
class _FaultAccounting:
    """Channel-equivalent attempt/failure accounting, folded per slab.

    Attributes:
        attempted_polls: Attempts made, retries included.
        made_polls: Scheduled syncs that made at least one attempt.
        successful_polls: Scheduled syncs whose last attempt
            succeeded.
        denied_polls: Scheduled syncs the period budget denied
            outright.
        denied_retries: Retries the period budget refused.
        attempted_bandwidth: Folded bandwidth of every attempt, in
            size units.
        attempted_poll_counts: Attempts per element.
        failed_poll_counts: Failed attempts per element.
        draws: Fault-rng draws the resolutions consumed.
    """

    attempted_polls: int
    made_polls: int
    successful_polls: int
    denied_polls: int
    denied_retries: int
    attempted_bandwidth: float
    attempted_poll_counts: np.ndarray
    failed_poll_counts: np.ndarray
    draws: int

    @classmethod
    def start(cls, n_elements: int) -> "_FaultAccounting":
        """Nothing attempted yet."""
        return cls(attempted_polls=0, made_polls=0, successful_polls=0,
                   denied_polls=0, denied_retries=0,
                   attempted_bandwidth=0.0,
                   attempted_poll_counts=np.zeros(n_elements,
                                                  dtype=np.int64),
                   failed_poll_counts=np.zeros(n_elements,
                                               dtype=np.int64),
                   draws=0)

    @property
    def failed_polls(self) -> int:
        """Attempts that failed."""
        return self.attempted_polls - self.successful_polls

    @property
    def retries(self) -> int:
        """Attempts beyond each sync's first."""
        return self.attempted_polls - self.made_polls

    def add(self, resolution: FaultResolution,
            sync_elements: np.ndarray, sizes: np.ndarray) -> None:
        """Fold one slab's resolution into the totals."""
        attempts = resolution.attempts
        n_elements = self.attempted_poll_counts.shape[0]
        self.attempted_polls += int(attempts.sum())
        self.made_polls += int(np.count_nonzero(attempts))
        self.successful_polls += int(
            np.count_nonzero(resolution.success))
        self.denied_polls += int(np.count_nonzero(resolution.denied))
        self.denied_retries += resolution.denied_retries
        self.draws += int(resolution.consumed.sum())
        # Every attempt burns its element's size; the channel's
        # sequential += continues with the carry-prepend trick.
        attempt_sizes = np.repeat(sizes[sync_elements], attempts)
        self.attempted_bandwidth = float(np.bincount(
            np.zeros(attempt_sizes.shape[0] + 1, dtype=np.intp),
            weights=np.concatenate([[self.attempted_bandwidth],
                                    attempt_sizes]),
            minlength=1)[0])
        self.attempted_poll_counts += np.bincount(
            sync_elements, weights=attempts,
            minlength=n_elements).astype(np.int64)
        self.failed_poll_counts += np.bincount(
            sync_elements, weights=attempts - resolution.success,
            minlength=n_elements).astype(np.int64)

    def emit(self, failure_outcome: PollOutcome) -> None:
        """Emit the ``faults.*`` counter totals the channel would have.

        The reference channel bumps each counter once per attempt;
        the aggregated adds land on the same totals.  Zero totals are
        skipped so counters that never fired stay absent, as in the
        reference.
        """
        failed_syncs = self.made_polls - self.successful_polls
        for name, total in (
                (f"faults.{failure_outcome.value}", self.failed_polls),
                ("faults.retries", self.retries),
                ("faults.denied_polls", self.denied_polls),
                ("faults.denied_retries", self.denied_retries),
                ("faults.failed_syncs", failed_syncs)):
            if total:
                obs.counter_add(name, total)


def _fold_ledger_bulk(fold, elements: np.ndarray,
                      times: np.ndarray) -> None:
    """Fold one kind of ledger event per element through the cap.

    Replicates :func:`repro.obs.registry.element_label` in bulk —
    indices at or past the cap share the ``"overflow"`` bucket — then
    reduces each bucket to (latest time, event count) before making
    at most ``cap + 1`` scalar ``fold`` calls.  Because ledger folds
    are order-independent (max timestamps, summed counts), this lands
    on the exact ledger the reference loop's per-event scalar calls
    build.
    """
    if elements.shape[0] == 0:
        return
    elements = elements.astype(np.int64, copy=False)
    cap = obs.max_element_labels()
    buckets = np.minimum(elements, cap) if cap > 0 else elements
    n_buckets = int(buckets.max()) + 1
    counts = np.bincount(buckets, minlength=n_buckets)
    latest = np.full(n_buckets, -np.inf)
    np.maximum.at(latest, buckets, times)
    for index in np.flatnonzero(counts):
        label: int | str = ("overflow" if cap > 0 and index >= cap
                            else int(index))
        fold(label, float(latest[index]), int(counts[index]))


def _emit_ledger(times: np.ndarray, elements: np.ndarray,
                 kinds: np.ndarray,
                 run_start_global: np.ndarray | None, *,
                 time_offset: float) -> None:
    """Feed the freshness ledger from a (kept) replay tape.

    Mirrors the reference loop's per-event hooks: every sync still on
    the tape is a *successful* refresh (the faulted paths drop failed
    syncs before replay), and every run-opening update
    (``run_start``) opens a stale run.  Times shift by
    ``time_offset`` onto the global fault clock, matching the
    ``time + fault_time_offset`` stamps the reference loop records.
    """
    if times.shape[0] == 0 or run_start_global is None:
        return
    ledger = obs.get_registry().ledger
    sync_mask = kinds == int(EventKind.SYNC)
    _fold_ledger_bulk(ledger.record_refresh, elements[sync_mask],
                      times[sync_mask] + time_offset)
    _fold_ledger_bulk(ledger.record_stale,
                      elements[run_start_global],
                      times[run_start_global] + time_offset)


def _emit_period_series(times: np.ndarray, elements: np.ndarray,
                        kinds: np.ndarray, sizes: np.ndarray,
                        fresh_before_global: np.ndarray | None,
                        run_start_global: np.ndarray | None,
                        becomes_fresh_global: np.ndarray | None,
                        n_elements: int, *,
                        period_length: float, n_periods: float,
                        planned: float,
                        failed_per_period: np.ndarray | None,
                        retries_per_period: np.ndarray | None,
                        first_period: int, initial_fresh: int
                        ) -> None:
    """Emit the per-period ``"sim.period"`` telemetry series.

    Counts what the reference loop's ``_PeriodTracker`` counts event
    by event — per-period integer counts, the sequentially folded
    bandwidth and the mirror's instantaneous mean freshness at each
    period boundary — with bincounts, and emits one event per
    completed (or final partial) period through
    :func:`~repro.sim.evaluator.emit_period`.
    ``failed_per_period`` / ``retries_per_period`` carry the faulted
    path's per-period attempt accounting (zeros when None).

    It runs once per slab: ``first_period`` offsets the emitted
    period labels (the slab's events carry run-clock times),
    ``n_periods`` counts the *slab's* periods, and ``initial_fresh``
    is the instantaneous fresh-copy count entering the slab.
    """
    last_period = max(int(np.ceil(n_periods)) - 1, 0)
    n_buckets = last_period + 1
    n_events = int(times.shape[0])

    if n_events:
        assert (fresh_before_global is not None
                and run_start_global is not None
                and becomes_fresh_global is not None)
        period_index = ((times / period_length).astype(np.int64)
                        - first_period)
        update_kind = int(EventKind.UPDATE)
        sync_kind = int(EventKind.SYNC)
        global_update = kinds == update_kind
        global_sync = kinds == sync_kind
        global_access = ~global_update & ~global_sync

        def per_period(mask: np.ndarray) -> np.ndarray:
            return np.bincount(period_index[mask], minlength=n_buckets)

        syncs_per_period = per_period(global_sync)
        updates_per_period = per_period(global_update)
        accesses_per_period = per_period(global_access)
        fresh_accesses_per_period = per_period(
            global_access & fresh_before_global)
        bandwidth_per_period = np.bincount(
            period_index[global_sync],
            weights=sizes[elements[global_sync]], minlength=n_buckets)

        # Instantaneous fresh-copy count after each event: −1 when a
        # run-opening update stales a copy, +1 when a sync refreshes
        # a stale one.
        delta = np.zeros(n_events, dtype=np.int64)
        delta[run_start_global] = -1
        delta[becomes_fresh_global] = 1
        fresh_count = initial_fresh + np.cumsum(delta)
        boundary = np.searchsorted(period_index,
                                   np.arange(n_buckets), side="right") - 1
        mean_freshness = np.where(
            boundary >= 0,
            fresh_count[np.maximum(boundary, 0)], initial_fresh
        ) / n_elements
    else:
        zeros = np.zeros(n_buckets, dtype=np.int64)
        syncs_per_period = updates_per_period = zeros
        accesses_per_period = fresh_accesses_per_period = zeros
        bandwidth_per_period = np.zeros(n_buckets)
        mean_freshness = np.full(n_buckets, initial_fresh / n_elements)

    if failed_per_period is None:
        failed_per_period = np.zeros(n_buckets, dtype=np.int64)
    if retries_per_period is None:
        retries_per_period = np.zeros(n_buckets, dtype=np.int64)

    for period in range(n_buckets):
        emit_period(
            first_period + period,
            syncs=int(syncs_per_period[period]),
            bandwidth=float(bandwidth_per_period[period]),
            planned=planned,
            updates=int(updates_per_period[period]),
            accesses=int(accesses_per_period[period]),
            fresh_accesses=int(fresh_accesses_per_period[period]),
            mean_freshness=float(mean_freshness[period]),
            failed_polls=int(failed_per_period[period]),
            retries=int(retries_per_period[period]))


class ReplayArena:
    """Reusable scratch buffers for slab-by-slab tape generation.

    A chunked run draws one period of events after another, and each
    ``draw_window_sorted`` call (:mod:`repro.sim.generators`) expands
    per-element counts into index arrays of about the period's size
    (slots ``gen_update_elements`` and ``gen_access_elements``).  The
    one-shot route draws once and needs no arena.  An arena keeps one
    geometrically grown buffer per named slot and hands out prefix
    views, so after warm-up a steady-state period performs zero
    expansion allocations.  Replay itself needs no scratch: its
    cross-slab state is the :class:`ReplayCarry`.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, size: int, dtype: Any) -> np.ndarray:
        """Return a ``size``-long view of the named scratch buffer.

        Grows the backing buffer geometrically (2×) when ``size``
        outruns it, and reallocates when the requested dtype changes;
        contents are uninitialized — callers must overwrite the view.
        """
        wanted = np.dtype(dtype)
        buffer = self._buffers.get(name)
        if (buffer is None or buffer.dtype != wanted
                or buffer.shape[0] < size):
            capacity = max(size, 1)
            if buffer is not None and buffer.dtype == wanted:
                capacity = max(capacity, 2 * buffer.shape[0])
            buffer = np.empty(capacity, dtype=wanted)
            self._buffers[name] = buffer
        return buffer[:size]

    def nbytes(self) -> int:
        """Total bytes currently held across all slots."""
        return sum(buffer.nbytes
                   for buffer in self._buffers.values())


@dataclass
class ReplayCarry:
    """Per-element copy state threaded from slab to slab.

    Everything the replay would otherwise derive from "start of tape"
    lives here, so :func:`_replay_tape_chunk` picks up exactly where
    the previous slab stopped; a replay starts from :meth:`start`.
    Integer fields are exact; the float
    accumulators (``fresh_time``, ``age_integral``,
    ``bandwidth_used``) are partial *left folds* in event order, which
    the next slab continues bit-exactly by prepending them to its own
    fold (see the module notes on ``np.bincount``).

    Attributes:
        fresh: Whether each copy is fresh after the last event seen.
        stale_since: Start time of each element's open stale run, in
            clock units (stale elements only; otherwise a stale but
            finite leftover that the kernel never reads).
        last_time: Time of each element's last event so far, in clock
            units (0 before any event).
        versions: Source updates seen per element so far.
        last_polled_version: Source version observed at each
            element's last successful poll (0 before any).
        fresh_time: Folded fresh clock time per element so far.
        age_integral: Folded age integral per element so far.
        poll_counts: Successful polls per element so far.
        changed_poll_counts: Polls that found a new version.
        access_counts: Accesses per element so far.
        n_updates: Update events so far, tape-wide.
        n_syncs: Successful sync events so far, tape-wide.
        n_accesses: Access events so far, tape-wide.
        useful_syncs: Syncs that found a new version, tape-wide.
        fresh_accesses: Accesses that saw fresh data, tape-wide.
        bandwidth_used: Folded sync bandwidth so far, in size units.
        fresh_count: Instantaneous fresh-copy count after the last
            event (the period telemetry series' running level).
    """

    fresh: np.ndarray
    stale_since: np.ndarray
    last_time: np.ndarray
    versions: np.ndarray
    last_polled_version: np.ndarray
    fresh_time: np.ndarray
    age_integral: np.ndarray
    poll_counts: np.ndarray
    changed_poll_counts: np.ndarray
    access_counts: np.ndarray
    n_updates: int
    n_syncs: int
    n_accesses: int
    useful_syncs: int
    fresh_accesses: int
    bandwidth_used: float
    fresh_count: int

    @classmethod
    def start(cls, n_elements: int) -> "ReplayCarry":
        """The start-of-tape state: every copy fresh and untouched."""
        return cls(
            fresh=np.ones(n_elements, dtype=bool),
            stale_since=np.zeros(n_elements),
            last_time=np.zeros(n_elements),
            versions=np.zeros(n_elements, dtype=np.int64),
            last_polled_version=np.zeros(n_elements, dtype=np.int64),
            fresh_time=np.zeros(n_elements),
            age_integral=np.zeros(n_elements),
            poll_counts=np.zeros(n_elements, dtype=np.int64),
            changed_poll_counts=np.zeros(n_elements, dtype=np.int64),
            access_counts=np.zeros(n_elements, dtype=np.int64),
            n_updates=0, n_syncs=0, n_accesses=0,
            useful_syncs=0, fresh_accesses=0,
            bandwidth_used=0.0, fresh_count=n_elements,
        )

    def nbytes(self) -> int:
        """Bytes held by the per-element carry arrays."""
        return sum(
            getattr(self, field).nbytes
            for field in ("fresh", "stale_since", "last_time",
                          "versions", "last_polled_version",
                          "fresh_time", "age_integral", "poll_counts",
                          "changed_poll_counts", "access_counts"))


def _fold_with_carry(carry_values: np.ndarray, bins: np.ndarray,
                     increments: np.ndarray, counted: np.ndarray
                     ) -> np.ndarray:
    """Continue per-element left folds with one slab of increments.

    ``bins`` is ``arange(n)`` followed by each event's element, so
    every element's carried accumulator is its bin's first weight and
    the in-order per-bin fold computes ``((carry + w₁) + w₂) + …`` —
    exactly the reference loop's ``+=``.  Events where ``counted`` is
    False add ``0.0``, the increment the loop never performs.
    """
    n_elements = carry_values.shape[0]
    weights = np.zeros(bins.shape[0])
    weights[:n_elements] = carry_values
    np.copyto(weights[n_elements:], increments, where=counted)
    return np.bincount(bins, weights=weights, minlength=n_elements)


def _replay_tape_chunk(carry: ReplayCarry, sizes: np.ndarray,
                       times: np.ndarray, elements: np.ndarray,
                       kinds: np.ndarray
                       ) -> tuple[np.ndarray | None, np.ndarray | None,
                                  np.ndarray | None]:
    """Fold one slab of a (kept) tape into the carry state.

    The replay kernel.  Wherever the reference loop's state comes from
    before the slab, the kernel reads the carry: the fresh flag where
    no in-slab state change precedes an event, ``stale_since`` where
    no in-slab run start precedes it, the last event time at segment
    starts, and the version counters under the poll bookkeeping.
    Folding slabs ``[0,a) [a,b) …`` of a tape through one carry is
    bit-identical to the reference loop over the whole tape.  The
    caller keeps slabs below :data:`_SLAB_EVENT_LIMIT` events.

    Args:
        carry: The cross-slab state; mutated in place.
        sizes: Per-element transfer sizes, in size units.
        times: Slab event times (global clock), time-ordered.
        elements: Element id per slab event.
        kinds: :class:`~repro.sim.events.EventKind` per slab event.

    Returns:
        ``(fresh_before, run_start, becomes_fresh)`` flags in *tape*
        order for the telemetry series, or all None for an empty slab.
    """
    n_events = int(times.shape[0])
    if not n_events:
        return None, None, None
    n_elements = int(carry.fresh.shape[0])
    update_kind = int(EventKind.UPDATE)
    sync_kind = int(EventKind.SYNC)

    order = _stable_element_argsort(elements)
    element_of = elements[order]
    time_of = times[order]
    kind_of = kinds[order]
    positions = np.arange(n_events, dtype=np.int32)

    new_segment, segment_start_of = _segment_starts(element_of)
    segment_start_of = segment_start_of.astype(np.int32, copy=False)
    segment_start_positions = np.flatnonzero(new_segment)
    segment_end_positions = np.append(
        segment_start_positions[1:] - 1, n_events - 1)
    present = element_of[segment_start_positions]

    # Previous event time: within-slab shift, carried time at starts.
    previous_time = _shift_within_segment(time_of, new_segment, 0.0)
    previous_time[segment_start_positions] = carry.last_time[present]
    if (time_of < previous_time).any():
        raise SimulationError(
            "slab events precede the carried replay clock")
    elapsed = time_of - previous_time

    is_update = kind_of == update_kind
    is_sync = kind_of == sync_kind
    is_access = ~is_update & ~is_sync

    # Fresh flag before each event: last in-slab state change decides;
    # otherwise the carried flag.
    state_change_positions = np.where(is_update | is_sync,
                                      positions, -1)
    last_state_change = _last_position_at_or_before(
        state_change_positions, segment_start_of)
    previous_state_change = np.empty_like(last_state_change)
    previous_state_change[0] = -1
    previous_state_change[1:] = last_state_change[:-1]
    previous_state_change = np.where(
        previous_state_change >= segment_start_of,
        previous_state_change, -1)
    fresh_before = (kind_of[np.maximum(previous_state_change, 0)]
                    == sync_kind)
    carried_state = np.flatnonzero(previous_state_change < 0)
    fresh_before[carried_state] = carry.fresh[element_of[carried_state]]

    # Stale-run starts: in-slab run start pins stale_since; a copy
    # still stale from before the slab reads the carried run start.
    # Fresh events read a finite leftover the increment mask discards.
    run_start = is_update & fresh_before
    run_start_positions = np.where(run_start, positions, -1)
    since_position = _last_position_at_or_before(
        run_start_positions, segment_start_of)
    stale_since = time_of[np.maximum(since_position, 0)]
    carried_run = np.flatnonzero((since_position < 0) & ~fresh_before)
    stale_since[carried_run] = carry.stale_since[element_of[carried_run]]

    # The reference loop squares np.float64 *scalars* (libm pow);
    # np.float_power is the array op that matches it bit-for-bit.
    age_increment = np.float_power(time_of - stale_since, 2.0)
    age_increment -= np.float_power(previous_time - stale_since, 2.0)
    age_increment *= 0.5
    fold_bins = np.concatenate([np.arange(n_elements, dtype=np.intp),
                                element_of])
    carry.fresh_time = _fold_with_carry(carry.fresh_time, fold_bins,
                                        elapsed, fresh_before)
    carry.age_integral = _fold_with_carry(carry.age_integral, fold_bins,
                                          age_increment, ~fresh_before)
    del fold_bins  # n + events indices: keep them out of the peak

    # Poll bookkeeping on absolute source versions: the carried update
    # count anchors in-slab cumulative counts, and a slab-opening poll
    # compares against the carried last-polled version.
    updates_so_far = np.cumsum(is_update, dtype=np.int32)
    updates_before = ((updates_so_far - is_update)
                      - (updates_so_far[segment_start_of]
                         - is_update[segment_start_of]))
    sync_positions = np.flatnonzero(is_sync)
    sync_elements = element_of[sync_positions]
    sync_versions = (updates_before[sync_positions]
                     + carry.versions[sync_elements])
    previous_versions = np.zeros_like(sync_versions)
    if sync_versions.shape[0]:
        previous_versions[1:] = sync_versions[:-1]
        first_poll = np.empty(sync_versions.shape[0], dtype=bool)
        first_poll[0] = True
        np.not_equal(sync_elements[1:], sync_elements[:-1],
                     out=first_poll[1:])
        previous_versions[first_poll] = carry.last_polled_version[
            sync_elements[first_poll]]
    changed = sync_versions > previous_versions

    # Final per-element state for the next slab (read the old carry
    # before overwriting it).
    final_state_change = last_state_change[segment_end_positions]
    carry_fresh_present = carry.fresh[present]
    final_fresh = np.where(
        final_state_change >= 0,
        kind_of[np.maximum(final_state_change, 0)] == sync_kind,
        carry_fresh_present)
    final_since = since_position[segment_end_positions]
    carry.stale_since[present] = np.where(
        final_since >= 0, time_of[np.maximum(final_since, 0)],
        carry.stale_since[present])
    carry.fresh[present] = final_fresh
    carry.last_time[present] = time_of[segment_end_positions]
    carry.versions[present] += (
        updates_so_far[segment_end_positions]
        - updates_so_far[segment_start_positions]
        + is_update[segment_start_positions])
    if sync_versions.shape[0]:
        last_poll = np.empty(sync_elements.shape[0], dtype=bool)
        last_poll[-1] = True
        np.not_equal(sync_elements[1:], sync_elements[:-1],
                     out=last_poll[:-1])
        carry.last_polled_version[sync_elements[last_poll]] = (
            sync_versions[last_poll])

    carry.poll_counts += np.bincount(
        sync_elements, minlength=n_elements).astype(np.int64)
    carry.changed_poll_counts += np.bincount(
        sync_elements[changed], minlength=n_elements).astype(np.int64)
    access_positions = np.flatnonzero(is_access)
    carry.access_counts += np.bincount(
        element_of[access_positions],
        minlength=n_elements).astype(np.int64)
    access_fresh = fresh_before[access_positions]
    becomes_fresh = is_sync & ~fresh_before
    carry.n_updates += int(np.count_nonzero(is_update))
    carry.n_syncs += int(sync_positions.shape[0])
    carry.n_accesses += int(access_positions.shape[0])
    carry.useful_syncs += int(np.count_nonzero(changed))
    carry.fresh_accesses += int(np.count_nonzero(access_fresh))
    carry.fresh_count += (int(np.count_nonzero(becomes_fresh))
                          - int(np.count_nonzero(run_start)))

    # Bandwidth folds over syncs in *global* time order.
    sync_sizes = sizes[elements[kinds == sync_kind]]
    carry.bandwidth_used = float(np.bincount(
        np.zeros(sync_sizes.shape[0] + 1, dtype=np.intp),
        weights=np.concatenate([[carry.bandwidth_used], sync_sizes]),
        minlength=1)[0])

    fresh_before_global = np.empty(n_events, dtype=bool)
    fresh_before_global[order] = fresh_before
    run_start_global = np.empty(n_events, dtype=bool)
    run_start_global[order] = run_start
    becomes_fresh_global = np.empty(n_events, dtype=bool)
    becomes_fresh_global[order] = becomes_fresh
    return fresh_before_global, run_start_global, becomes_fresh_global


#: ``sim.engine.*`` label per kernel fault-model type.
_FAULT_ENGINES = {IIDFaultModel: "fastpath_faulted",
                  GilbertElliottFaultModel: "fastpath_ge"}


class StreamingReplay:
    """Replay a horizon one whole-period slab at a time.

    Feed consecutive slabs of the merged event tape (run clock, split
    at period boundaries) with :meth:`feed`, then call :meth:`finish`
    for the :class:`SimulationResult`.  Every vectorized route runs
    through this class: a one-shot replay is a single slab.
    :meth:`finish` hands the carry to the evaluator's run epilogue
    (:func:`~repro.sim.evaluator.flush_to_horizon`,
    :func:`~repro.sim.evaluator.close_run`), the one the reference
    loop uses.  The result — including telemetry series, freshness
    ledger, fault accounting, fault trace and post-run fault-rng /
    Gilbert–Elliott chain state — is bit-identical to the reference
    loop over the concatenated tape, for any split, while holding
    only O(slab) transient memory plus the O(n) :class:`ReplayCarry`.

    Args:
        catalog: The simulated workload.
        frequencies: Per-element sync frequencies, in syncs/period.
        period_length: Clock length of one sync period.
        n_periods: Total periods the fed slabs must cover (may be
            fractional; only the final slab may end off a period
            boundary).
        fault_args: Dispatch arguments from
            :meth:`repro.sim.simulation.Simulation.fault_kernel_args`
            (model, retry policy, budget, rng), or None for
            fault-free replay.
        fault_time_offset: Clock offset added to sync times on the
            fault clock and to ledger stamps, in clock units (whole
            periods).
        record_fault_trace: Whether to build the reference-identical
            per-attempt fault trace.
    """

    def __init__(self, catalog: Catalog, frequencies: np.ndarray, *,
                 period_length: float, n_periods: float,
                 fault_args: dict | None = None,
                 fault_time_offset: float = 0.0,
                 record_fault_trace: bool = False) -> None:
        n = catalog.n_elements
        self._catalog = catalog
        self._frequencies = frequencies
        self._period_length = float(period_length)
        self._n_periods = float(n_periods)
        self._horizon = n_periods * period_length
        self._fault_args = fault_args
        self._fault_time_offset = float(fault_time_offset)
        self._sizes = np.asarray(catalog.sizes, dtype=float)
        self._planned = float(self._sizes @ frequencies)
        self._carry = ReplayCarry.start(n)
        self._faults: _FaultAccounting | None = None
        self._engine = "fastpath"
        if fault_args is not None:
            self._faults = _FaultAccounting.start(n)
            self._engine = _FAULT_ENGINES[type(fault_args["model"])]
        self._trace: list[tuple[float, int, str]] | None = (
            [] if record_fault_trace and fault_args is not None
            else None)
        self._chain: np.ndarray | None = None
        self._periods_done = 0.0
        self._next_first_period = 0
        self._fractional_tail = False
        self._finished = False

    @property
    def carry(self) -> ReplayCarry:
        """The cross-slab per-element state (read-mostly for tests)."""
        return self._carry

    # seedflow: pair=repro.sim.simulation.Simulation.run
    def feed(self, times: np.ndarray, elements: np.ndarray,
             kinds: np.ndarray, *, n_periods: float) -> None:
        """Fold the next slab of the tape into the replay.

        Args:
            times: Slab event times on the run clock, time-ordered,
                all within the slab's period window.
            elements: Element id per slab event.
            kinds: :class:`~repro.sim.events.EventKind` per event.
            n_periods: Periods this slab covers.  Slabs start at
                whole-period boundaries; a fractional count is
                allowed only for the final slab.

        Raises:
            SimulationError: On a slab out of order, after
                :meth:`finish`, or too large for the kernel's int32
                positions (the message names the largest
                ``chunk_periods`` that fits).
        """
        self._feed(times, elements, kinds, n_periods=n_periods)

    def finish(self) -> SimulationResult:
        """Flush the horizon and assemble the result.

        Runs the shared epilogue,
        :func:`~repro.sim.evaluator.close_run`: telemetry on emits
        the run's ``monitor.*``/``sim.*`` summary, contracts on check
        its sync conservation and, under a fault budget, its attempt
        budget.
        """
        return self._finish()

    # The routes inside this module call the private pair below, not
    # the public methods, so instrumenting feed/finish (as a profiler
    # does) sees each replay once.

    def _feed(self, times: np.ndarray, elements: np.ndarray,
              kinds: np.ndarray, *, n_periods: float,
              resolution: FaultResolution | None = None) -> None:
        """:meth:`feed`, optionally with the slab's faults resolved.

        ``resolution`` covers the slab's scheduled syncs in tape
        order (from :func:`resolve_tape_faults`); without it the slab
        is resolved here, on the plan's fault rng.
        """
        if self._finished:
            raise SimulationError(
                "StreamingReplay.feed after finish()")
        if self._fractional_tail:
            raise SimulationError(
                "streaming slabs must split at whole periods; only "
                "the final slab may cover a fractional count")
        if n_periods <= 0.0:
            raise SimulationError(
                f"slab must cover > 0 periods, got {n_periods}")
        n_events = int(times.shape[0])
        if n_events >= _SLAB_EVENT_LIMIT:
            per_period = n_events / n_periods
            fits = int((_SLAB_EVENT_LIMIT - 1) // per_period)
            remedy = (f"chunk_periods={fits} or fewer fits"
                      if fits >= 1 else
                      "even one period is too large; shrink the "
                      "catalog or its event rates")
            raise SimulationError(
                f"slab of {n_events} events over {n_periods:g} "
                f"periods ({per_period:.0f} events per period) "
                f"overflows int32 positions; {remedy}")
        first_period = self._next_first_period
        if n_events and (float(times[0])
                         < first_period * self._period_length):
            raise SimulationError(
                "slab events precede the slab's period window")

        failed_per_period = None
        retries_per_period = None
        telemetry_on = obs.telemetry_enabled()
        if self._faults is not None:
            assert self._fault_args is not None
            sync_positions = np.flatnonzero(kinds == int(EventKind.SYNC))
            sync_elements = elements[sync_positions]
            if resolution is None:
                resolution, self._chain = _resolve_faults(
                    times[sync_positions] + self._fault_time_offset,
                    sync_elements, self._sizes,
                    fault_args=self._fault_args,
                    period_length=self._period_length,
                    initial_bad=self._chain,
                    record_trace=self._trace is not None)
            elif resolution.success.shape[0] != sync_positions.shape[0]:
                raise SimulationError(
                    f"resolution covers {resolution.success.shape[0]} "
                    f"syncs but the slab schedules "
                    f"{sync_positions.shape[0]}")
            self._faults.add(resolution, sync_elements, self._sizes)
            if self._trace is not None and resolution.trace is not None:
                self._trace.extend(resolution.trace)
            if telemetry_on:
                n_buckets = max(int(np.ceil(n_periods)) - 1, 0) + 1
                sync_buckets = ((times[sync_positions]
                                 / self._period_length)
                                .astype(np.int64) - first_period)
                failed_per_period = np.bincount(
                    sync_buckets,
                    weights=(resolution.attempts - resolution.success),
                    minlength=n_buckets).astype(np.int64)
                retries_per_period = np.bincount(
                    sync_buckets,
                    weights=(resolution.attempts
                             - (resolution.attempts > 0)),
                    minlength=n_buckets).astype(np.int64)
            # One index gather instead of three boolean-mask scans.
            keep = np.ones(n_events, dtype=bool)
            keep[sync_positions[~resolution.success]] = False
            kept = np.flatnonzero(keep)
            times = times[kept]
            elements = elements[kept]
            kinds = kinds[kept]

        fresh_base = self._carry.fresh_count
        fresh_before, run_start, becomes_fresh = _replay_tape_chunk(
            self._carry, self._sizes, times, elements, kinds)
        if telemetry_on:
            _emit_period_series(
                times, elements, kinds, self._sizes,
                fresh_before, run_start, becomes_fresh,
                self._catalog.n_elements,
                period_length=self._period_length,
                n_periods=n_periods, planned=self._planned,
                failed_per_period=failed_per_period,
                retries_per_period=retries_per_period,
                first_period=first_period,
                initial_fresh=fresh_base)
            _emit_ledger(times, elements, kinds, run_start,
                         time_offset=self._fault_time_offset)

        self._periods_done += n_periods
        whole = int(n_periods)
        if float(whole) != float(n_periods):
            self._fractional_tail = True
        self._next_first_period = first_period + max(whole, 1)

    def _finish(self) -> SimulationResult:
        """:meth:`finish`."""
        if self._finished:
            raise SimulationError("StreamingReplay.finish called twice")
        if abs(self._periods_done - self._n_periods) > 1e-9:
            raise SimulationError(
                f"streamed slabs cover {self._periods_done} periods, "
                f"expected {self._n_periods}")
        self._finished = True
        carry = self._carry
        faults = self._faults
        if self._chain is not None:
            assert self._fault_args is not None
            self._fault_args["model"].set_chain_states(self._chain)
        flush_to_horizon(carry.fresh_time, carry.age_integral, carry.fresh,
                         carry.stale_since, carry.last_time, self._horizon)

        fields: dict = {"attempted_polls": carry.n_syncs,
                        "attempted_bandwidth": carry.bandwidth_used}
        budget = None
        if faults is not None:
            assert self._fault_args is not None
            if obs.telemetry_enabled():
                faults.emit(self._fault_args["model"].failure_outcome)
            budget = self._fault_args["bandwidth_budget"]
            fields.update(
                attempted_polls=faults.attempted_polls,
                failed_polls=faults.failed_polls,
                retries=faults.retries,
                denied_polls=faults.denied_polls,
                attempted_bandwidth=faults.attempted_bandwidth,
                attempted_poll_counts=faults.attempted_poll_counts,
                failed_poll_counts=faults.failed_poll_counts,
                unreachable_poll_counts=np.zeros(
                    self._catalog.n_elements, dtype=np.int64),
                fault_trace=(None if self._trace is None
                             else tuple(self._trace)))
        return close_run(
            SimulationResult(
                catalog=self._catalog,
                frequencies=self._frequencies,
                horizon=self._horizon,
                period_length=self._period_length,
                n_updates=carry.n_updates,
                n_syncs=carry.n_syncs,
                n_accesses=carry.n_accesses,
                fresh_accesses=carry.fresh_accesses,
                useful_syncs=carry.useful_syncs,
                bandwidth_used=carry.bandwidth_used,
                element_time_freshness=carry.fresh_time / self._horizon,
                element_time_age=carry.age_integral / self._horizon,
                access_counts=carry.access_counts,
                poll_counts=carry.poll_counts,
                changed_poll_counts=carry.changed_poll_counts,
                **fields),
            engine=self._engine, n_periods=self._n_periods,
            attempt_budget=budget)


# seedflow: pair=repro.sim.simulation.Simulation.run
def replay_fastpath(catalog: Catalog, frequencies: np.ndarray,
                    times: np.ndarray, elements: np.ndarray,
                    kinds: np.ndarray, *, horizon: float,
                    period_length: float, n_periods: float
                    ) -> SimulationResult:
    """Replay a merged fault-free event tape as one slab.

    Args:
        catalog: The simulated workload.
        frequencies: The schedule's per-element sync frequencies, in
            syncs per period.
        times: Merged event times, globally time-ordered.
        elements: Element id per merged event.
        kinds: :class:`~repro.sim.events.EventKind` per merged event.
        horizon: Total simulated clock time.
        period_length: Clock length of one sync period.
        n_periods: Periods simulated (may be fractional).

    Returns:
        A :class:`SimulationResult` bit-identical to the reference
        loop's for the same tape.
    """
    replay = StreamingReplay(catalog, frequencies,
                             period_length=period_length,
                             n_periods=n_periods)
    # Flush to the caller's horizon (normally n_periods·period_length).
    replay._horizon = float(horizon)
    replay._feed(times, elements, kinds, n_periods=n_periods)
    return replay._finish()


# seedflow: pair=repro.sim.simulation.Simulation.run
def replay_window_tapes(catalog: Catalog, frequencies: np.ndarray,
                        tapes: list[tuple[np.ndarray, np.ndarray,
                                          np.ndarray]], *,
                        period_length: float,
                        first_global_period: int,
                        fault_args: dict | None = None,
                        resolutions: (list[FaultResolution]
                                      | None) = None
                        ) -> tuple[list[SimulationResult], list[int]]:
    """Replay consecutive one-period tapes as one-period runs.

    The window-batched adaptive manager generates one event tape per
    period (preserving the per-period draw order, so common-random-
    number seeds line up with per-period runs), then hands a group of
    them here.  Period ``j`` replays as one slab of its own, exactly
    as ``Simulation.run(1)`` with the matching ``fault_time_offset``
    would replay it, so each result is bit-identical to running the
    period separately.

    Args:
        catalog: The simulated workload (all periods share it).
        frequencies: Per-element sync frequencies, in syncs/period
            (constant within a replan window by construction).
        tapes: One ``(times, elements, kinds)`` merged tape per
            period, with *local* times in ``[0, period_length)``.
        period_length: Clock length of one sync period.
        first_global_period: 1-based global index of the window's
            first period; period ``j`` of the window runs on the
            fault clock at offset
            ``(first_global_period + j − 1) · period_length``.
        fault_args: The dispatch arguments from
            :meth:`repro.sim.simulation.Simulation.fault_kernel_args`,
            or None for a fault-free window.  Unless ``resolutions``
            is supplied, each period's faults are resolved on
            ``fault_args["rng"]`` after every tape was drawn, so the
            fault rng must be *dedicated* (not shared with the
            workload rng) for the draws to match per-period runs.
        resolutions: Pre-computed per-period fault resolutions from
            :func:`resolve_tape_faults`, one per tape, produced by
            interleaving resolution with tape construction.  With
            these the shared-stream restriction above disappears —
            the draws already happened in per-period order — and
            this function consumes no RNG.  Requires ``fault_args``
            for the accounting metadata (outcome, budget).

    Returns:
        ``(results, consumed)`` — one :class:`SimulationResult` per
        period and the number of fault-rng draws consumed per period
        (all zeros when fault-free).  The manager does not read
        ``consumed``: it rolls back by restoring bit-generator state
        snapshots.
    """
    if resolutions is not None:
        if fault_args is None:
            raise SimulationError(
                "replay_window_tapes: resolutions requires "
                "fault_args for the accounting metadata")
        if len(resolutions) != len(tapes):
            raise SimulationError(
                "replay_window_tapes: expected one resolution per "
                f"tape, got {len(resolutions)} for {len(tapes)}")

    results: list[SimulationResult] = []
    consumed: list[int] = []
    for j, (times, elements, kinds) in enumerate(tapes):
        replay = StreamingReplay(
            catalog, frequencies, period_length=period_length,
            n_periods=1.0, fault_args=fault_args,
            fault_time_offset=(first_global_period - 1 + j)
            * period_length)
        replay._feed(times, elements, kinds, n_periods=1.0,
                     resolution=(resolutions[j] if resolutions
                                 is not None else None))
        results.append(replay._finish())
        consumed.append(0 if replay._faults is None
                        else replay._faults.draws)
    return results, consumed
