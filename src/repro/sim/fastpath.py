"""Vectorized replay of the simulation event tape.

Every vectorized route consumes the *same* events the per-event
reference loop in :meth:`repro.sim.simulation.Simulation.run` walks,
and produces a :class:`~repro.sim.evaluator.SimulationResult` that is
**bit-identical** — not merely statistically equivalent — to the
reference loop's.  The loop walks the merged, time-ordered tape; the
kernel needs no global time order, so :meth:`Simulation.run` feeds it
the generated kind blocks unmerged.  There is one replay core: a
:class:`ReplayCarry` of per-element copy state, folded forward one
slab at a time by :func:`_replay_tape_chunk`.  The routes differ
only in how they slice the events:

* :class:`StreamingReplay` feeds consecutive whole-period slabs and
  assembles the result once, from the carry;
* :func:`replay_fastpath` is one slab, fed from
  :meth:`ReplayCarry.start`;
* :func:`replay_window_tapes` replays each one-period tape it is
  given as its own one-slab run; the adaptive manager hands it one
  period at a time.

Only the stepping is the kernel's own.  A finished run is packaged by
:mod:`repro.sim.evaluator`, exactly as the reference loop's is: the
carry is flushed by :func:`~repro.sim.evaluator.flush_to_horizon`,
the result derives its monitored metrics, and
:func:`~repro.sim.evaluator.close_run` emits the ``monitor.*`` and
``sim.*`` telemetry and checks the run contracts; each slab's
per-period counts go out through
:func:`~repro.sim.evaluator.emit_period`.

Faults are resolved inside :class:`StreamingReplay`, slab by slab,
before the replay: one dispatch on the type of
``fault_args["model"]`` picks :func:`resolve_iid_faults` (one i.i.d.
model) or :func:`resolve_ge_faults` (one Gilbert–Elliott model).
The replay reads the Gilbert–Elliott chain state from the model and
commits it back when the run finishes.  :func:`resolve_tape_faults`
is the same dispatch over one whole tape, for callers that drop the
failed syncs themselves.  Both resolvers run on one core,
:func:`_resolve_on_pool`, which decides every scheduled sync's
attempts and success; the replay's sort then leaves the failed syncs
out, and the survivors replay through the fault-free copy-state
machine unchanged.  Stateful plans the core cannot pre-draw —
latency draws, outage windows, breakers, topologies, multi-model
plans — stay on the reference loop;
:func:`repro.sim.simulation.kernel_fault_model` decides.

How the loop is vectorized
--------------------------

A slab holds its syncs in time order, and per element its equal-time
events in update < sync < access order and its same-kind events in
generation order.  Both layouts the routes feed satisfy this: the
merged tape, and the kind-ordered blocks [updates, syncs, accesses]
(:func:`~repro.sim.events.kind_ordered`), one after another per
period in a streamed slab, whose block order supplies the kind
priority at equal times.  One sort regroups the slab by element and
orders each group by (time, position), so each element's events come
out exactly in their merged-tape order.  It is one ``ndarray.sort()``
of the unique int64 keys ``((id << time_bits | bucket) << shift) |
position`` (:func:`~repro.numerics.sorting.stable_grouped_time_sort`,
with a local repair where one element's distinct times share a
bucket): unique keys have one sorted order, so it is the same
permutation on every CPU, and the sorted ids come off the keys' high
bits.  The failed syncs take the key group past the last element,
sort to the tail and are cut off, so dropping them costs no gather.
Nothing else needs the global order: fault resolution and the
bandwidth fold read only the syncs, the ledger folds are order-free,
and the period series are per-period counts plus a per-period left
fold of sync sizes.  The per-element monitor state machine is then
reconstructed with segment operations:

* the fresh/stale flag before each event comes from the last
  update/sync strictly before it (a segmented running maximum over
  state-change positions), or from the carried flag when no in-slab
  state change precedes it;
* poll change detection reads that flag: a copy is fresh exactly when
  it matches the source (Definition 1), so a successful poll finds a
  new version exactly when the copy was stale before it;
* stale-run start times (``stale_since``) carry forward from each
  run-opening update by the same trick;
* fresh-time increments (at fresh events) and age-integral
  increments (at stale events) are computed at once and each folded
  per element with :func:`numpy.bincount`.

Bit-identity notes (all verified by the equivalence suite):

* ``np.bincount`` accumulates its weights as an exact sequential
  left-fold per bin in input order — unlike ``np.sum`` or
  ``np.add.reduceat``, which use pairwise summation and would break
  bit-identity with the loop's ``+=``.  Prepending each element's
  nonzero carried accumulator as its bin's first weight continues the
  fold bit-exactly — left folds compose — so slab-by-slab replay of a
  tape is bit-identical to the reference loop over the whole tape.
* Each fold adds only the increments the loop performs, and a zero
  carry needs no prefix entry: ``bincount`` starts every bin at
  ``0.0``, and ``0.0 + x`` is ``x`` for every ``x`` but ``-0.0``,
  which no accumulator holds (every increment is at least ``+0.0``).
* ``Generator.random(n)`` produces the same values *and* the same
  post-call state as ``n`` successive scalar ``random()`` calls, and
  ``Generator.uniform(low, high)`` consumes exactly one draw and
  equals ``low + (high - low) * random()`` bit-for-bit — which is
  what lets the resolvers pre-draw an oversized pool, rewind the bit
  generator, and re-advance it by the exact number of draws the
  reference channel would have consumed.

How many draws a sync consumes depends on where earlier syncs left
the pool cursor and the per-period bandwidth ledger.  For an i.i.d.
plan that path needs no per-sync loop: only the syncs whose first
draw fails move the cursor by more than one, and they form one orbit
of a strictly increasing map over the failing pool positions, which
pointer doubling enumerates; the ledger's spend is a ``np.cumsum``
left fold, exact up to the first attempt it refuses
(:func:`_resolve_iid_ledger`).  The Gilbert–Elliott chain is
stateful across attempts, but its draw shape is fixed (transition,
loss, jitter per retry); on the retry-free, denial-free route its
evolution is a segmented Hillis–Steele scan, whose rounds stop at the
longest element run rather than the batch size, and its per-element
state is threaded explicitly
(:meth:`~repro.faults.model.GilbertElliottFaultModel.chain_states`).
What is left sequential is the scalar ledger walk
(:func:`_walk_ledger`, O(attempts)): for Gilbert–Elliott plans with
retries or possible denials, and for the rest of an i.i.d. period
after its first refusal when some later sync could still fit.
Each slab's pool starts exactly where the previous slab's consumption
ended; slabs split at whole-period boundaries so the per-period
ledger resets in the same places the reference channel resets it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.faults.model import (
    GilbertElliottFaultModel,
    IIDFaultModel,
    PollOutcome,
)
from repro.faults.retry import RetryPolicy
from repro.numerics.sorting import (
    stable_element_sort,
    stable_grouped_time_sort,
)
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



def _segment_starts(elements_sorted: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Segment-start positions and per-event segment start.

    Args:
        elements_sorted: Element ids after the stable per-element sort.

    Returns:
        ``(start_positions, segment_start_of)`` — the positions of the
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
    return start_positions, start_positions[segment_ids]


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


def _walk_ledger(first: int, stop: int, cursor: int, spent: float, *,
                 size_list: list, period_list: list,
                 budget: float | None, max_attempts: int,
                 ok_list: list | None = None,
                 chain: tuple[list, ...] | None = None,
                 ) -> tuple[tuple[list, list, list], int, int]:
    """Walk syncs ``[first, stop)`` through the bandwidth ledger.

    The scalar form of the reference channel, O(attempts): each sync
    is denied outright when ``spent + size`` exceeds the budget,
    otherwise it takes attempts from the pool cursor until one
    succeeds, it runs out of retries, or the ledger refuses a retry.
    The ledger resets to 0 when the period changes; ``spent`` is its
    fold so far in the first sync's period, so a walk may start
    mid-period.  An i.i.d. plan passes ``ok_list`` (pool draw at or
    above the failure probability).  A Gilbert–Elliott plan passes
    ``chain``: the flip-out-of-good, flip-out-of-bad, ok-if-good and
    ok-if-bad flags per pool draw, the per-element bad flags (updated
    in place) and the syncs' elements.

    Returns:
        ``((attempts, success, offsets), cursor, denied_retries)`` —
        one list entry per walked sync (offset 0 where denied), the
        pool cursor after the walk and the refused retries.
    """
    ge = chain is not None
    stride = 3 if ge else 2
    if chain is not None:
        (flip_good_list, flip_bad_list, ok_good_list, ok_bad_list,
         bad_list, element_list) = chain
    else:
        assert ok_list is not None
    count = stop - first
    out_attempts = [0] * count
    out_success = [False] * count
    out_offsets = [0] * count
    denied_retries = 0
    current_period = period_list[first] if count else 0
    for slot, i in enumerate(range(first, stop)):
        period = period_list[i]
        if period > current_period:
            current_period = period
            spent = 0.0
        size = size_list[i]
        if budget is not None and spent + size > budget:
            continue  # denied outright: zero attempts, zero draws
        out_offsets[slot] = cursor
        if ge:
            element = element_list[i]
            bad = bad_list[element]
        draw = cursor
        attempts_made = 0
        while True:
            attempts_made += 1
            if ge:
                # Transition first (the flip probability depends on
                # the in-state), then the loss draw against the new
                # state — the reference model's order.
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
        out_attempts[slot] = attempts_made
        out_success[slot] = ok
        cursor += stride * attempts_made - 1
    return (out_attempts, out_success, out_offsets), cursor, denied_retries


def _iid_free_path(pool: np.ndarray, failure_probability: float,
                   start: int, count: int, max_attempts: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``count`` i.i.d. syncs from pool cursor ``start``, no budget.

    A sync whose first draw sits at position ``c`` makes ``K(c)``
    attempts — one, plus the failures at ``c, c+2, …``, at most
    ``max_attempts`` — and the next sync starts at ``c + 2K(c) − 1``.
    A first draw that succeeds moves the cursor by one, so only the
    failing first draws steer the path: over the failing positions
    ``F``, ``g(f)`` is the first failing position at or after
    ``f + 2K(f) − 1``.  The failing syncs are the orbit under ``g``
    of the first failure at or after ``start``, enumerated by pointer
    doubling in ⌈log₂ |orbit|⌉ rounds over ``F``.  A failing sync's
    index is its position minus ``start`` minus twice the retries
    before it; every other sync makes one attempt and succeeds.

    ``K`` and ``F`` are computed on a window of the pool from
    ``start``, about two draws per sync, doubled while the orbit
    runs past its end (failure probabilities near 1).

    Returns:
        ``(attempts, success, offsets, cursor)`` — per-sync attempts,
        final outcomes and first-draw positions, and the pool cursor
        after the last sync.
    """
    reach = 2 * (max_attempts - 1)  # last retry draw past a first draw
    limit = pool.shape[0] - reach
    span = 2 * count + reach
    while True:
        stop = min(start + span, limit)
        width = stop - start
        failed = pool[start:stop + reach] < failure_probability
        first = np.flatnonzero(failed[:width])
        tries = np.ones(first.shape[0], dtype=np.int64)
        retrying = np.ones(first.shape[0], dtype=bool)
        for retry in range(max_attempts - 1):
            retrying &= failed[first + 2 * retry]
            tries += retrying
        end = first.shape[0]  # "no failing draw left in the window"
        # failing_before[p]: failing first draws before window position
        # p — the index in `first` of the first one at or after p.
        failing_before = np.zeros(width + 1, dtype=np.int64)
        np.cumsum(failed[:width], out=failing_before[1:])
        jump = np.append(failing_before[np.minimum(first + 2 * tries - 1,
                                                   width)], end)
        # Double the orbit until it leaves the window (reaches `end`)
        # or its last member's sync index — window position minus
        # twice the retries before it — reaches `count`.
        orbit = np.zeros(min(end, 1), dtype=np.int64)
        while (orbit.shape[0] and orbit[-1] != end
               and first[orbit[-1]]
               - 2 * int((tries[orbit[:-1]] - 1).sum()) < count):
            orbit = np.concatenate((orbit, jump[orbit]))
            jump = jump[jump]
        orbit = orbit[orbit < end]
        retries = tries[orbit] - 1
        index = first[orbit] - 2 * (np.cumsum(retries) - retries)
        kept = int(np.searchsorted(index, count))
        if kept < orbit.shape[0]:
            break  # a failing sync past the batch bounds the path
        # The successes after the last failing sync must fit the window.
        if kept:
            tail = first[orbit[-1]] + 2 * tries[orbit[-1]] - 1
            tail += count - index[-1] - 1
        else:
            tail = count
        if tail <= width:
            break
        # The pool holds every draw the batch can consume.
        assert stop < limit
        span *= 2
    orbit = orbit[:kept]
    index = index[:kept]
    attempts = np.ones(count, dtype=np.int64)
    attempts[index] = tries[orbit]
    success = np.ones(count, dtype=bool)
    success[index] = ~failed[first[orbit] + 2 * (tries[orbit] - 1)]
    retries = attempts - 1
    offsets = np.arange(start, start + count, dtype=np.int64)
    offsets += 2 * (np.cumsum(retries) - retries)
    cursor = start + count + 2 * int(retries.sum())
    return attempts, success, offsets, cursor


def _resolve_iid_ledger(pool: np.ndarray, failure_probability: float,
                        sync_sizes: np.ndarray, periods: np.ndarray, *,
                        budget: float | None, max_attempts: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   int, int]:
    """The i.i.d. ledger walk, period by period, without a sync loop.

    Each period first takes the unconstrained path
    (:func:`_iid_free_path`).  The period's spend is a sequential
    fold, ``np.cumsum`` of the per-attempt sizes (a left fold, the
    same as ``spent += size``), and attempt ``a``'s ledger check
    ``spent + size > B`` is the fold's entry ``a`` itself; until the
    first check fires the budget changes nothing, so the path is
    exact up to there.  That attempt's sync is denied outright (its
    first attempt) or stops at a refused retry.  After it, when every
    remaining sync of the period fails its pre-check, all of them are
    denied at once; otherwise :func:`_walk_ledger` takes the rest of
    the period from the cursor and the fold.

    Returns:
        ``(attempts, success, offsets, cursor, denied_retries)`` —
        offsets are 0 where a sync was denied, as in the walk.
    """
    m = int(sync_sizes.shape[0])
    if budget is None:
        bounds = [0, m]
    else:
        bounds = [0, *(np.flatnonzero(np.diff(periods)) + 1).tolist(), m]
    attempts = np.empty(m, dtype=np.int64)
    success = np.empty(m, dtype=bool)
    offsets = np.empty(m, dtype=np.int64)
    cursor = 0
    denied_retries = 0
    walk_lists = None
    for first, stop in zip(bounds[:-1], bounds[1:]):
        (attempts[first:stop], success[first:stop], offsets[first:stop],
         cursor) = _iid_free_path(pool, failure_probability, cursor,
                                  stop - first, max_attempts)
        if budget is None:
            continue
        tried = attempts[first:stop]
        spend = np.cumsum(np.repeat(sync_sizes[first:stop], tried),
                          dtype=np.float64)
        refused = int(np.argmax(spend > budget))
        if not spend[refused] > budget:
            continue
        tried_through = np.cumsum(tried)
        slot = int(np.searchsorted(tried_through, refused, side="right"))
        sync = first + slot
        made = refused - int(tried_through[slot] - tried[slot])
        spent = float(spend[refused - 1]) if refused else 0.0
        success[sync] = False
        attempts[sync] = made
        if made:
            denied_retries += 1
            cursor = int(offsets[sync]) + 2 * made - 1
        else:
            cursor = int(offsets[sync])
            offsets[sync] = 0
        rest = slice(sync + 1, stop)
        if bool((spent + sync_sizes[rest] > budget).all()):
            attempts[rest] = 0
            success[rest] = False
            offsets[rest] = 0
            continue
        if walk_lists is None:
            walk_lists = dict(
                ok_list=(pool >= failure_probability).tolist(),
                size_list=sync_sizes.tolist(),
                period_list=periods.tolist())
        walked, cursor, refused_retries = _walk_ledger(
            sync + 1, stop, cursor, spent, budget=budget,
            max_attempts=max_attempts, **walk_lists)
        attempts[rest], success[rest], offsets[rest] = walked
        denied_retries += refused_retries
    return attempts, success, offsets, cursor, denied_retries


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
    call), then places each sync's draw cursor and charges its
    attempts against the per-period bandwidth ledger by one of three
    routes: an i.i.d. plan takes the loop-free ledger
    (:func:`_resolve_iid_ledger`); a retry-free GE batch in which no
    period can deny evolves its chains with a segmented scan
    (:func:`_ge_scan_states`); any other GE batch takes the scalar
    walk (:func:`_walk_ledger`, O(total attempts)).  Finally the bit
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
    elif not ge:
        attempts, success, offsets, cursor, denied_retries = \
            _resolve_iid_ledger(pool, thresholds[0], sync_sizes, periods,
                                budget=bandwidth_budget,
                                max_attempts=max_attempts)
    else:
        assert final_bad is not None
        p_good_to_bad, p_bad_to_good, loss_good, loss_bad = thresholds
        bad_list = final_bad.tolist()
        chain = ((pool < p_good_to_bad).tolist(),
                 (pool < p_bad_to_good).tolist(),
                 (pool >= loss_good).tolist(),
                 (pool >= loss_bad).tolist(),
                 bad_list, sync_elements.tolist())
        (walk_attempts, walk_success, walk_offsets), cursor, \
            denied_retries = _walk_ledger(
                0, m, 0, 0.0, size_list=sync_sizes.tolist(),
                period_list=periods.tolist(), budget=bandwidth_budget,
                max_attempts=max_attempts, chain=chain)
        attempts = np.asarray(walk_attempts, dtype=np.int64)
        success = np.asarray(walk_success, dtype=bool)
        offsets = np.asarray(walk_offsets, dtype=np.int64)
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
    order, element_sorted = stable_element_sort(sync_elements)
    transition_at = order * 2
    # out-state of this sync's transition, given the in-state:
    out_if_good = flip_good[transition_at]
    out_if_bad = ~flip_bad[transition_at]
    segment_starts, segment_start_of = _segment_starts(element_sorted)
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
    ``sync_times`` are already on the fault clock; ``initial_bad`` is
    the Gilbert–Elliott chain state entering the batch, or None to
    read it from the model.
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
                        fault_clock_offset: float
                        ) -> tuple[FaultResolution,
                                   np.ndarray | None]:
    """Resolve one tape's scheduled syncs under a kernel fault plan.

    Dispatches on the type of ``fault_args["model"]``: an
    :class:`~repro.faults.model.IIDFaultModel` to
    :func:`resolve_iid_faults`, a
    :class:`~repro.faults.model.GilbertElliottFaultModel` to
    :func:`resolve_ge_faults`.  Gilbert–Elliott plans start from the
    model's chain state, and the model object is *not* mutated: a
    caller that carries on commits the returned state to the model
    (``set_chain_states``).

    Args:
        tape: One ``(times, elements, kinds)`` merged tape.
        sizes: Per-element sizes, in bandwidth units.
        fault_args: Dispatch arguments from
            :meth:`repro.sim.simulation.Simulation.fault_kernel_args`.
        period_length: Clock length of one sync period.
        fault_clock_offset: Added to event times on the fault clock,
            in clock units (whole periods).

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
        period_length=period_length, initial_bad=None,
        record_trace=False)


@dataclass
class _FaultAccounting:
    """Channel-equivalent attempt/failure accounting, folded per slab.

    Attributes:
        made_polls: Scheduled syncs that made at least one attempt.
        denied_polls: Scheduled syncs the period budget denied
            outright.
        denied_retries: Retries the period budget refused.
        attempted_bandwidth: Folded bandwidth of every attempt, in
            size units.
        attempted_poll_counts: Attempts per element.
        failed_poll_counts: Failed attempts per element.
        draws: Fault-rng draws the resolutions consumed.
    """

    made_polls: int
    denied_polls: int
    denied_retries: int
    attempted_bandwidth: float
    attempted_poll_counts: np.ndarray
    failed_poll_counts: np.ndarray
    draws: int

    @classmethod
    def start(cls, n_elements: int) -> "_FaultAccounting":
        """Nothing attempted yet."""
        return cls(made_polls=0, denied_polls=0, denied_retries=0,
                   attempted_bandwidth=0.0,
                   attempted_poll_counts=np.zeros(n_elements,
                                                  dtype=np.int64),
                   failed_poll_counts=np.zeros(n_elements,
                                               dtype=np.int64),
                   draws=0)

    @property
    def retries(self) -> int:
        """Attempts beyond each sync's first."""
        return int(self.attempted_poll_counts.sum()) - self.made_polls

    def add(self, resolution: FaultResolution,
            sync_elements: np.ndarray, sizes: np.ndarray) -> None:
        """Fold one slab's resolution into the totals."""
        attempts = resolution.attempts
        n_elements = self.attempted_poll_counts.shape[0]
        self.made_polls += int(np.count_nonzero(attempts))
        self.denied_polls += int(np.count_nonzero(resolution.denied))
        self.denied_retries += resolution.denied_retries
        self.draws += int(resolution.consumed.sum())
        # One entry per attempt, in sync order: every attempt burns
        # its element's size; the channel's sequential += continues
        # with the carry-prepend trick.
        attempted_elements = np.repeat(sync_elements, attempts)
        attempt_sizes = sizes[attempted_elements]
        self.attempted_bandwidth = float(np.bincount(
            np.zeros(attempt_sizes.shape[0] + 1, dtype=np.intp),
            weights=np.concatenate([[self.attempted_bandwidth],
                                    attempt_sizes]),
            minlength=1)[0])
        self.attempted_poll_counts += np.bincount(attempted_elements,
                                                  minlength=n_elements)
        self.failed_poll_counts += np.bincount(
            np.repeat(sync_elements, attempts - resolution.success),
            minlength=n_elements)

    def emit(self, failure_outcome: PollOutcome) -> None:
        """Emit the ``faults.*`` counter totals the channel would have.

        The reference channel bumps each counter once per attempt;
        the aggregated adds land on the same totals.  Zero totals are
        skipped so counters that never fired stay absent, as in the
        reference.  Every attempt but a sync's successful last one
        failed, so the successful syncs are the attempts minus the
        failures.
        """
        failed_polls = int(self.failed_poll_counts.sum())
        successful_polls = (int(self.attempted_poll_counts.sum())
                            - failed_polls)
        for name, total in (
                (f"faults.{failure_outcome.value}", failed_polls),
                ("faults.retries", self.retries),
                ("faults.denied_polls", self.denied_polls),
                ("faults.denied_retries", self.denied_retries),
                ("faults.failed_syncs",
                 self.made_polls - successful_polls)):
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


def _slab_periods(times: np.ndarray, period_length: float,
                  first_period: int) -> np.ndarray:
    """Each event's period, counted from the slab's first period.

    An event at the slab's start can divide to just below its period
    (``3 · 0.7 / 0.7 < 3``); it counts in the slab's first period.
    """
    periods = (times / period_length).astype(np.int64)
    periods -= first_period
    np.maximum(periods, 0, out=periods)
    return periods


def _emit_ledger(times: np.ndarray, elements: np.ndarray,
                 kinds: np.ndarray, fresh_before: np.ndarray,
                 kept_syncs: np.ndarray, *, time_offset: float) -> None:
    """Feed the freshness ledger from one replayed slab.

    Mirrors the reference loop's per-event hooks: every kept sync
    (``kept_syncs``, slab positions) is a *successful* refresh, and
    every update that finds its copy fresh (``fresh_before``, slab
    order, from :func:`_replay_tape_chunk`) opens a stale run.  The
    ledger folds are order-free (latest stamps, counts), so the slab
    need not be in time order.  Times shift by ``time_offset`` onto
    the global fault clock, matching the ``time + fault_time_offset``
    stamps the reference loop records.
    """
    ledger = obs.get_registry().ledger
    run_start = (kinds == int(EventKind.UPDATE)) & fresh_before
    _fold_ledger_bulk(ledger.record_refresh, elements[kept_syncs],
                      times[kept_syncs] + time_offset)
    _fold_ledger_bulk(ledger.record_stale, elements[run_start],
                      times[run_start] + time_offset)


def _emit_period_series(times: np.ndarray, elements: np.ndarray,
                        kinds: np.ndarray, sizes: np.ndarray,
                        fresh_before: np.ndarray,
                        kept_syncs: np.ndarray, n_elements: int, *,
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
    period boundary — and emits one event per completed (or final
    partial) period through :func:`~repro.sim.evaluator.emit_period`.
    The slab need not be in time order: each count is one
    ``bincount`` over the events' period index, and the bandwidth is
    one weighted ``bincount`` over the kept syncs (``kept_syncs``,
    slab positions in time order), which folds each period's sync
    sizes left to right from 0.0, as the tracker's ``+=`` does.  The
    failed syncs are left out of every count, and events whose period
    index reaches past the slab's last period count in none.
    ``fresh_before`` is the replay's fresh-before flag per event, in
    slab order, from which the fresh-copy level follows: a period
    ends at the level entering it, plus the syncs that refresh a
    stale copy, minus the updates that stale a fresh one.
    ``failed_per_period`` / ``retries_per_period`` carry the faulted
    path's per-period attempt accounting (zeros when None).

    It runs once per slab: ``first_period`` offsets the emitted
    period labels (the slab's events carry run-clock times),
    ``n_periods`` counts the *slab's* periods, and ``initial_fresh``
    is the instantaneous fresh-copy count entering the slab.
    """
    n_buckets = max(int(np.ceil(n_periods)) - 1, 0) + 1
    period_index = _slab_periods(times, period_length, first_period)

    def per_period(events: np.ndarray,
                   weights: np.ndarray | None = None) -> np.ndarray:
        return np.bincount(period_index[events], weights=weights,
                           minlength=n_buckets)[:n_buckets]

    is_update = kinds == int(EventKind.UPDATE)
    is_access = kinds == int(EventKind.ACCESS)
    syncs = per_period(kept_syncs)
    updates = per_period(is_update)
    accesses = per_period(is_access)
    fresh_accesses = per_period(is_access & fresh_before)
    refreshes = per_period(kept_syncs[~fresh_before[kept_syncs]])
    bandwidth = per_period(kept_syncs,
                           sizes[elements[kept_syncs]]).astype(
                               np.float64, copy=False)
    levels = initial_fresh + np.cumsum(
        refreshes - per_period(is_update & fresh_before))
    for period in range(n_buckets):
        emit_period(
            first_period + period,
            syncs=int(syncs[period]),
            bandwidth=float(bandwidth[period]),
            planned=planned,
            updates=int(updates[period]),
            accesses=int(accesses[period]),
            fresh_accesses=int(fresh_accesses[period]),
            mean_freshness=int(levels[period]) / n_elements,
            failed_polls=(0 if failed_per_period is None
                          else int(failed_per_period[period])),
            retries=(0 if retries_per_period is None
                     else int(retries_per_period[period])))


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
        fresh_time: Folded fresh clock time per element so far.
        age_integral: Folded age integral per element so far.
        poll_counts: Successful polls per element so far.
        changed_poll_counts: Polls that found a new version (the
            copy was stale before the poll).
        access_counts: Accesses per element so far.
        n_updates: Update events so far, tape-wide.
        fresh_accesses: Accesses that saw fresh data, tape-wide.
        bandwidth_used: Folded sync bandwidth so far, in size units.
    """

    fresh: np.ndarray
    stale_since: np.ndarray
    last_time: np.ndarray
    fresh_time: np.ndarray
    age_integral: np.ndarray
    poll_counts: np.ndarray
    changed_poll_counts: np.ndarray
    access_counts: np.ndarray
    n_updates: int
    fresh_accesses: int
    bandwidth_used: float

    @classmethod
    def start(cls, n_elements: int) -> "ReplayCarry":
        """The start-of-tape state: every copy fresh and untouched."""
        return cls(
            fresh=np.ones(n_elements, dtype=bool),
            stale_since=np.zeros(n_elements),
            last_time=np.zeros(n_elements),
            fresh_time=np.zeros(n_elements),
            age_integral=np.zeros(n_elements),
            poll_counts=np.zeros(n_elements, dtype=np.int64),
            changed_poll_counts=np.zeros(n_elements, dtype=np.int64),
            access_counts=np.zeros(n_elements, dtype=np.int64),
            n_updates=0, fresh_accesses=0, bandwidth_used=0.0,
        )

    def nbytes(self) -> int:
        """Bytes held by the per-element carry arrays."""
        values = (getattr(self, field.name) for field in fields(self))
        return sum(value.nbytes for value in values
                   if isinstance(value, np.ndarray))


def _fold_with_carry(carry_values: np.ndarray, bins: np.ndarray,
                     increments: np.ndarray) -> np.ndarray:
    """Continue per-element left folds with one slab of increments.

    Each element whose carried accumulator is nonzero gets it as its
    bin's first weight, so the in-order per-bin fold computes
    ``((carry + w₁) + w₂) + …`` — exactly the reference loop's
    ``+=``.  ``np.bincount`` starts every bin at ``0.0``, and
    ``0.0 + x`` is ``x`` for every ``x`` but ``−0.0``, which no
    accumulator holds, so a zero carry needs no prefix entry.  With
    no weights at all ``np.bincount`` counts in int64, so the result
    is cast to float64: the carry keeps its dtype.
    """
    carried = np.flatnonzero(carry_values)
    if carried.shape[0]:
        bins = np.concatenate((carried, bins))
        increments = np.concatenate((carry_values[carried], increments))
    return np.bincount(bins, weights=increments,
                       minlength=carry_values.shape[0]
                       ).astype(np.float64, copy=False)


def _replay_tape_chunk(carry: ReplayCarry, sizes: np.ndarray,
                       times: np.ndarray, elements: np.ndarray,
                       kinds: np.ndarray, *, failed: np.ndarray | None,
                       kept_syncs: np.ndarray, tape_fresh: bool
                       ) -> np.ndarray | None:
    """Fold one slab of a tape into the carry state.

    The replay kernel.  Its one per-event state is the fresh flag
    before each event, and the rest derives from it: a poll finds a
    change exactly when the copy was stale before it (Definition 1),
    and the telemetry series and the ledger read stale-run opens and
    refreshes off the returned flag.  Wherever the reference loop's
    state comes from before the slab, the kernel reads the carry: the
    fresh flag where no in-slab state change precedes an event,
    ``stale_since`` where no in-slab run start precedes it, and the
    last event time at segment starts.
    Folding slabs ``[0,a) [a,b) …`` of a tape through one carry is
    bit-identical to the reference loop over the whole tape.  The
    caller keeps slabs below :data:`_SLAB_EVENT_LIMIT` events.

    The slab need not be in time order.  It must hold its syncs in
    time order, and per element its equal-time events in update <
    sync < access order and its same-kind events in generation
    order.  Both layouts the routes feed satisfy this: the merged
    tape, and the kind-ordered blocks [updates, syncs, accesses] of
    :func:`~repro.sim.events.kind_ordered` (one after another per
    period in a streamed slab).  One keyed sort by (element, time,
    position) then puts each element's events in its tape order, and
    leaves the failed syncs out on the way.

    Args:
        carry: The cross-slab state; mutated in place.
        sizes: Per-element transfer sizes, in size units.
        times: Slab event times (global clock).
        elements: Element id per slab event, in ``[0, n_elements)``.
        kinds: :class:`~repro.sim.events.EventKind` per slab event.
        failed: Slab positions of the syncs that failed, which the
            replay skips, or None.
        kept_syncs: Slab positions of the other syncs, in time order;
            they fold the bandwidth.
        tape_fresh: Whether to return the fresh-before flag.

    Returns:
        With ``tape_fresh``, the fresh-before flag of each event in
        *slab* order (False at the failed syncs), for the telemetry
        series and the ledger; otherwise None.
    """
    n_events = int(times.shape[0])
    n_elements = int(carry.fresh.shape[0])
    update_kind = int(EventKind.UPDATE)
    sync_kind = int(EventKind.SYNC)

    order, element_of, time_of = stable_grouped_time_sort(
        elements, times, n_groups=n_elements, drop=failed)
    n_kept = int(order.shape[0])
    if not n_kept:
        return np.zeros(n_events, dtype=bool) if tape_fresh else None
    kind_of = kinds[order]
    positions = np.arange(n_kept, dtype=np.int32)

    segment_start_positions, segment_start_of = _segment_starts(
        element_of)
    segment_start_of = segment_start_of.astype(np.int32, copy=False)
    segment_end_positions = np.append(
        segment_start_positions[1:] - 1, n_kept - 1)
    present = element_of[segment_start_positions]

    # Previous event time: within-slab shift, carried time at starts
    # (position 0 opens a segment).
    previous_time = np.empty_like(time_of)
    previous_time[1:] = time_of[:-1]
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

    # Fresh events add their elapsed time to fresh_time; stale events
    # add their age trapezoid to age_integral.  Each fold sees only
    # its own events, so the other kind's 0.0 is never added.
    fresh_events = np.flatnonzero(fresh_before)
    stale_events = np.flatnonzero(~fresh_before)

    # Stale-run starts: in-slab run start pins stale_since; a copy
    # still stale from before the slab reads the carried run start.
    run_start = is_update & fresh_before
    run_start_positions = np.where(run_start, positions, -1)
    since_position = _last_position_at_or_before(
        run_start_positions, segment_start_of)
    stale_since_position = since_position[stale_events]
    stale_since = time_of[np.maximum(stale_since_position, 0)]
    carried_run = np.flatnonzero(stale_since_position < 0)
    stale_since[carried_run] = carry.stale_since[
        element_of[stale_events[carried_run]]]

    # Squares by multiplication, as in the reference loop.
    age_increment = time_of[stale_events] - stale_since
    age_increment *= age_increment
    age_before = previous_time[stale_events] - stale_since
    age_before *= age_before
    age_increment -= age_before
    age_increment *= 0.5
    del age_before
    carry.fresh_time = _fold_with_carry(
        carry.fresh_time, element_of[fresh_events], elapsed[fresh_events])
    carry.age_integral = _fold_with_carry(
        carry.age_integral, element_of[stale_events], age_increment)
    del fresh_events, stale_events, stale_since, age_increment

    # Definition 1: a copy is fresh exactly when it matches the source,
    # so a successful poll finds a new version exactly when the copy
    # was stale just before it.
    sync_positions = np.flatnonzero(is_sync)
    sync_elements = element_of[sync_positions]
    changed = ~fresh_before[sync_positions]

    # Final per-element state for the next slab (read the old carry
    # before overwriting it).
    final_state_change = last_state_change[segment_end_positions]
    final_fresh = np.where(
        final_state_change >= 0,
        kind_of[np.maximum(final_state_change, 0)] == sync_kind,
        carry.fresh[present])
    final_since = since_position[segment_end_positions]
    carry.stale_since[present] = np.where(
        final_since >= 0, time_of[np.maximum(final_since, 0)],
        carry.stale_since[present])
    carry.fresh[present] = final_fresh
    carry.last_time[present] = time_of[segment_end_positions]

    carry.poll_counts += np.bincount(sync_elements, minlength=n_elements)
    carry.changed_poll_counts += np.bincount(sync_elements[changed],
                                             minlength=n_elements)
    access_positions = np.flatnonzero(is_access)
    carry.access_counts += np.bincount(element_of[access_positions],
                                       minlength=n_elements)
    carry.n_updates += int(np.count_nonzero(is_update))
    carry.fresh_accesses += int(np.count_nonzero(
        fresh_before[access_positions]))

    # Bandwidth folds over the kept syncs in time order.
    sync_sizes = sizes[elements[kept_syncs]]
    carry.bandwidth_used = float(np.bincount(
        np.zeros(sync_sizes.shape[0] + 1, dtype=np.intp),
        weights=np.concatenate([[carry.bandwidth_used], sync_sizes]),
        minlength=1)[0])

    if not tape_fresh:
        return None
    fresh_before_slab = np.zeros(n_events, dtype=bool)
    fresh_before_slab[order] = fresh_before
    return fresh_before_slab


#: ``sim.engine.*`` label per kernel fault-model type.
_FAULT_ENGINES = {IIDFaultModel: "fastpath_faulted",
                  GilbertElliottFaultModel: "fastpath_ge"}


class StreamingReplay:
    """Replay a horizon one whole-period slab at a time.

    Feed consecutive slabs of the events (run clock, split at period
    boundaries) with :meth:`feed`, then call :meth:`finish`
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

        The slab need not be in time order.  It must hold its syncs
        in time order, and per element its equal-time events in
        update < sync < access order and its same-kind events in
        generation order.  A slice of the merged tape satisfies this,
        and so do the kind-ordered blocks [updates, syncs, accesses]
        of :func:`~repro.sim.events.kind_ordered`, one after another
        per period.

        Args:
            times: Slab event times on the run clock, all within the
                slab's period window.
            elements: Element id per slab event, in
                ``[0, n_elements)``.
            kinds: :class:`~repro.sim.events.EventKind` per event.
            n_periods: Periods this slab covers.  Slabs start at
                whole-period boundaries; a fractional count is
                allowed only for the final slab.

        Raises:
            SimulationError: On a slab before its period window or
                out of order (syncs out of time order, or events
                before an element's carried clock), after
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
              kinds: np.ndarray, *, n_periods: float) -> None:
        """:meth:`feed`."""
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
        if n_events and (float(times.min())
                         < first_period * self._period_length):
            raise SimulationError(
                "slab events precede the slab's period window")
        sync_positions = np.flatnonzero(kinds == int(EventKind.SYNC))
        sync_times = times[sync_positions]
        if (sync_times[1:] < sync_times[:-1]).any():
            raise SimulationError("slab syncs are out of time order")

        failed = None
        kept_syncs = sync_positions
        failed_per_period = None
        retries_per_period = None
        telemetry_on = obs.telemetry_enabled()
        if self._faults is not None:
            assert self._fault_args is not None
            sync_elements = elements[sync_positions]
            resolution, self._chain = _resolve_faults(
                sync_times + self._fault_time_offset,
                sync_elements, self._sizes,
                fault_args=self._fault_args,
                period_length=self._period_length,
                initial_bad=self._chain,
                record_trace=self._trace is not None)
            self._faults.add(resolution, sync_elements, self._sizes)
            if self._trace is not None and resolution.trace is not None:
                self._trace.extend(resolution.trace)
            if telemetry_on:
                n_buckets = max(int(np.ceil(n_periods)) - 1, 0) + 1
                sync_buckets = _slab_periods(
                    sync_times, self._period_length, first_period)
                failed_per_period = np.bincount(
                    np.repeat(sync_buckets, resolution.attempts
                              - resolution.success),
                    minlength=n_buckets)
                retries_per_period = np.bincount(
                    np.repeat(sync_buckets, resolution.attempts
                              - (resolution.attempts > 0)),
                    minlength=n_buckets)
            failed = sync_positions[~resolution.success]
            kept_syncs = sync_positions[resolution.success]
            del sync_elements, resolution
        # Only the kept syncs' positions stay alive through the replay.
        del sync_positions, sync_times

        initial_fresh = (int(np.count_nonzero(self._carry.fresh))
                         if telemetry_on else 0)
        fresh_before = _replay_tape_chunk(
            self._carry, self._sizes, times, elements, kinds,
            failed=failed, kept_syncs=kept_syncs,
            tape_fresh=telemetry_on)
        if fresh_before is not None:
            _emit_period_series(
                times, elements, kinds, self._sizes, fresh_before,
                kept_syncs, self._catalog.n_elements,
                period_length=self._period_length,
                n_periods=n_periods, planned=self._planned,
                failed_per_period=failed_per_period,
                retries_per_period=retries_per_period,
                first_period=first_period,
                initial_fresh=initial_fresh)
            _emit_ledger(times, elements, kinds, fresh_before,
                         kept_syncs, time_offset=self._fault_time_offset)

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

        faulted: dict = {}
        budget = None
        if faults is not None:
            assert self._fault_args is not None
            if obs.telemetry_enabled():
                faults.emit(self._fault_args["model"].failure_outcome)
            budget = self._fault_args["bandwidth_budget"]
            faulted.update(
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
                fresh_accesses=carry.fresh_accesses,
                bandwidth_used=carry.bandwidth_used,
                element_time_freshness=carry.fresh_time / self._horizon,
                element_time_age=carry.age_integral / self._horizon,
                access_counts=carry.access_counts,
                poll_counts=carry.poll_counts,
                changed_poll_counts=carry.changed_poll_counts,
                **faulted),
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
        horizon: Total simulated clock time; must equal
            ``n_periods · period_length``.
        period_length: Clock length of one sync period.
        n_periods: Periods simulated (may be fractional).

    Returns:
        A :class:`SimulationResult` bit-identical to the reference
        loop's for the same tape.

    Raises:
        ValidationError: When ``horizon`` is not
            ``n_periods · period_length``.
    """
    expected = n_periods * period_length
    if abs(horizon - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ValidationError(
            f"horizon {horizon} must equal n_periods * period_length "
            f"= {expected}")
    replay = StreamingReplay(catalog, frequencies,
                             period_length=period_length,
                             n_periods=n_periods)
    replay._feed(times, elements, kinds, n_periods=n_periods)
    return replay._finish()


# seedflow: pair=repro.sim.simulation.Simulation.run
def replay_window_tapes(catalog: Catalog, frequencies: np.ndarray,
                        tapes: list[tuple[np.ndarray, np.ndarray,
                                          np.ndarray]], *,
                        period_length: float,
                        first_global_period: int,
                        fault_args: dict | None = None
                        ) -> tuple[list[SimulationResult], list[int]]:
    """Replay consecutive one-period tapes as one-period runs.

    The adaptive manager's kernel route hands it one period's tape
    (from :meth:`~repro.sim.simulation.Simulation.build_tape`) at a
    time.  Period ``j`` replays as one slab of its own, exactly as
    ``Simulation.run(1)`` with the matching ``fault_time_offset``
    would replay it, faults resolved inside the replay on
    ``fault_args["rng"]`` and the Gilbert–Elliott chain read from and
    committed back to the plan model, so each result is bit-identical
    to running the period separately.

    Args:
        catalog: The simulated workload (all periods share it).
        frequencies: Per-element sync frequencies, in syncs/period.
        tapes: One ``(times, elements, kinds)`` merged tape per
            period, with *local* times in ``[0, period_length)``.
        period_length: Clock length of one sync period.
        first_global_period: 1-based global index of the first
            period; period ``j`` runs on the fault clock at offset
            ``(first_global_period + j − 1) · period_length``.
        fault_args: The dispatch arguments from
            :meth:`repro.sim.simulation.Simulation.fault_kernel_args`,
            or None for fault-free tapes.  Faults are resolved after
            every tape was drawn, so the fault rng must be
            *dedicated* (not shared with the workload rng) for the
            draws to match per-period runs of more than one tape.

    Returns:
        ``(results, consumed)`` — one :class:`SimulationResult` per
        period and the number of fault-rng draws consumed per period
        (all zeros when fault-free).
    """
    results: list[SimulationResult] = []
    consumed: list[int] = []
    for j, (times, elements, kinds) in enumerate(tapes):
        replay = StreamingReplay(
            catalog, frequencies, period_length=period_length,
            n_periods=1.0, fault_args=fault_args,
            fault_time_offset=(first_global_period - 1 + j)
            * period_length)
        replay._feed(times, elements, kinds, n_periods=1.0)
        results.append(replay._finish())
        consumed.append(0 if replay._faults is None
                        else replay._faults.draws)
    return results, consumed
