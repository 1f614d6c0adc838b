"""The replay kernel's sort and scan primitives against their direct
definitions.

The i.i.d. ledger's loop-free path is checked against the scalar
ledger walk, the channel's own definition, over loss rates from 0 to
1, retry caps from 0 to 5 and budgets from none to tight.

The replay's grouped sort is checked against ``np.lexsort`` by
(group, time) with the dropped positions removed: on ulp-close times
that share a key bucket, with group counts near 2³¹ that leave few
time bits, on signed zeros, subnormals and ±1e300, on the non-finite
fallback, and on the smallest and fully dropped inputs.

Every tier-1 catalog has fewer than 2¹⁶ elements, so the group sort's
keys only ever carry small ids there; these cases give it ids up to
2³¹ − 1, beside positions on both sides of powers of two.  The
Gilbert–Elliott scan stops after enough rounds to
cover the longest element run, so its cases sit on both sides of each
power of two.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import PollOutcome
from repro.faults.retry import RetryPolicy
from repro.numerics import sorting
from repro.numerics.sorting import (
    stable_element_sort,
    stable_grouped_time_sort,
)
from repro.sim.fastpath import (
    _ge_scan_states,
    _walk_ledger,
    resolve_iid_faults,
)

_ID_MAX = 2 ** 31 - 1
#: Ids on both sides of 2¹⁶, and the extremes.
_EDGES = [0, 1, 0xFFFF, 0x10000, 0x10001, 0x1FFFF, 0x7FFF0000,
          _ID_MAX]
_IDS = st.one_of(st.integers(0, _ID_MAX),
                 st.integers(0x10000 - 4, 0x10000 + 4),
                 st.sampled_from(_EDGES))


@st.composite
def element_ids(draw) -> np.ndarray:
    """Ids drawn mostly from a small palette, so duplicates abound."""
    palette = draw(st.lists(_IDS, min_size=1, max_size=6))
    values = draw(st.lists(st.one_of(st.sampled_from(palette), _IDS),
                           max_size=300))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(values, dtype=dtype)


def _group(ids):
    """The permutation, checking the sorted ids read off the keys."""
    order, ids_sorted = stable_element_sort(ids)
    assert np.array_equal(ids_sorted, ids[order])
    return order


class TestStableElementArgsort:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(element_ids())
    def test_equals_stable_argsort(self, ids):
        assert np.array_equal(_group(ids),
                              np.argsort(ids, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("values", [[], [0x12345]])
    def test_empty_and_single(self, dtype, values):
        ids = np.array(values, dtype=dtype)
        assert np.array_equal(_group(ids), np.arange(len(values)))

    def test_large_tie_heavy(self):
        rng = np.random.default_rng(3)
        ids = np.concatenate([rng.integers(0, _ID_MAX, 40_000),
                              rng.integers(65_000, 70_000, 60_000)])
        ids = rng.permutation(ids).astype(np.int32)
        assert np.array_equal(_group(ids),
                              np.argsort(ids, kind="stable"))

    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 65_535, 65_536,
                                   65_537, 131_071, 131_072, 131_073])
    def test_top_ids_beside_position_widths(self, n):
        """The position field is as wide as ``n − 1`` needs, so each
        power of two moves the id field; ids reach 2³¹ − 1."""
        rng = np.random.default_rng(n)
        palette = np.array([0, 1, _ID_MAX - 1, _ID_MAX, 0x7FFF0000])
        ids = np.where(rng.random(n) < 0.5, rng.choice(palette, n),
                       rng.integers(0, _ID_MAX, n, endpoint=True))
        for dtype in (np.int32, np.int64):
            typed = ids.astype(dtype)
            assert np.array_equal(_group(typed),
                                  np.argsort(typed, kind="stable"))


def _check_grouped(groups, times, n_groups, drop=None):
    """The grouped sort equals ``np.lexsort((times, groups))`` with
    the ``drop`` positions removed, sorted groups and times included."""
    order, groups_sorted, times_sorted = stable_grouped_time_sort(
        groups, times, n_groups=n_groups, drop=drop)
    want = np.lexsort((times, groups))
    if drop is not None:
        keep = np.ones(times.shape[0], dtype=bool)
        keep[drop] = False
        want = want[keep[want]]
    assert np.array_equal(order, want)
    assert groups_sorted.dtype == groups.dtype
    assert np.array_equal(groups_sorted, groups[want])
    assert times_sorted.tobytes() == times[want].tobytes()


def _failed_syncs(rng, n):
    """About a tenth of the positions, in increasing order."""
    return np.flatnonzero(rng.random(n) < 0.1)


class TestStableGroupedTimeSort:
    def test_ulp_close_times_share_a_bucket(self):
        """Thousands of one group's times a few ulps apart fall into
        one key bucket, shuffled: only the repair orders them."""
        rng = np.random.default_rng(7)
        n = 200_000
        groups = rng.integers(0, 5_000, n).astype(np.int32)
        groups[::2] = 17
        times = rng.uniform(0.0, 3.0, n)
        times[::2] = 1.5 + np.spacing(1.5) * rng.integers(0, 5_000,
                                                          n // 2)
        _check_grouped(groups, times, 5_000, _failed_syncs(rng, n))
        _check_grouped(groups, times, 5_000)

    def test_group_count_near_the_id_limit(self):
        """10⁶ events over groups in ``[0, 2³¹ − 1)`` leave 11 time
        bits: a few groups hold most events, and their runs collide
        in thousands of buckets."""
        rng = np.random.default_rng(8)
        n = 1_000_000
        n_groups = _ID_MAX
        palette = np.array([0, 5, 0x10000, _ID_MAX - 2, _ID_MAX - 1])
        groups = np.where(rng.random(n) < 0.8, rng.choice(palette, n),
                          rng.integers(0, n_groups, n)).astype(np.int32)
        times = rng.uniform(0.0, 1.0, n)
        _check_grouped(groups, times, n_groups, _failed_syncs(rng, n))

    def test_no_time_bits_left(self, monkeypatch):
        """With 31 position bits and 31 group bits no time bit is
        left: every group holding an inversion is re-sorted whole."""
        monkeypatch.setattr(sorting, "_position_bits", lambda n: 31)
        rng = np.random.default_rng(9)
        n = 20_000
        groups = rng.choice(np.array([0, 3, _ID_MAX - 2]), n).astype(
            np.int32)
        times = rng.uniform(0.0, 1.0, n)
        _check_grouped(groups, times, _ID_MAX - 1, _failed_syncs(rng, n))

    @pytest.mark.parametrize("n", [1_000, 70_000])
    def test_signed_zeros_subnormals_and_wide_range(self, n):
        rng = np.random.default_rng(n)
        tiny = np.finfo(float).smallest_subnormal
        palette = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310,
                            1e-300, 1e300, -1e300])
        groups = rng.integers(0, 20, n).astype(np.int32)
        for times in (rng.choice(palette, n),
                      rng.choice(np.array([0.0, -0.0, 2.0, -2.0]), n),
                      rng.choice(np.array([0.0, tiny, 2 * tiny]), n),
                      rng.choice(np.array([-1e300, 0.0, 1e300]), n)):
            _check_grouped(groups, times, 20, _failed_syncs(rng, n))
            _check_grouped(groups, times, 20)

    def test_infinities_and_nan_take_the_fallback(self):
        rng = np.random.default_rng(10)
        n = 10_000
        groups = rng.integers(0, 30, n).astype(np.int64)
        times = rng.uniform(-1.0, 1.0, n)
        for special in ([np.inf], [-np.inf], [np.nan],
                        [np.inf, -np.inf, np.nan]):
            mixed = times.copy()
            mixed[rng.integers(0, n, 300)] = rng.choice(special, 300)
            _check_grouped(groups, mixed, 30, _failed_syncs(rng, n))
            _check_grouped(groups, mixed, 30)

    def test_all_times_equal(self):
        rng = np.random.default_rng(11)
        n = 131_075
        groups = rng.integers(0, 1_000, n).astype(np.int32)
        times = np.full(n, 2.5)
        _check_grouped(groups, times, 1_000, _failed_syncs(rng, n))
        _check_grouped(groups, times, 1_000)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_smallest_inputs(self, n):
        groups = np.array([1, 0][:n], dtype=np.int32)
        times = np.array([0.5, 0.25][:n])
        for drop in (None, np.arange(n), np.arange(n)[n - 1:]):
            _check_grouped(groups, times, 2, drop)

    def test_all_or_last_position_dropped(self):
        rng = np.random.default_rng(12)
        n = 5_000
        groups = rng.integers(0, 40, n).astype(np.int32)
        times = rng.uniform(0.0, 4.0, n)
        _check_grouped(groups, times, 40, np.arange(n))
        _check_grouped(groups, times, 40, np.array([n - 1]))
        _check_grouped(groups, times, 40, np.array([0, n - 1]))


def _chain_walk(sync_elements, flip_good, flip_bad, initial_bad):
    """The sequential per-sync walk the scan replaces."""
    bad = initial_bad.copy()
    state_after = np.empty(sync_elements.shape[0], dtype=bool)
    for i, element in enumerate(sync_elements.tolist()):
        draw = 2 * i
        bad[element] = (not flip_bad[draw] if bad[element]
                        else bool(flip_good[draw]))
        state_after[i] = bad[element]
    return state_after, bad


#: Transition thresholds ``(p_good_to_bad, p_bad_to_good)``.  Equal
#: ones make every per-sync function the identity or a negation, so
#: any composition the scan skipped shows; unequal ones mix in the
#: constant functions.
_THRESHOLDS = [(0.5, 0.5), (0.05, 0.4), (0.3, 0.9)]


def _check_scan(sync_elements, n_elements, rng, trial):
    m = sync_elements.shape[0]
    # Flags from one pool, as the resolver draws them.
    pool = rng.random(2 * m + 2)
    p_good_to_bad, p_bad_to_good = _THRESHOLDS[trial % 3]
    flip_good = pool < p_good_to_bad
    flip_bad = pool < p_bad_to_good
    initial_bad = rng.random(n_elements) < 0.5
    order, sorted_after, final_bad = _ge_scan_states(
        sync_elements, flip_good, flip_bad, initial_bad)
    want_after, want_final = _chain_walk(sync_elements, flip_good,
                                         flip_bad, initial_bad)
    assert np.array_equal(order, np.argsort(sync_elements, kind="stable"))
    state_after = np.empty(m, dtype=bool)
    state_after[order] = sorted_after
    assert np.array_equal(state_after, want_after)
    assert np.array_equal(final_bad, want_final)


class TestGEScanRounds:
    """The scan equals the sequential chain walk for every run length
    around the round bound ⌈log₂ longest⌉."""

    @pytest.mark.parametrize("longest", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_mixed_runs(self, longest):
        rng = np.random.default_rng(longest)
        for trial in range(30):
            # One element per run length up to `longest`, interleaved
            # in tape order, ids past the uint16 split included.
            ids = rng.choice(70_000, size=longest, replace=False)
            runs = np.repeat(ids, np.arange(1, longest + 1))
            _check_scan(rng.permutation(runs).astype(np.int32), 70_000,
                        rng, trial)

    @pytest.mark.parametrize("longest", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_one_element_batch(self, longest):
        rng = np.random.default_rng(100 + longest)
        for trial in range(30):
            _check_scan(np.full(longest, 3, dtype=np.int32), 5, rng,
                        trial)


def _iid_world(seed: int, n_syncs: int, n_periods: int, mixed: bool):
    """Sorted sync times over ``n_periods`` periods, one element per
    sync; mixed sizes are halves, so whole-number budgets are hit
    exactly and a ``>``/``>=`` slip in a ledger check shows."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, float(n_periods), n_syncs))
    sizes = (rng.choice([0.5, 1.0, 2.0], n_syncs) if mixed
             else np.ones(n_syncs))
    return times, np.arange(n_syncs), sizes


def _walk_oracle(times, sizes, *, failure_probability, max_retries,
                 budget, seed):
    """The scalar ledger walk over the same pool the resolver draws,
    and the generator state after the draws the channel consumed."""
    max_attempts = 1 if max_retries is None else max_retries + 1
    m = times.shape[0]
    width = 2 * max_attempts - 1
    pool = np.random.default_rng(seed).random(m * width + width)
    (attempts, success, offsets), cursor, denied_retries = _walk_ledger(
        0, m, 0, 0.0, size_list=sizes.tolist(),
        period_list=times.astype(np.int64).tolist(), budget=budget,
        max_attempts=max_attempts,
        ok_list=(pool >= failure_probability).tolist())
    rng_after = np.random.default_rng(seed)
    rng_after.random(cursor)
    return attempts, success, offsets, denied_retries, rng_after


def _check_against_walk(times, elements, sizes, *, failure_probability,
                        max_retries, budget, seed):
    rng = np.random.default_rng(seed)
    got = resolve_iid_faults(
        times, elements, sizes, failure_probability=failure_probability,
        failure_outcome=PollOutcome.TIMEOUT,
        retry_policy=(None if max_retries is None
                      else RetryPolicy(max_retries=max_retries)),
        bandwidth_budget=budget, period_length=1.0, rng=rng)
    attempts, success, offsets, denied_retries, rng_after = _walk_oracle(
        times, sizes, failure_probability=failure_probability,
        max_retries=max_retries, budget=budget, seed=seed)
    assert got.attempts.tolist() == attempts
    assert got.success.tolist() == success
    assert got.offsets.tolist() == offsets
    assert got.denied_retries == denied_retries
    assert rng.bit_generator.state == rng_after.bit_generator.state
    return got


class TestIIDLedgerPath:
    """``resolve_iid_faults``'s loop-free ledger against the walk."""

    @pytest.mark.parametrize("mixed", [False, True],
                             ids=["unit", "mixed"])
    @pytest.mark.parametrize("budget_kind", ["none", "tight", "ample"])
    @pytest.mark.parametrize("max_retries", [None, 0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("failure_probability",
                             [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_matches_walk(self, failure_probability, max_retries,
                          budget_kind, mixed):
        seed = (int(failure_probability * 10) * 1000
                + (9 if max_retries is None else max_retries) * 10
                + len(budget_kind) + mixed)
        rng = np.random.default_rng(seed)
        n_periods = int(rng.integers(1, 6))
        n_syncs = int(rng.choice([1, 3, 40, 400]))
        times, elements, sizes = _iid_world(seed, n_syncs, n_periods,
                                            mixed)
        per_period = float(sizes.sum()) / n_periods
        budget = {"none": None,
                  "tight": float(max(1, round(0.6 * per_period))),
                  "ample": float(round(4.0 * per_period) + 8)
                  }[budget_kind]
        _check_against_walk(times, elements, sizes,
                            failure_probability=failure_probability,
                            max_retries=max_retries, budget=budget,
                            seed=seed + 1)

    @pytest.mark.parametrize("budget", [None, 3.0e4])
    def test_high_loss_grows_the_window(self, budget):
        """10⁵ syncs at 90% loss use about six draws each, past the
        two-per-sync window the path starts from, so it must grow."""
        times, elements, sizes = _iid_world(7, 100_000, 2, mixed=True)
        got = _check_against_walk(
            times, elements, sizes, failure_probability=0.9,
            max_retries=3, budget=budget, seed=8)
        if budget is None:
            assert int(got.consumed.sum()) > 2 * 100_000

    def test_routes_are_exercised(self):
        """Both exits after a period's first refusal are reached:
        with unit sizes every later sync is denied at once; with
        mixed sizes a smaller later sync still fits, so the walk
        takes the rest of the period."""
        times, elements, sizes = _iid_world(3, 400, 1, mixed=False)
        unit = _check_against_walk(
            times, elements, sizes, failure_probability=0.2,
            max_retries=3, budget=300.0, seed=4)
        assert unit.denied[-50:].all()
        times, elements, sizes = _iid_world(3, 400, 1, mixed=True)
        mixed = _check_against_walk(
            times, elements, sizes, failure_probability=0.2,
            max_retries=3, budget=300.0, seed=4)
        denied = np.flatnonzero(mixed.denied)
        assert denied.size and not mixed.denied[denied[0]:].all()
