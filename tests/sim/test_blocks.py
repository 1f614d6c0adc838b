"""The block-wise passes on many blocks, and the counts' widening.

The replay kernel's folds, the sort keys' positions, the sync-schedule
window and the run epilogue work one
:data:`repro.numerics.blocks.BLOCK` at a time and must give the same
bits for any block size.  At the default 2¹⁸ every tier-1 world fits
in one block, so this module shrinks it to :data:`SMALL_BLOCK`: every
world then takes many blocks, some holding several elements and some
one element with more events than a block holds.  The
streaming suite, a table of differential-harness cases and the golden
one-shot digests run again, unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheduler import SyncSchedule
from repro.numerics import blocks
from repro.sim import fastpath
from repro.sim.fastpath import StreamingReplay, _element_blocks

from tests import test_golden
from tests.sim import test_streaming as streaming
from tests.sim.differential import (
    SETUPS,
    WORLDS,
    assert_same,
    check,
    runs,
    sweep,
)

#: The block size every test here runs at.
SMALL_BLOCK = 16


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(blocks, "BLOCK", SMALL_BLOCK)


class TestElementBlocks:
    def test_blocks_cut_at_element_bounds(self):
        ids = np.repeat(np.arange(10, dtype=np.int32),
                        [3, 20, 1, 1, 5, 16, 17, 2, 0, 9])
        cuts = list(_element_blocks(ids))
        assert cuts[0][0] == 0 and cuts[-1][1] == ids.shape[0]
        assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
        for lo, hi in cuts:
            # Whole elements only: no element straddles a cut.
            assert lo == 0 or ids[lo - 1] != ids[lo]
            assert hi == ids.shape[0] or ids[hi - 1] != ids[hi]
            # At most a block, unless it is one oversized element.
            assert hi - lo <= SMALL_BLOCK or ids[lo] == ids[hi - 1]
        # Elements 1 (20 events) and 6 (17) get blocks of their own.
        assert (3, 23) in cuts and (46, 63) in cuts

    def test_no_events_no_blocks(self):
        assert list(_element_blocks(np.empty(0, dtype=np.int32))) == []


def test_window_ties_keep_element_order(monkeypatch):
    """Zero phases put many elements' syncs at one time: across the
    element ranges, ties still come out in element order, as from one
    range."""
    schedule = SyncSchedule.from_frequencies(
        np.repeat([1.0, 2.0, 4.0], 20), phase_policy="zero")
    times, elements = schedule.events_between(0.5, 3.0)
    ties = np.flatnonzero(times[1:] == times[:-1])
    assert ties.size and (elements[ties + 1] > elements[ties]).all()
    monkeypatch.setattr(blocks, "BLOCK", 1 << 18)
    whole = schedule.events_between(0.5, 3.0)
    assert times.tobytes() == whole[0].tobytes()
    assert np.array_equal(elements, whole[1])


class TestStreamingReplayBitIdentity(
        streaming.TestStreamingReplayBitIdentity):
    """:mod:`tests.sim.test_streaming`'s cases, on many blocks."""

    def test_chunked_replay_property(self):
        # Fixed seeds: hypothesis refuses one test run by two classes.
        for seed in range(100, 120):
            sweep(seed, slab=True)


class TestChunkedRun(streaming.TestChunkedRun):
    """:mod:`tests.sim.test_streaming`'s cases, on many blocks."""


class TestPeriodIndex(streaming.TestPeriodIndex):
    """:mod:`tests.sim.test_streaming`'s cases, on many blocks."""


class TestSlabContract(streaming.TestSlabContract):
    """:mod:`tests.sim.test_streaming`'s cases, on many blocks."""


class TestEventsBetween(streaming.TestEventsBetween):
    """:mod:`tests.sim.test_streaming`'s cases, on many blocks."""


class TestStableTimeArgsort(streaming.TestStableTimeArgsort):
    """:mod:`tests.sim.test_streaming`'s cases, on many blocks."""


class TestMergeSortedBlocks(streaming.TestMergeSortedBlocks):
    """:mod:`tests.sim.test_streaming`'s cases, on many blocks."""


class TestSortedDraws(streaming.TestSortedDraws):
    """:mod:`tests.sim.test_streaming`'s cases, on many blocks."""


class TestGoldenOneShotOutputs(test_golden.TestGoldenOneShotOutputs):
    """The golden tape and run digests, on many blocks."""


#: Differential-harness cases, each on the default routes: every
#: fault family, ragged and non-unit periods, idle and degenerate
#: worlds.
HARNESS_CASES = [
    ("default", "none"), ("h7.25", "iid_dedicated"), ("h7.25", "ge_scan"),
    ("streamed", "ge_trace"), ("sized", "iid_budget0.15"),
    ("bursty", "none"), ("period0.7_offset3", "iid_half_budget0.3"),
    ("idle_elements", "ge_walk"), ("cap10", "iid_trace"),
    ("h0.75", "ge_shared"), ("empty", "none"), ("all_fail", "ge_fail"),
]


@pytest.mark.parametrize("world, setup", HARNESS_CASES)
def test_harness_routes(world, setup):
    check(world, setup)


class TestCountWidening:
    """The int32 per-element counts widen to int64 once, before the
    slab that could take the run's events and attempts past the
    limit, and the run is the same bit for bit."""

    @pytest.mark.parametrize("setup", ["none", "iid_dedicated"])
    @pytest.mark.parametrize("at", ["first", "middle"])
    def test_widened_run_equals_int32_run(self, monkeypatch, setup, at):
        world = WORLDS["h7.25"]
        want = runs(world, SETUPS[setup], chunk=1)
        result = want.results[0]
        fed = (result.n_updates + result.poll_counts.sum()
               + result.access_counts.sum())
        widened = []
        widen = StreamingReplay._widen_counts

        def counted(replay):
            widened.append((replay, replay._periods_done))
            widen(replay)

        monkeypatch.setattr(fastpath, "_INT32_COUNT_LIMIT",
                            0 if at == "first" else int(fed) // 2)
        monkeypatch.setattr(StreamingReplay, "_widen_counts", counted)
        got = runs(world, SETUPS[setup], chunk=1)
        assert_same(got, want)
        assert len(widened) == 1
        replay, periods_done = widened[0]
        assert (periods_done == 0.0) == (at == "first")
        assert periods_done < world.horizon
        counts = [replay.carry.poll_counts,
                  replay.carry.changed_poll_counts,
                  replay.carry.access_counts]
        if replay._faults is not None:
            counts.append(replay._faults.failed_poll_counts)
        assert all(count.dtype == np.int64 for count in counts)

    def test_counts_start_int32(self):
        world = WORLDS["h4.5"]
        replay = StreamingReplay(*world.built, period_length=1.0,
                                 n_periods=world.horizon)
        assert replay.carry.poll_counts.dtype == np.int32
