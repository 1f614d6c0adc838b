"""Tests for repro.core.scheduler — timed Fixed-Order schedules."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scheduler
from repro.core.scheduler import PhasePolicy, SyncSchedule
from repro.errors import ScheduleError


class TestFromFrequencies:
    def test_zero_phase_policy(self):
        schedule = SyncSchedule.from_frequencies(
            np.array([2.0, 4.0]), phase_policy=PhasePolicy.ZERO)
        assert (schedule.phases == 0.0).all()

    def test_staggered_phases_within_interval(self):
        schedule = SyncSchedule.from_frequencies(
            np.array([1.0, 2.0, 5.0]),
            phase_policy=PhasePolicy.STAGGERED)
        intervals = schedule.intervals()
        assert (schedule.phases < intervals).all()
        assert (schedule.phases >= 0.0).all()

    def test_random_phases_need_rng(self):
        with pytest.raises(ScheduleError):
            SyncSchedule.from_frequencies(np.ones(2),
                                          phase_policy=PhasePolicy.RANDOM)

    def test_random_phases_reproducible(self):
        one = SyncSchedule.from_frequencies(
            np.ones(5), phase_policy="random",
            rng=np.random.default_rng(0))
        two = SyncSchedule.from_frequencies(
            np.ones(5), phase_policy="random",
            rng=np.random.default_rng(0))
        assert np.array_equal(one.phases, two.phases)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ScheduleError):
            SyncSchedule.from_frequencies(np.array([-1.0]))

    def test_rejects_bad_period(self):
        with pytest.raises(ScheduleError):
            SyncSchedule.from_frequencies(np.ones(1), period_length=0.0)


class TestSyncTimes:
    def test_evenly_spaced(self):
        schedule = SyncSchedule.from_frequencies(
            np.array([4.0]), phase_policy=PhasePolicy.ZERO)
        times = schedule.sync_times(0, 1.0)
        assert np.allclose(times, [0.0, 0.25, 0.5, 0.75])

    def test_phase_offsets_all_times(self):
        schedule = SyncSchedule(frequencies=np.array([2.0]),
                                period_length=1.0,
                                phases=np.array([0.1]))
        times = schedule.sync_times(0, 1.0)
        assert np.allclose(times, [0.1, 0.6])

    def test_zero_frequency_never_synced(self):
        schedule = SyncSchedule.from_frequencies(
            np.array([0.0, 1.0]), phase_policy=PhasePolicy.ZERO)
        assert schedule.sync_times(0, 10.0).size == 0

    def test_count_scales_with_horizon(self):
        schedule = SyncSchedule.from_frequencies(
            np.array([3.0]), phase_policy=PhasePolicy.ZERO)
        assert schedule.sync_times(0, 10.0).size == 30

    def test_period_length_scales_intervals(self):
        schedule = SyncSchedule.from_frequencies(
            np.array([2.0]), period_length=10.0,
            phase_policy=PhasePolicy.ZERO)
        times = schedule.sync_times(0, 10.0)
        assert np.allclose(times, [0.0, 5.0])

    def test_rejects_bad_horizon(self):
        schedule = SyncSchedule.from_frequencies(np.ones(1))
        with pytest.raises(ScheduleError):
            schedule.sync_times(0, 0.0)


class TestEventsUntil:
    def test_sorted_and_complete(self):
        schedule = SyncSchedule.from_frequencies(
            np.array([2.0, 3.0, 0.0]),
            phase_policy=PhasePolicy.STAGGERED)
        times, elements = schedule.events_until(4.0)
        assert (np.diff(times) >= 0.0).all()
        # 2*4 + 3*4 events expected.
        assert times.size == 20
        assert set(elements.tolist()) == {0, 1}

    def test_empty_schedule(self):
        schedule = SyncSchedule.from_frequencies(
            np.zeros(3), phase_policy=PhasePolicy.ZERO)
        times, elements = schedule.events_until(5.0)
        assert times.size == 0
        assert elements.size == 0

    @given(st.lists(st.floats(min_value=0.0, max_value=8.0),
                    min_size=1, max_size=10),
           st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_event_count_matches_per_element_counts(self, freqs, horizon):
        schedule = SyncSchedule.from_frequencies(
            np.array(freqs), phase_policy=PhasePolicy.STAGGERED)
        times, elements = schedule.events_until(horizon)
        for element in range(len(freqs)):
            expected = schedule.sync_times(element, horizon)
            assert int((elements == element).sum()) == expected.size
            assert (times[elements == element].tobytes()
                    == expected.tobytes())


def _brute_force_window(schedule, start, end):
    """Every (element, k) whose ``phase + interval * k`` lies in
    ``[start, end)``, from a k grid wide enough for every element,
    stable-sorted by time from element-major order."""
    frequencies = schedule.frequencies
    active = np.flatnonzero(frequencies > 0.0)
    with np.errstate(over="ignore"):
        interval = schedule.period_length / frequencies[active]
    finite = np.isfinite(interval)
    active, interval = active[finite], interval[finite]
    if active.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    phase = schedule.phases[active]
    width = int(np.max((end - phase) / interval)) + 3
    k = np.arange(max(width, 1), dtype=np.int64)
    times = phase[:, None] + interval[:, None] * k[None, :]
    inside = (times >= start) & (times < end)
    elements = np.broadcast_to(active[:, None], times.shape)[inside]
    times = times[inside]
    order = np.argsort(times, kind="stable")
    return times[order], elements[order]


class TestWindowOracle:
    """``events_between`` against a brute-force per-element k range."""

    def check(self, schedule, start, end):
        times, elements = schedule.events_between(start, end)
        want_times, want_elements = _brute_force_window(schedule, start,
                                                        end)
        assert times.tobytes() == want_times.tobytes(), (start, end)
        assert np.array_equal(elements, want_elements), (start, end)
        assert elements.dtype == np.int64

    @pytest.mark.parametrize("period_length", [0.7, 1.0, 2.5])
    def test_random_windows(self, period_length):
        rng = np.random.default_rng(int(period_length * 10))
        for trial in range(40):
            n = int(rng.integers(1, 60))
            frequencies = rng.uniform(0.0, rng.choice([0.5, 4.0, 30.0]),
                                      n)
            frequencies[rng.random(n) < 0.2] = 0.0
            frequencies[rng.random(n) < 0.1] = 1e-310
            if trial % 3 == 0:  # exact ties between elements
                frequencies = np.round(frequencies * 2.0) / 2.0
            policy = ("staggered", "zero", "random")[trial % 3]
            schedule = SyncSchedule.from_frequencies(
                frequencies, period_length=period_length,
                phase_policy=policy, rng=rng)
            horizon = period_length * float(rng.integers(1, 6))
            bounds = np.sort(rng.uniform(0.0, horizon, 2))
            windows = [(0.0, horizon), (float(bounds[0]), horizon),
                       (period_length, 2.0 * period_length)]
            if bounds[1] > bounds[0]:
                windows.append((float(bounds[0]), float(bounds[1])))
            for start, end in windows:
                self.check(schedule, start, end)

    @pytest.mark.parametrize("n, rates", [
        # Whole blocks of elements on one instant.
        (60_000, (1.0, 2.0, 4.0)),
        # Two tie groups on interleaved instant grids.
        (200, (1000.0, 1001.0)),
    ])
    def test_tie_heavy_window_takes_the_bucketed_sort(self, n, rates):
        """All-zero phases make most sync instants shared by many
        elements; the window holds more than 2¹⁷ syncs, and its tie
        order (element order within an instant) comes from the
        position bits of the sort keys."""
        frequencies = np.array(rates)[np.arange(n) % len(rates)]
        schedule = SyncSchedule.from_frequencies(
            frequencies, phase_policy=PhasePolicy.ZERO)
        times, _ = schedule.events_between(0.0, 1.0)
        assert times.shape[0] > 131_072
        self.check(schedule, 0.0, 1.0)
        self.check(schedule, 0.25, 1.75)

    def test_events_until_is_the_window_from_zero(self):
        rng = np.random.default_rng(7)
        schedule = SyncSchedule.from_frequencies(
            rng.uniform(0.0, 6.0, 500), period_length=2.5)
        until = schedule.events_until(7.5)
        window = schedule.events_between(0.0, 7.5)
        assert until[0].tobytes() == window[0].tobytes()
        assert until[1].tobytes() == window[1].tobytes()

    def test_staggered_phases_are_the_golden_fractions(self):
        """The phases equal the ``(i * golden) % 1.0`` fractions of the
        interval, bit for bit, at catalog scale."""
        n = 1_000_000
        frequencies = 0.25 + (np.arange(n) % 97) / 8.0
        schedule = SyncSchedule.from_frequencies(frequencies)
        fractions = (np.arange(n) * scheduler._GOLDEN) % 1.0
        assert (schedule.phases.tobytes()
                == (fractions * schedule.intervals()).tobytes())


class TestSubnormalFrequency:
    """``T / f`` overflows to inf for a subnormal f: no sync, no
    floating-point warning, even though ``intervals()`` clamps it."""

    def test_no_events_and_no_warning(self):
        frequencies = np.array([1.0, 1e-310, 2.0, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for policy in ("staggered", "zero"):
                schedule = SyncSchedule.from_frequencies(
                    frequencies, phase_policy=policy)
                assert np.isfinite(schedule.intervals()[1])
                for times, elements in (schedule.events_until(3.0),
                                        schedule.events_between(0.5, 3.0),
                                        schedule.events_between(1.0, 2.0)):
                    assert set(elements.tolist()) == {0, 2}
                    assert np.isfinite(times).all()
                assert schedule.sync_times(1, 3.0).size == 0


class TestAccounting:
    def test_syncs_per_period(self):
        schedule = SyncSchedule.from_frequencies(np.array([1.0, 2.5]))
        assert schedule.syncs_per_period() == pytest.approx(3.5)

    def test_bandwidth_per_period(self):
        schedule = SyncSchedule.from_frequencies(np.array([1.0, 2.0]))
        assert schedule.bandwidth_per_period(
            np.array([3.0, 0.5])) == pytest.approx(4.0)

    def test_bandwidth_rejects_shape_mismatch(self):
        schedule = SyncSchedule.from_frequencies(np.ones(2))
        with pytest.raises(ScheduleError):
            schedule.bandwidth_per_period(np.ones(3))

    def test_arrays_immutable(self):
        schedule = SyncSchedule.from_frequencies(np.ones(2))
        with pytest.raises(ValueError):
            schedule.frequencies[0] = 5.0
