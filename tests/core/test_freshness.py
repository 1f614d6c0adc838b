"""Tests for repro.core.freshness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freshness import (
    FixedOrderPolicy,
    PoissonSyncPolicy,
    fixed_order_freshness,
    invert_marginal_gain,
    marginal_gain,
)
from repro.errors import ValidationError

positive_rates = st.floats(min_value=1e-3, max_value=50.0)
positive_freqs = st.floats(min_value=1e-3, max_value=50.0)


class TestFixedOrderFreshness:
    def test_known_value_at_equal_rate_and_frequency(self):
        # r = 1: F = 1 - e^{-1}.
        value = fixed_order_freshness(np.array([2.0]), np.array([2.0]))
        assert value == pytest.approx(1.0 - math.exp(-1.0))

    def test_zero_frequency_is_stale(self):
        assert fixed_order_freshness(np.array([1.0]),
                                     np.array([0.0])) == 0.0

    def test_zero_change_rate_is_always_fresh(self):
        assert fixed_order_freshness(np.array([0.0]),
                                     np.array([0.0])) == 1.0
        assert fixed_order_freshness(np.array([0.0]),
                                     np.array([3.0])) == 1.0

    def test_fast_sync_approaches_one(self):
        value = fixed_order_freshness(np.array([1.0]),
                                      np.array([1e6]))
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_slow_sync_approaches_zero(self):
        value = fixed_order_freshness(np.array([1e6]),
                                      np.array([1.0]))
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_scalar_inputs_return_scalar(self):
        value = fixed_order_freshness(1.0, 1.0)
        assert isinstance(value, float)

    def test_broadcasting(self):
        values = fixed_order_freshness(np.array([1.0, 2.0, 4.0]), 2.0)
        assert values.shape == (3,)
        assert (np.diff(values) < 0.0).all()

    @given(positive_rates, positive_freqs)
    @settings(max_examples=100)
    def test_bounded_in_unit_interval(self, lam, f):
        value = fixed_order_freshness(np.array([lam]), np.array([f]))
        assert 0.0 < value <= 1.0

    @given(positive_rates, positive_freqs,
           st.floats(min_value=1.01, max_value=10.0))
    @settings(max_examples=100)
    def test_monotone_increasing_in_frequency(self, lam, f, factor):
        lower = fixed_order_freshness(np.array([lam]), np.array([f]))
        higher = fixed_order_freshness(np.array([lam]),
                                       np.array([f * factor]))
        assert higher > lower

    @given(positive_rates, positive_freqs)
    @settings(max_examples=100)
    def test_depends_only_on_ratio(self, lam, f):
        one = fixed_order_freshness(np.array([lam]), np.array([f]))
        scaled = fixed_order_freshness(np.array([3.0 * lam]),
                                       np.array([3.0 * f]))
        assert one == pytest.approx(scaled, rel=1e-12)

    @given(positive_rates, positive_freqs,
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=100)
    def test_strictly_concave_in_frequency(self, lam, f, weight):
        other = 3.0 * f + 0.1
        mid = weight * f + (1.0 - weight) * other
        blend = (weight * fixed_order_freshness(np.array([lam]),
                                                np.array([f]))
                 + (1.0 - weight) * fixed_order_freshness(
                     np.array([lam]), np.array([other])))
        assert fixed_order_freshness(np.array([lam]),
                                     np.array([mid])) >= blend - 1e-12


def _masked_fixed_order_freshness(lam: np.ndarray,
                                  f: np.ndarray) -> np.ndarray:
    """F̄ evaluated only on the regular elements, boundaries by mask.

    A subnormal λ over a large f underflows r to 0, and 0/0 makes this
    form NaN there.
    """
    out = np.empty(lam.shape)
    never_changes = lam == 0.0
    never_synced = (f == 0.0) & ~never_changes
    regular = ~never_changes & ~never_synced
    out[never_changes] = 1.0
    out[never_synced] = 0.0
    r = lam[regular] / f[regular]
    with np.errstate(invalid="ignore"):
        out[regular] = -np.expm1(-r) / r
    return out


def _assert_same_finite_bits(actual: np.ndarray,
                             expected: np.ndarray) -> None:
    """Every finite value of the masked form is kept bit for bit; its
    NaNs (an underflowed r) read as the r → 0 limit, 1."""
    finite = np.isfinite(expected)
    assert np.array_equal(actual[finite].view(np.uint64),
                          expected[finite].view(np.uint64))
    assert (actual[~finite] == 1.0).all()


class TestFixedOrderBitIdentity:
    """The whole-array form keeps every finite value of the masked form
    bit for bit, so no plan or score moves whichever elements are on
    the boundary."""

    def test_underflowed_ratio_takes_the_limit(self):
        # λ/f underflows to 0: the element is always fresh, as r → 0.
        values = fixed_order_freshness(np.array([5e-324, 1.0]),
                                       np.array([3.0, 1.0]))
        assert values[0] == 1.0
        assert values[1] == -math.expm1(-1.0)
        assert fixed_order_freshness(2.2e-310, 1e300) == 1.0

    def test_matches_masked_form_on_boundaries_and_subnormals(self):
        rng = np.random.default_rng(3)
        n = 100_003  # not a multiple of any SIMD width
        lam = rng.lognormal(0.0, 2.0, n)
        f = rng.lognormal(0.0, 2.0, n)
        f[rng.random(n) < 0.375] = 0.0
        lam[rng.random(n) < 0.1] = 0.0
        lam[rng.random(n) < 0.05] = 5e-324
        lam[rng.random(n) < 0.05] = 2.2e-310
        f[:6] = [0.0, 0.0, 3.0, 1e-300, 1e300, -0.0]
        lam[:6] = [0.0, 1.0, 5e-324, 5e-324, 1.0, 2.0]
        expected = _masked_fixed_order_freshness(lam, f)
        actual = fixed_order_freshness(lam, f)
        assert np.isnan(expected).any()
        _assert_same_finite_bits(actual, expected)

    @given(st.lists(st.tuples(
        st.sampled_from((0.0, 5e-324, 1e-310, 1e-3, 1.0, 7.5, 1e300)),
        st.sampled_from((0.0, 5e-324, 1e-300, 0.3, 1.0, 40.0))),
        min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_property_matches_masked_form(self, pairs):
        lam = np.array([pair[0] for pair in pairs])
        f = np.array([pair[1] for pair in pairs])
        with np.errstate(over="ignore"):  # 1e300 / 1e-300
            expected = _masked_fixed_order_freshness(lam, f)
            actual = fixed_order_freshness(lam, f)
        _assert_same_finite_bits(actual, expected)


class TestMarginalGain:
    def test_range(self):
        r = np.array([1e-8, 0.01, 1.0, 10.0, 100.0])
        g = marginal_gain(r)
        assert (g > 0.0).all()
        assert (g <= 1.0).all()
        assert (g[:4] < 1.0).all()  # strictly below 1 at moderate r
        assert (np.diff(g) > 0.0).all()

    def test_zero_at_zero(self):
        assert marginal_gain(np.array([0.0])) == 0.0

    def test_series_matches_closed_form_at_cutoff(self):
        # The series branch and the closed form must agree where they
        # meet.
        r = np.array([9e-5, 1.1e-4])
        g = marginal_gain(r)
        exact = 1.0 - (1.0 + r) * np.exp(-r)
        assert np.allclose(g, exact, rtol=1e-8)

    def test_matches_derivative_of_freshness(self):
        # dF/df at (lam, f) equals g(lam/f)/lam; check against a
        # central finite difference.
        lam, f, h = 2.0, 1.5, 1e-6
        numeric = (fixed_order_freshness(np.array([lam]),
                                         np.array([f + h]))
                   - fixed_order_freshness(np.array([lam]),
                                           np.array([f - h]))) / (2 * h)
        analytic = marginal_gain(np.array([lam / f])) / lam
        assert numeric[0] == pytest.approx(analytic[0], rel=1e-5)

    @given(st.floats(min_value=5e-324, max_value=np.nextafter(1.0, 0.0)))
    @settings(max_examples=200)
    def test_inversion_roundtrip(self, target):
        r = invert_marginal_gain(np.array([target]))
        assert np.isfinite(r).all() and (r > 0.0).all()
        error = abs(marginal_gain(r)[0] - target)
        assert error <= 4e-16
        if target <= 1e-12:
            assert error <= 4.0 * np.finfo(float).eps * target

    def test_inversion_roundtrip_over_the_full_range(self):
        eps = np.finfo(float).eps
        with np.errstate(under="ignore"):
            targets = np.concatenate([
                np.logspace(-323.3, -1e-3, 20_000),
                1.0 - np.logspace(-15.9, -0.3, 5_000),
                np.random.default_rng(0).random(20_000),
                [5e-324, 2.2250738585072014e-308, 1e-12, 0.5,
                 np.nextafter(1.0, 0.0)]])
        r = invert_marginal_gain(targets)
        assert np.isfinite(r).all() and (r > 0.0).all()
        error = np.abs(marginal_gain(r) - targets)
        assert error.max() <= 4e-16
        small = targets <= 1e-12
        assert (error[small] <= 4.0 * eps * targets[small]).all()

    def test_invert_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            invert_marginal_gain(np.array([0.0]))
        with pytest.raises(ValidationError):
            invert_marginal_gain(np.array([1.0]))
        with pytest.raises(ValidationError):
            invert_marginal_gain(np.array([-0.5]))

    def test_invert_scalar(self):
        r = invert_marginal_gain(0.5)
        assert isinstance(r, float)

    def test_invert_vectorized_consistency(self):
        # Each result depends on its own target only: a tiny target
        # batched with a large one inverts to the same bits as alone.
        with np.errstate(under="ignore"):
            spread = np.logspace(-323.3, -1e-3, 500)
        targets = np.concatenate([
            [1e-20, 0.5, 1e-200, 0.5, 5e-324, np.nextafter(1.0, 0.0)],
            spread, 1.0 - np.logspace(-15.9, -0.3, 100),
            [0.01, 0.2, 0.9, 0.999]])
        vector = invert_marginal_gain(targets)
        singles = np.array([invert_marginal_gain(np.array([t]))[0]
                            for t in targets])
        assert np.array_equal(vector.view(np.uint64),
                              singles.view(np.uint64))


class TestFixedOrderPolicy:
    def test_derivative_at_zero_frequency_is_reciprocal_rate(self):
        policy = FixedOrderPolicy()
        d = policy.derivative(np.array([4.0]), np.array([0.0]))
        assert d == pytest.approx(0.25)

    def test_derivative_zero_for_static_element(self):
        policy = FixedOrderPolicy()
        assert policy.derivative(np.array([0.0]), np.array([1.0])) == 0.0

    def test_derivative_decreasing_in_frequency(self):
        policy = FixedOrderPolicy()
        freqs = np.array([0.5, 1.0, 2.0, 4.0])
        d = policy.derivative(np.full(4, 2.0), freqs)
        assert (np.diff(d) < 0.0).all()

    @given(positive_rates, st.floats(min_value=1e-4, max_value=0.99))
    @settings(max_examples=100)
    def test_frequency_for_marginal_roundtrip(self, lam, fraction):
        policy = FixedOrderPolicy()
        # A reachable marginal target: m in (0, 1/lam).
        marginal = fraction / lam
        f = policy.frequency_for_marginal(np.array([lam]),
                                          np.array([marginal]))
        recovered = policy.derivative(np.array([lam]), f)
        assert recovered == pytest.approx(marginal, rel=1e-8)


class TestPoissonSyncPolicy:
    def test_closed_form(self):
        policy = PoissonSyncPolicy()
        value = policy.freshness(np.array([2.0]), np.array([2.0]))
        assert value == pytest.approx(0.5)

    def test_static_element_fresh(self):
        policy = PoissonSyncPolicy()
        assert policy.freshness(np.array([0.0]), np.array([0.0])) == 1.0

    def test_derivative_matches_finite_difference(self):
        policy = PoissonSyncPolicy()
        lam, f, h = 3.0, 1.0, 1e-6
        numeric = (policy.freshness(np.array([lam]), np.array([f + h]))
                   - policy.freshness(np.array([lam]),
                                      np.array([f - h]))) / (2 * h)
        assert numeric[0] == pytest.approx(
            policy.derivative(np.array([lam]), np.array([f]))[0],
            rel=1e-5)

    @given(positive_rates, st.floats(min_value=1e-4, max_value=0.99))
    @settings(max_examples=100)
    def test_frequency_for_marginal_roundtrip(self, lam, fraction):
        policy = PoissonSyncPolicy()
        marginal = fraction / lam
        f = policy.frequency_for_marginal(np.array([lam]),
                                          np.array([marginal]))
        recovered = policy.derivative(np.array([lam]), f)
        assert recovered == pytest.approx(marginal, rel=1e-8)

    @given(positive_rates, positive_freqs)
    @settings(max_examples=100)
    def test_fixed_order_dominates_poisson_sync(self, lam, f):
        # Cho & Garcia-Molina: evenly spaced syncs beat memoryless
        # syncs at the same frequency.
        fixed = FixedOrderPolicy().freshness(np.array([lam]),
                                             np.array([f]))
        poisson = PoissonSyncPolicy().freshness(np.array([lam]),
                                                np.array([f]))
        assert fixed >= poisson - 1e-12
