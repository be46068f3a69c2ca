"""Tests for the EWMA workload estimator (paper Eq. 15)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.adaptive.estimator import ArrivalRateTracker, EwmaEstimator


class TestEwmaEstimator:
    def test_eq15_single_step(self):
        est = EwmaEstimator(beta=0.4, initial=1.0)
        assert est.update(2.0) == pytest.approx(0.4 * 2.0 + 0.6 * 1.0)

    def test_converges_to_constant_input(self):
        est = EwmaEstimator(beta=0.3)
        for _ in range(200):
            est.update(5.0)
        assert est.value == pytest.approx(5.0, rel=1e-6)

    def test_beta_one_tracks_exactly(self):
        est = EwmaEstimator(beta=1.0, initial=9.0)
        assert est.update(3.0) == 3.0

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            EwmaEstimator(beta=0.0)
        with pytest.raises(ValueError):
            EwmaEstimator(beta=1.5)

    def test_negative_measurement_rejected(self):
        with pytest.raises(ValueError):
            EwmaEstimator(beta=0.5).update(-1.0)

    @given(
        beta=st.floats(0.01, 1.0),
        values=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50),
    )
    def test_property_stays_within_observed_range(self, beta, values):
        est = EwmaEstimator(beta=beta, initial=values[0])
        for v in values:
            est.update(v)
        assert min(values) - 1e-9 <= est.value <= max(values) + 1e-9


class TestArrivalRateTracker:
    def test_constant_rate_estimated(self):
        tracker = ArrivalRateTracker(window_s=10.0, beta=0.5)
        rate = 2.0  # arrivals per second
        estimate = 0.0
        for i in range(1, 200):
            estimate = tracker.observe(i / rate)
        assert estimate == pytest.approx(rate, rel=0.15)

    def test_rate_decays_when_arrivals_stop_then_resume_slow(self):
        tracker = ArrivalRateTracker(window_s=5.0, beta=0.5)
        for i in range(1, 50):
            tracker.observe(i * 0.1)  # 10/s burst
        fast = tracker.rate
        # Then very sparse arrivals.
        for i in range(30):
            tracker.observe(5.0 + i * 10.0)
        assert tracker.rate < fast / 2

    def test_time_going_backwards_rejected(self):
        tracker = ArrivalRateTracker()
        tracker.observe(5.0)
        with pytest.raises(ValueError):
            tracker.observe(4.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ArrivalRateTracker(window_s=0.0)

    def test_initial_rate_seed(self):
        tracker = ArrivalRateTracker(initial_rate=3.0)
        assert tracker.rate == 3.0
