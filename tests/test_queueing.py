"""Tests for the M/D/1 estimates (Theorem 2), validated against a
discrete-event simulation of the actual queue."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.adaptive.queueing import (
    average_inference_latency,
    md1_waiting_time,
    stable,
)
from repro.testing.queueing import theorem2_literal


def simulate_md1(period: float, arrival_rate: float, n_tasks: int, seed: int = 0):
    """Exact M/D/1 queue: deterministic service, Poisson arrivals."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=n_tasks))
    free_at = 0.0
    waits = []
    for t in arrivals:
        start = max(t, free_at)
        waits.append(start - t)
        free_at = start + period
    return float(np.mean(waits))


class TestStability:
    def test_stable(self):
        assert stable(1.0, 0.5)
        assert not stable(1.0, 1.0)
        assert not stable(2.0, 0.6)


class TestWaitingTime:
    def test_zero_rate_zero_wait(self):
        assert md1_waiting_time(1.0, 0.0) == 0.0

    def test_unstable_is_infinite(self):
        assert md1_waiting_time(1.0, 1.0) == math.inf
        assert md1_waiting_time(2.0, 0.9) == math.inf

    def test_pollaczek_khinchine_value(self):
        # rho = 0.5: Wq = lam p^2 / (2 (1-rho)) = 0.5*1/(2*0.5) = 0.5
        assert md1_waiting_time(1.0, 0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_matches_simulation(self, rho):
        period = 0.7
        rate = rho / period
        sim = simulate_md1(period, rate, n_tasks=40000, seed=42)
        theory = md1_waiting_time(period, rate)
        assert sim == pytest.approx(theory, rel=0.08)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            md1_waiting_time(-1.0, 0.5)

    @given(
        period=st.floats(0.01, 10.0),
        rho=st.floats(0.0, 0.99),
    )
    def test_property_monotone_in_load(self, period, rho):
        rate = rho / period
        lighter = md1_waiting_time(period, rate * 0.5)
        heavier = md1_waiting_time(period, rate)
        assert lighter <= heavier + 1e-12


class TestAverageLatency:
    def test_adds_pipeline_latency(self):
        got = average_inference_latency(1.0, 3.0, 0.5)
        assert got == pytest.approx(0.5 + 3.0)

    def test_latency_below_period_rejected(self):
        with pytest.raises(ValueError):
            average_inference_latency(2.0, 1.0, 0.1)

    def test_one_stage_scheme_period_equals_latency(self):
        # The paper's "for one-stage schemes p equals t".
        got = average_inference_latency(2.0, 2.0, 0.2)
        assert got == pytest.approx(md1_waiting_time(2.0, 0.2) + 2.0)


class TestTheorem2Literal:
    def test_printed_formula(self):
        p, lam, t = 1.0, 0.5, 3.0
        rho = p * lam
        want = p * (2 - rho) / (2 * (1 - rho)) + t
        assert theorem2_literal(p, t, lam) == pytest.approx(want)

    def test_equals_wait_plus_period_plus_latency(self):
        """Documents the paper's double count: literal = Wq + p + t."""
        p, lam, t = 0.8, 0.6, 2.0
        assert theorem2_literal(p, t, lam) == pytest.approx(
            md1_waiting_time(p, lam) + p + t
        )

    def test_unstable_infinite(self):
        assert theorem2_literal(1.0, 1.0, 2.0) == math.inf

    @given(p=st.floats(0.01, 5.0), t_extra=st.floats(0.0, 10.0), rho=st.floats(0.0, 0.95))
    def test_property_literal_exceeds_correct_by_period(self, p, t_extra, rho):
        lam = rho / p
        t = p + t_extra
        diff = theorem2_literal(p, t, lam) - average_inference_latency(p, t, lam)
        assert diff == pytest.approx(p)
