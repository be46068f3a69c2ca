"""Tests for the alpha regression and host calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.profiler import calibrate_host, fit_alpha


class TestFitAlpha:
    def test_recovers_exact_alpha(self):
        capacity = 1e9
        flops = [1e8, 2e8, 5e8, 1e9]
        alpha_true = 1.7
        times = [alpha_true * f / capacity for f in flops]
        assert fit_alpha(flops, times, capacity) == pytest.approx(alpha_true)

    def test_recovers_alpha_with_noise(self):
        rng = np.random.default_rng(0)
        capacity = 1e9
        flops = list(rng.uniform(1e8, 1e9, size=50))
        alpha_true = 2.3
        times = [alpha_true * f / capacity * rng.uniform(0.95, 1.05) for f in flops]
        assert fit_alpha(flops, times, capacity) == pytest.approx(alpha_true, rel=0.05)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_alpha([1.0], [1.0, 2.0], 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_alpha([], [], 1.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            fit_alpha([1.0], [1.0], 0.0)

    def test_all_zero_flops_rejected(self):
        with pytest.raises(ValueError):
            fit_alpha([0.0, 0.0], [1.0, 1.0], 1.0)

    def test_negative_fit_rejected(self):
        with pytest.raises(ValueError):
            fit_alpha([1e6], [-1.0], 1e6)


class TestCalibrateHost:
    def test_produces_plausible_capacity(self):
        from repro.cost.profiler import CALIBRATION_REPEATS, CALIBRATION_SIZES

        result = calibrate_host()
        # Any host runs numpy matmuls between 10 MFLOP/s and 10 TFLOP/s.
        assert 1e7 < result.flops_per_second < 1e13
        assert result.samples == len(CALIBRATION_SIZES) * CALIBRATION_REPEATS
        assert result.rms_residual_s >= 0.0
