"""Calibration of the Eq. (5) regression coefficient ``alpha_k``.

The paper estimates per-device inference time as
``t = alpha_k * FLOPs / vartheta(d_k)`` where ``alpha_k`` is "computed
by a regression model" against measured layer timings.  This module
implements that regression (least squares through the origin) plus a
host self-profiler that calibrates the numpy engine's effective FLOP/s
— used by the multiprocess runtime demo to predict its own timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["fit_alpha", "CalibrationResult", "calibrate_host"]


def fit_alpha(
    flops: "Sequence[float]", times: "Sequence[float]", capacity: float
) -> float:
    """Least-squares fit of ``alpha`` in ``t = alpha * flops / capacity``.

    Minimises ``Σ (t_i − alpha · f_i / θ)²`` over the measured
    ``(flops, seconds)`` samples.
    """
    if len(flops) != len(times):
        raise ValueError("flops and times must have equal length")
    if not flops:
        raise ValueError("need at least one sample")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    x = np.asarray(flops, dtype=np.float64) / capacity
    y = np.asarray(times, dtype=np.float64)
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError("all FLOP samples are zero")
    alpha = float(np.dot(x, y) / denom)
    if alpha <= 0:
        raise ValueError(f"calibration produced non-positive alpha {alpha}")
    return alpha


@dataclass(frozen=True)
class CalibrationResult:
    """Host calibration output: effective FLOP/s and fit residual."""

    flops_per_second: float
    rms_residual_s: float
    samples: int


#: The square matmul sizes :func:`calibrate_host` times, each
#: ``CALIBRATION_REPEATS`` times after one warm-up.  They stop at 64:
#: matmuls of at most 64^3 multiply-adds run on one OpenBLAS thread,
#: while larger ones go multi-threaded, and on a loaded 2-vCPU host
#: those stalled ~16 ms a call (0.1 ms alone), reading the host 250x
#: slow.
CALIBRATION_SIZES = (32, 48, 64)
CALIBRATION_REPEATS = 3


def calibrate_host() -> CalibrationResult:
    """Measure this host's effective matmul FLOP/s with numpy.

    Runs square matmuls (the conv engine's im2col inner loop is a
    matmul) of :data:`CALIBRATION_SIZES` on seeded operands and fits
    ``seconds = flops / capacity``.
    """
    rng = np.random.default_rng(0)
    flops_samples = []
    time_samples = []
    for n in CALIBRATION_SIZES:
        a = rng.standard_normal((n, n)).astype(np.float32)
        b = rng.standard_normal((n, n)).astype(np.float32)
        a @ b  # warm-up
        for _ in range(CALIBRATION_REPEATS):
            start = time.perf_counter()
            a @ b
            elapsed = time.perf_counter() - start
            flops_samples.append(float(n) ** 3)
            time_samples.append(max(elapsed, 1e-9))
    # seconds = flops / capacity  <=>  alpha = 1 with capacity unknown.
    inv_capacity = fit_alpha(flops_samples, time_samples, capacity=1.0)
    capacity = 1.0 / inv_capacity
    predicted = np.asarray(flops_samples) / capacity
    residual = float(
        np.sqrt(np.mean((predicted - np.asarray(time_samples)) ** 2))
    )
    return CalibrationResult(capacity, residual, len(flops_samples))
