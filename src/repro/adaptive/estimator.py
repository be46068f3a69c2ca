"""Workload estimation (paper Eq. 15).

The cluster cannot observe the true arrival rate directly; it smooths
periodic measurements with an exponentially weighted moving average

    λ_t = β · λ̂ + (1 − β) · λ_{t−1}

where ``λ̂`` is the rate measured over the last window and ``β`` weights
the present against the past.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

__all__ = ["EwmaEstimator", "ArrivalRateTracker"]


class EwmaEstimator:
    """Eq. (15) exponential smoothing of measured workloads."""

    def __init__(self, beta: float = 0.4, initial: float = 0.0) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        self.beta = beta
        self._value = float(initial)

    @property
    def value(self) -> float:
        return self._value

    def update(self, measured: float) -> float:
        """Fold one measurement λ̂ into the estimate and return it."""
        if measured < 0:
            raise ValueError("measured workload must be non-negative")
        self._value = self.beta * measured + (1.0 - self.beta) * self._value
        return self._value


class ArrivalRateTracker:
    """Sliding-window arrival counter feeding an EWMA estimator.

    ``observe(t)`` records a task arrival at time ``t`` and returns the
    smoothed rate estimate; arrivals older than ``window_s`` drop out of
    the instantaneous measurement.
    """

    def __init__(
        self,
        window_s: float = 10.0,
        beta: float = 0.4,
        initial_rate: Optional[float] = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_s
        self.ewma = EwmaEstimator(beta, initial=initial_rate or 0.0)
        self._arrivals: "Deque[float]" = deque()
        self._last_time = -float("inf")

    @property
    def rate(self) -> float:
        return self.ewma.value

    def observe(self, now: float) -> float:
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._last_time = now
        self._arrivals.append(now)
        cutoff = now - self.window_s
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()
        measured = len(self._arrivals) / self.window_s
        return self.ewma.update(measured)
