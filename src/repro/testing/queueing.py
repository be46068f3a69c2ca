"""The paper's Theorem 2 as printed, beside the queueing-correct form
production uses (:func:`repro.adaptive.queueing.average_inference_latency`):
the literal formula counts the bottleneck stage's service twice, so the
two differ by exactly one period."""

from __future__ import annotations

import math

__all__ = ["theorem2_literal"]


def theorem2_literal(period: float, latency: float, arrival_rate: float) -> float:
    """The paper's Theorem 2 exactly as printed:
    ``p(2 − pλ) / (2(1 − pλ)) + t``."""
    if period < 0 or arrival_rate < 0:
        raise ValueError("period and arrival rate must be non-negative")
    rho = period * arrival_rate
    if rho >= 1.0:
        return math.inf
    return period * (2.0 - rho) / (2.0 * (1.0 - rho)) + latency
