"""M/D/1 latency estimation (paper Theorem 2).

A parallel scheme with period ``p`` serves Poisson arrivals of rate
``λ`` like an M/D/1 queue: deterministic service ``p``, utilisation
``ρ = λp``.  The Pollaczek–Khinchine waiting time is

    W_q = λ p² / (2 (1 − λp))

and a task's average inference latency is ``W_q + t`` with ``t`` the
execution (pipeline) latency.  The paper's Theorem 2 prints
``p(2 − pλ) / (2(1 − pλ)) + t``, which equals ``W_q + p + t`` — it
counts the bottleneck-stage service twice when ``t`` is the full
pipeline latency.  We use the queueing-correct form; the paper's
literal formula is a test oracle (:mod:`repro.testing.queueing`), which
checks that the two differ by exactly one period.
"""

from __future__ import annotations

import math

from typing import Dict, Sequence

__all__ = [
    "md1_waiting_time",
    "average_inference_latency",
    "backlog_latency",
    "validate_md1",
    "stable",
]


def stable(period: float, arrival_rate: float) -> bool:
    """Whether the queue is stable (utilisation < 1)."""
    return period * arrival_rate < 1.0


def md1_waiting_time(period: float, arrival_rate: float) -> float:
    """Mean M/D/1 queueing delay before service starts."""
    if period < 0 or arrival_rate < 0:
        raise ValueError("period and arrival rate must be non-negative")
    if arrival_rate == 0 or period == 0:
        return 0.0
    rho = period * arrival_rate
    if rho >= 1.0:
        return math.inf
    return arrival_rate * period * period / (2.0 * (1.0 - rho))


def average_inference_latency(
    period: float, latency: float, arrival_rate: float
) -> float:
    """Expected task latency: M/D/1 wait + pipeline execution latency."""
    if latency < period:
        raise ValueError(f"latency {latency} cannot be below period {period}")
    wait = md1_waiting_time(period, arrival_rate)
    return wait + latency


def backlog_latency(period: float, latency: float, queue_depth: int) -> float:
    """Latency estimate from a *measured* backlog, not an arrival rate.

    A frame arriving behind ``queue_depth`` in-flight frames waits for
    the pipeline to emit that many completions — one per period in
    steady state — and then runs for the pipeline latency.  This is the
    transient counterpart of Theorem 2's steady-state estimate: the
    rate estimator lags sudden load, the queue depth does not.
    """
    if period < 0 or latency < 0:
        raise ValueError("period and latency must be non-negative")
    if queue_depth < 0:
        raise ValueError("queue depth must be non-negative")
    return queue_depth * period + latency


def validate_md1(
    sojourns: "Sequence[float]",
    period: float,
    latency: float,
    arrival_rate: float,
) -> "Dict[str, float]":
    """Compare measured sojourn times against the Theorem 2 estimate.

    ``sojourns`` are arrival-to-completion latencies measured from a
    served Poisson workload (e.g. :class:`~repro.serve.PipelineServer`
    records).  Returns the measured mean, the M/D/1 prediction
    ``W_q + t``, their relative error and the utilisation ``ρ = λp`` —
    the numbers behind the paper's Theorem 2 validation.
    """
    if not sojourns:
        raise ValueError("need at least one measured sojourn")
    measured = sum(sojourns) / len(sojourns)
    predicted = average_inference_latency(period, latency, arrival_rate)
    if predicted in (0.0, math.inf):
        rel_error = math.inf
    else:
        rel_error = abs(measured - predicted) / predicted
    return {
        "n": float(len(sojourns)),
        "utilisation": period * arrival_rate,
        "measured_mean": measured,
        "predicted_mean": predicted,
        "rel_error": rel_error,
    }
