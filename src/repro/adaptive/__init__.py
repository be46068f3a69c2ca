"""Adaptive scheme switching: queueing estimates, workload tracking, APICO."""

from repro.adaptive.estimator import ArrivalRateTracker, EwmaEstimator
from repro.adaptive.queueing import (
    average_inference_latency,
    md1_waiting_time,
    stable,
)
from repro.adaptive.switcher import (
    AdaptiveSwitcher,
    CandidatePlan,
    build_apico_switcher,
)

__all__ = [
    "AdaptiveSwitcher",
    "ArrivalRateTracker",
    "CandidatePlan",
    "EwmaEstimator",
    "average_inference_latency",
    "build_apico_switcher",
    "md1_waiting_time",
    "stable",
]
