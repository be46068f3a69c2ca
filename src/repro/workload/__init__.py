"""Workload generation: arrival processes, traces and the registry.

Two layers: the original list-returning helpers
(:func:`poisson_arrivals` & friends, kept for quick experiments) and
the 2.0 lazy :class:`ArrivalProcess` hierarchy
(:mod:`repro.workload.processes`) that streams arbitrarily long
workloads into the scenario simulator.  :func:`get_arrivals` /
:func:`available_arrivals` name every process, mirroring
:func:`repro.schemes.get_scheme`.
"""

from repro.workload.arrivals import (
    poisson_arrivals,
    poisson_arrivals_count,
    saturation_arrivals,
    uniform_arrivals,
)
from repro.workload.processes import (
    ArrivalProcess,
    CompositeProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    PoissonProcess,
    SaturationProcess,
    TraceReplayProcess,
    UniformProcess,
    available_arrivals,
    day_night_process,
    get_arrivals,
)
from repro.workload.traces import Phase, PhasedTrace, day_night_trace

__all__ = [
    "ArrivalProcess",
    "CompositeProcess",
    "DiurnalProcess",
    "FlashCrowdProcess",
    "Phase",
    "PhasedTrace",
    "PoissonProcess",
    "SaturationProcess",
    "TraceReplayProcess",
    "UniformProcess",
    "available_arrivals",
    "day_night_process",
    "day_night_trace",
    "get_arrivals",
    "poisson_arrivals",
    "poisson_arrivals_count",
    "saturation_arrivals",
    "uniform_arrivals",
]
