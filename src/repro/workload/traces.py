"""Synthetic workload traces with time-varying rates.

The paper motivates APICO with diurnal smart-home load ("idle when
occupants go to work, busy when they return").  A :class:`PhasedTrace`
concatenates Poisson segments with different rates, producing exactly
the light→heavy→light patterns the adaptive switcher must track.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.workload.arrivals import ArrivalProcess, _default_rng, iter_poisson

__all__ = ["Phase", "PhasedTrace", "day_night_trace"]


@dataclass(frozen=True)
class Phase:
    """A constant-rate segment of a trace."""

    rate: float  # tasks / second
    duration_s: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class PhasedTrace(ArrivalProcess):
    """A sequence of Poisson phases played back to back."""

    phases: Tuple[Phase, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ValueError("trace needs at least one phase")

    @property
    def horizon_s(self) -> float:
        return sum(p.duration_s for p in self.phases)

    def times(self, rng: Optional[np.random.Generator] = None) -> Iterator[float]:
        """The arrivals, streamed: one Poisson segment per phase, all
        drawn from ``rng`` (fixed seed unless supplied) in phase order."""
        rng = _default_rng(rng)
        offset = 0.0
        for phase in self.phases:
            if phase.rate > 0:
                for t in iter_poisson(phase.rate, phase.duration_s, None, rng):
                    yield offset + t
            offset += phase.duration_s

    def rate_at(self, t: float) -> float:
        """The nominal rate active at time ``t``."""
        offset = 0.0
        for phase in self.phases:
            if t < offset + phase.duration_s:
                return phase.rate
            offset += phase.duration_s
        return self.phases[-1].rate


def day_night_trace(
    light_rate: float, heavy_rate: float, phase_duration_s: float, cycles: int = 1
) -> PhasedTrace:
    """Alternating light/heavy phases (the smart-home motivation)."""
    if cycles < 1:
        raise ValueError("cycles must be positive")
    phases: "List[Phase]" = []
    for _ in range(cycles):
        phases.append(Phase(light_rate, phase_duration_s))
        phases.append(Phase(heavy_rate, phase_duration_s))
    return PhasedTrace(tuple(phases))
