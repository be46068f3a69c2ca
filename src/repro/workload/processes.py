"""Lazy arrival processes and the ``get_arrivals`` registry.

The pre-2.0 workload helpers (:mod:`repro.workload.arrivals`,
:mod:`repro.workload.traces`) return materialised lists — fine for
hundreds of tasks, hopeless for the planet-scale scenarios the 2.0
simulator targets.  An :class:`ArrivalProcess` instead *streams* its
submit times through :meth:`ArrivalProcess.times`: a nondecreasing
iterator the event engine consumes one arrival at a time, so a
million-request diurnal trace occupies constant memory.

Every process follows one RNG convention, inherited from
:func:`~repro.workload.arrivals.poisson_arrivals`: ``times(rng=None)``
draws from a fixed seed-0 generator, so two runs of the same scenario
see the same workload unless an explicit ``numpy`` generator (or
:func:`repro.sim.simulate_scenario`'s ``seed=``) says otherwise.
Time-varying processes (diurnal, flash crowd) sample by Lewis
thinning, which preserves that determinism.

:func:`get_arrivals` / :func:`available_arrivals` mirror
:func:`repro.schemes.get_scheme`: the registry behind the CLI's
``--arrivals`` flag and any config-driven experiment.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.workload.arrivals import (
    ArrivalProcess,
    _default_rng,
    iter_poisson,
    iter_uniform,
    saturation_arrivals,
)
from repro.workload.traces import day_night_trace

__all__ = [
    "ArrivalProcess",
    "CompositeProcess",
    "DiurnalProcess",
    "FlashCrowdProcess",
    "PoissonProcess",
    "SaturationProcess",
    "TraceReplayProcess",
    "UniformProcess",
    "available_arrivals",
    "day_night_process",
    "get_arrivals",
]


def _thinned(
    rate_at: "Callable[[float], float]",
    rate_max: float,
    horizon_s: float,
    rng: np.random.Generator,
) -> Iterator[float]:
    """Lewis thinning: sample an inhomogeneous Poisson process from a
    homogeneous ``rate_max`` envelope, keeping each candidate with
    probability ``rate_at(t) / rate_max``."""
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_max))
        if t >= horizon_s:
            return
        if float(rng.uniform(0.0, rate_max)) < rate_at(t):
            yield t


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate``/s.

    Bounded by ``horizon_s`` (seconds) or ``n_tasks`` (count) — the
    count bound is what lets benchmarks ask for exactly a million
    requests.  The draw sequence matches
    :func:`~repro.workload.arrivals.poisson_arrivals` gap for gap, so
    seeded runs reproduce the legacy lists.
    """

    def __init__(
        self,
        rate: float,
        horizon_s: Optional[float] = None,
        n_tasks: Optional[int] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if horizon_s is None and n_tasks is None:
            raise ValueError("bound the process with horizon_s= or n_tasks=")
        if horizon_s is not None and horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if n_tasks is not None and n_tasks < 0:
            raise ValueError("n_tasks must be non-negative")
        self.rate = float(rate)
        self.horizon_s = math.inf if horizon_s is None else float(horizon_s)
        self.n_tasks = n_tasks

    def times(self, rng=None) -> Iterator[float]:
        return iter_poisson(
            self.rate, self.horizon_s, self.n_tasks, _default_rng(rng)
        )

    def rate_at(self, t: float) -> float:
        return self.rate if 0 <= t < self.horizon_s else 0.0


class UniformProcess(ArrivalProcess):
    """Deterministic, evenly spaced arrivals (exact-test workhorse)."""

    def __init__(self, rate: float, horizon_s: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        self.rate = float(rate)
        self.horizon_s = float(horizon_s)

    def times(self, rng=None) -> Iterator[float]:
        return iter_uniform(self.rate, self.horizon_s)

    def rate_at(self, t: float) -> float:
        return self.rate if 0 <= t < self.horizon_s else 0.0


class SaturationProcess(ArrivalProcess):
    """All tasks submitted at t=0 — maximum-throughput measurement."""

    horizon_s = 0.0

    def __init__(self, n_tasks: int) -> None:
        if n_tasks <= 0:
            raise ValueError("n_tasks must be positive")
        self.n_tasks = n_tasks

    def times(self, rng=None) -> Iterator[float]:
        return iter(saturation_arrivals(self.n_tasks))

    def rate_at(self, t: float) -> float:
        return math.inf if t == 0 else 0.0


#: The smart-home motivation, alternating light/heavy phases: a
#: :class:`~repro.workload.traces.PhasedTrace` is itself a process.
day_night_process = day_night_trace


class DiurnalProcess(ArrivalProcess):
    """Sinusoidal day/night load: rate swings ``base_rate`` →
    ``peak_rate`` once per ``period_s``, starting at the trough."""

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        period_s: float,
        horizon_s: float,
        phase_s: float = 0.0,
    ) -> None:
        if base_rate < 0:
            raise ValueError("base rate must be non-negative")
        if peak_rate < base_rate or peak_rate <= 0:
            raise ValueError("peak rate must be positive and >= base rate")
        if period_s <= 0:
            raise ValueError("period must be positive")
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        self.base_rate = float(base_rate)
        self.peak_rate = float(peak_rate)
        self.period_s = float(period_s)
        self.horizon_s = float(horizon_s)
        self.phase_s = float(phase_s)

    def rate_at(self, t: float) -> float:
        if not 0 <= t < self.horizon_s:
            return 0.0
        swing = (self.peak_rate - self.base_rate) / 2.0
        angle = 2.0 * math.pi * (t - self.phase_s) / self.period_s
        return self.base_rate + swing * (1.0 - math.cos(angle))

    def times(self, rng=None) -> Iterator[float]:
        return _thinned(
            self.rate_at, self.peak_rate, self.horizon_s, _default_rng(rng)
        )


class FlashCrowdProcess(ArrivalProcess):
    """A flash crowd: baseline load, a linear ramp to ``peak_rate`` at
    ``t_start``, a hold, and a linear decay back to baseline.

    The stress pattern ROADMAP item 4 wants the fleet scheduler judged
    on — the viral-clip / breaking-news shape no stationary Poisson
    run can produce.
    """

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        t_start: float,
        ramp_s: float,
        hold_s: float,
        decay_s: float,
        horizon_s: Optional[float] = None,
    ) -> None:
        if base_rate < 0:
            raise ValueError("base rate must be non-negative")
        if peak_rate <= base_rate:
            raise ValueError("peak rate must exceed the base rate")
        if t_start < 0:
            raise ValueError("t_start must be non-negative")
        if min(ramp_s, hold_s, decay_s) < 0:
            raise ValueError("ramp/hold/decay durations must be non-negative")
        self.base_rate = float(base_rate)
        self.peak_rate = float(peak_rate)
        self.t_start = float(t_start)
        self.ramp_s = float(ramp_s)
        self.hold_s = float(hold_s)
        self.decay_s = float(decay_s)
        end = t_start + ramp_s + hold_s + decay_s
        self.horizon_s = float(horizon_s) if horizon_s is not None else end
        if self.horizon_s <= 0:
            raise ValueError("horizon must be positive")

    def rate_at(self, t: float) -> float:
        if not 0 <= t < self.horizon_s:
            return 0.0
        u = t - self.t_start
        if u < 0:
            return self.base_rate
        if u < self.ramp_s:
            return self.base_rate + (
                (self.peak_rate - self.base_rate) * u / self.ramp_s
            )
        u -= self.ramp_s
        if u < self.hold_s:
            return self.peak_rate
        u -= self.hold_s
        if u < self.decay_s:
            return self.peak_rate - (
                (self.peak_rate - self.base_rate) * u / self.decay_s
            )
        return self.base_rate

    def times(self, rng=None) -> Iterator[float]:
        return _thinned(
            self.rate_at, self.peak_rate, self.horizon_s, _default_rng(rng)
        )


class TraceReplayProcess(ArrivalProcess):
    """Replay recorded submit times from a file or an in-memory
    sequence.

    A file source is read lazily, one line at a time (one float per
    line; blank lines and ``#`` comments skipped), so multi-gigabyte
    production traces replay in constant memory.  ``time_scale``
    compresses or stretches the recording; ``time_offset`` shifts it.
    The stream must be nondecreasing after scaling — a clear error
    names the offending entry otherwise.
    """

    def __init__(
        self,
        source: "Union[str, Sequence[float], Iterable[float]]",
        time_scale: float = 1.0,
        time_offset: float = 0.0,
        n_tasks: Optional[int] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if n_tasks is not None and n_tasks < 0:
            raise ValueError("n_tasks must be non-negative")
        self.source = source
        self.time_scale = float(time_scale)
        self.time_offset = float(time_offset)
        self.n_tasks = n_tasks
        self.horizon_s = math.inf

    def _raw(self) -> Iterator[float]:
        if isinstance(self.source, str):
            with open(self.source) as handle:
                for line in handle:
                    text = line.strip()
                    if not text or text.startswith("#"):
                        continue
                    yield float(text)
        else:
            for value in self.source:
                yield float(value)

    def times(self, rng=None) -> Iterator[float]:
        def generate() -> Iterator[float]:
            last = None
            for i, raw in enumerate(self._raw()):
                if self.n_tasks is not None and i >= self.n_tasks:
                    return
                t = raw * self.time_scale + self.time_offset
                if last is not None and t < last:
                    raise ValueError(
                        f"trace entry {i} goes backwards in time "
                        f"({t} after {last})"
                    )
                last = t
                yield t

        return generate()

    def rate_at(self, t: float) -> float:
        """Recorded traces carry no rate model; 0 by convention."""
        return 0.0


class CompositeProcess(ArrivalProcess):
    """Superposition of independent processes (tenant mixes, a flash
    crowd on top of a diurnal baseline, …): the streams are lazily
    merge-sorted, each child drawing from its own generator split off
    the master seed."""

    def __init__(self, processes: "Sequence[ArrivalProcess]") -> None:
        if not processes:
            raise ValueError("composite needs at least one process")
        self.processes = tuple(processes)
        self.horizon_s = max(p.horizon_s for p in self.processes)

    def times(self, rng=None) -> Iterator[float]:
        rng = _default_rng(rng)
        children = [
            np.random.default_rng(int(seed))
            for seed in rng.integers(0, 2**63 - 1, size=len(self.processes))
        ]
        return heapq.merge(
            *(p.times(child) for p, child in zip(self.processes, children))
        )

    def rate_at(self, t: float) -> float:
        return sum(p.rate_at(t) for p in self.processes)


#: The blessed workload names, mirroring ``repro.schemes._REGISTRY``.
_REGISTRY = {
    "poisson": PoissonProcess,
    "uniform": UniformProcess,
    "saturation": SaturationProcess,
    "day-night": day_night_trace,
    "diurnal": DiurnalProcess,
    "flash-crowd": FlashCrowdProcess,
    "trace-replay": TraceReplayProcess,
    "composite": CompositeProcess,
}


def available_arrivals() -> "tuple":
    """The registered arrival-process names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_arrivals(name: str, **kwargs) -> ArrivalProcess:
    """Instantiate an arrival process by name (case-insensitive;
    ``_`` and `` `` normalise to ``-``).

    The workload counterpart of :func:`repro.schemes.get_scheme`:
    ``get_arrivals("flash-crowd", base_rate=2, peak_rate=20,
    t_start=30, ramp_s=5, hold_s=20, decay_s=10)``.  ``kwargs`` pass
    straight to the process constructor.
    """
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    factory = _REGISTRY.get(key)
    if factory is None:
        raise ValueError(
            f"unknown arrival process {name!r}; available: "
            + ", ".join(available_arrivals())
        )
    return factory(**kwargs)
