"""Simulation outputs: per-task records and summary statistics.

:class:`TaskRecord` / :class:`SimResult` are what a full run returns
(also exported from :mod:`repro.sim` and the top-level package).
:class:`SimStats` is the constant-memory
summary the engine produces under ``keep_records=False`` — the mode
the million-request benchmark (:mod:`repro.bench.sim`) runs in, where
materialising one :class:`TaskRecord` per task would dominate the
event loop itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro._util import nearest_rank
from repro.runtime.trace import TraceEvent

__all__ = ["TaskRecord", "SimResult", "SimStats"]


@dataclass(frozen=True)
class TaskRecord:
    """One task's journey through the cluster."""

    task_id: int
    arrival: float
    started: float
    completion: float
    plan_name: str

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


@dataclass
class SimResult:
    """Aggregate simulation output."""

    tasks: List[TaskRecord]
    makespan: float
    device_busy: Dict[str, float]
    plan_usage: Dict[str, int] = field(default_factory=dict)
    #: Collected trace events (empty unless the run passed ``trace=``).
    trace: Tuple[TraceEvent, ...] = ()
    #: Task ids refused admission (only when ``queue_capacity`` was set).
    shed: Tuple[int, ...] = ()

    @property
    def completed(self) -> int:
        return len(self.tasks)

    @property
    def submitted(self) -> int:
        return len(self.tasks) + len(self.shed)

    @property
    def avg_latency(self) -> float:
        if not self.tasks:
            return 0.0
        return sum(t.latency for t in self.tasks) / len(self.tasks)

    @property
    def max_latency(self) -> float:
        return max((t.latency for t in self.tasks), default=0.0)

    def percentile_latency(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100] (nearest-rank)."""
        return nearest_rank((t.latency for t in self.tasks), q)

    @property
    def throughput(self) -> float:
        """Completed tasks per second of makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.completed / self.makespan

    def utilization(self, device_name: str) -> float:
        """Busy fraction of a device over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.device_busy.get(device_name, 0.0) / self.makespan

    def steady_state(self, warmup_tasks: int) -> "SimResult":
        """A view with the first ``warmup_tasks`` completions dropped.

        Pipeline fill-up biases short runs: the first tasks see an empty
        pipeline (low latency) while throughput over the whole makespan
        under-counts the filled regime.  The trimmed view measures the
        post-warm-up window; device-busy totals are scaled by the kept
        task fraction (exact for deterministic service times).
        """
        if warmup_tasks < 0:
            raise ValueError("warmup_tasks must be non-negative")
        if warmup_tasks == 0 or warmup_tasks >= len(self.tasks):
            return self
        by_completion = sorted(self.tasks, key=lambda t: t.completion)
        kept = by_completion[warmup_tasks:]
        window_start = by_completion[warmup_tasks - 1].completion
        fraction = len(kept) / len(self.tasks)
        return SimResult(
            tasks=sorted(kept, key=lambda t: t.task_id),
            makespan=self.makespan - window_start,
            device_busy={k: v * fraction for k, v in self.device_busy.items()},
            plan_usage=dict(self.plan_usage),
            trace=self.trace,
            shed=self.shed,
        )


@dataclass
class SimStats:
    """Constant-memory simulation summary (``keep_records=False``).

    Holds only aggregates — no per-task records, no shed id list — so
    memory stays O(devices + plans) however many requests the arrival
    process generates.  ``n_events`` counts processed simulator events,
    the numerator of the ``BENCH_sim.json`` events/s figure.
    """

    completed: int
    shed_count: int
    makespan: float
    device_busy: Dict[str, float]
    plan_usage: Dict[str, int]
    sum_latency: float
    max_latency: float
    n_events: int

    @property
    def submitted(self) -> int:
        return self.completed + self.shed_count

    @property
    def avg_latency(self) -> float:
        if not self.completed:
            return 0.0
        return self.sum_latency / self.completed

    @property
    def throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.completed / self.makespan

    def utilization(self, device_name: str) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.device_busy.get(device_name, 0.0) / self.makespan
