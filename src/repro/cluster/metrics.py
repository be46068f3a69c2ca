"""Per-device utilisation and redundancy metrics (paper Table I, Fig. 13).

Utilisation is CPU busy time over the measurement window (from the
simulator).  Redundancy is static per plan: for each device, the
fraction of its per-task FLOPs that fall outside its *owned*
(stride-projected, halo-free) share — redundant work it duplicates with
a neighbouring device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plan import PipelinePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.models.graph import Model
from repro.runtime.trace import TraceEvent, device_busy, trace_makespan
from repro.sim.result import SimResult

__all__ = ["DeviceReport", "UtilizationTable", "utilization_table"]


@dataclass(frozen=True)
class DeviceReport:
    """Table I row fragment for one device."""

    name: str
    capacity: float
    utilization: float
    flops_per_task: float
    owned_flops_per_task: float

    @property
    def redundancy_ratio(self) -> float:
        if self.flops_per_task <= 0:
            return 0.0
        return max(0.0, self.flops_per_task - self.owned_flops_per_task) / (
            self.flops_per_task
        )


@dataclass(frozen=True)
class UtilizationTable:
    """All device rows plus cluster averages."""

    scheme: str
    model: str
    devices: Tuple[DeviceReport, ...]

    @property
    def average_utilization(self) -> float:
        active = [d for d in self.devices if d.flops_per_task > 0]
        pool = active or list(self.devices)
        return sum(d.utilization for d in pool) / len(pool)

    @property
    def average_redundancy(self) -> float:
        total = sum(d.flops_per_task for d in self.devices)
        if total <= 0:
            return 0.0
        redundant = sum(
            d.flops_per_task - d.owned_flops_per_task for d in self.devices
        )
        return max(0.0, redundant) / total


def utilization_table(
    model: Model,
    plan: PipelinePlan,
    network: NetworkModel,
    sim: Optional[SimResult] = None,
    options: CostOptions = DEFAULT_OPTIONS,
    scheme_name: str = "?",
    trace: "Optional[Sequence[TraceEvent]]" = None,
) -> UtilizationTable:
    """Build the Table I metrics for one plan.

    ``sim`` provides measured busy times from the event simulator;
    ``trace`` computes them from runtime-core trace events instead
    (any backend — live or virtual-clock — emits the same schema).
    Without either, utilisation falls back to the analytic
    steady-state estimate (busy share per period).
    """
    if sim is not None and trace is not None:
        raise ValueError("pass at most one of sim= and trace=")
    trace_window = trace_makespan(trace) if trace is not None else 0.0
    trace_busy = device_busy(trace) if trace is not None else {}
    cost = plan_cost(model, plan, network, options)
    flops: "Dict[str, float]" = {}
    owned: "Dict[str, float]" = {}
    capacity: "Dict[str, float]" = {}
    busy_per_task: "Dict[str, float]" = {}
    for sc in cost.stage_costs:
        for dc in sc.devices:
            name = dc.device.name
            capacity[name] = dc.device.capacity
            flops[name] = flops.get(name, 0.0) + dc.flops
            owned[name] = owned.get(name, 0.0) + dc.owned_flops
            # Busy = compute + own transfers (single-core CPU usage).
            busy_per_task[name] = (
                busy_per_task.get(name, 0.0) + dc.t_comp + dc.t_comm
            )

    reports: "List[DeviceReport]" = []
    for name in capacity:
        if sim is not None:
            util = sim.utilization(name)
        elif trace is not None:
            util = (
                trace_busy.get(name, 0.0) / trace_window
                if trace_window > 0
                else 0.0
            )
        else:
            # Steady state: each device works busy_per_task seconds out
            # of every pipeline period.
            util = busy_per_task[name] / cost.period if cost.period > 0 else 0.0
        reports.append(
            DeviceReport(
                name,
                capacity[name],
                min(1.0, util),
                flops.get(name, 0.0),
                owned.get(name, 0.0),
            )
        )
    reports.sort(key=lambda r: (-r.capacity, r.name))
    return UtilizationTable(scheme_name, model.name, tuple(reports))
