"""Execution plans: stages, pipelines and their costs.

A :class:`PipelinePlan` is the planner output the rest of the system
consumes — the simulator replays it, the multiprocess runtime executes
it, the metrics module scores it.  Two modes exist:

* ``pipelined`` — stages run concurrently on disjoint device subsets;
  throughput is ``1 / period`` (PICO).
* ``exclusive`` — the whole cluster serves one task at a time through
  the phase sequence; period equals latency (layer-wise and fused-layer
  baselines, the paper's "one-stage schemes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.device import Device
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.stage_cost import (
    StageCost,
    branch_stage_time,
    channel_stage_time,
    stage_time,
)
from repro.models.graph import Model
from repro.partition.regions import Region

__all__ = ["StagePlan", "PipelinePlan", "PlanCost", "plan_cost"]

Assignment = Tuple[Device, Region]


@dataclass(frozen=True)
class StagePlan:
    """One stage: unit segment ``[start, end)`` plus device/region
    assignments over the segment's final output map.

    ``path_groups`` switches the stage to *branch-parallel* mode (the
    paper's future-work intra-block partition, implemented for concat
    blocks): entry ``i`` lists the block paths device ``i`` executes
    over the full spatial map, and each assignment's region is the full
    output map.  Branch stages must cover exactly one (block) unit.

    ``channel_groups`` switches the stage to *channel-parallel* mode
    (Interleaved Operator Partitioning, arXiv:2409.07693): entry ``i``
    is the half-open output-channel interval ``[lo, hi)`` device ``i``
    produces over the full spatial map.  Like branch stages, channel
    stages cover exactly one unit and each assignment's region is the
    full output map; an empty interval (``lo == hi``) idles the device.
    """

    start: int
    end: int
    assignments: Tuple[Assignment, ...]
    path_groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    channel_groups: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(self.assignments))
        if self.end <= self.start:
            raise ValueError(f"empty stage segment [{self.start}, {self.end})")
        if not self.assignments:
            raise ValueError("stage needs at least one device")
        if self.path_groups is not None and self.channel_groups is not None:
            raise ValueError(
                "a stage is branch-parallel or channel-parallel, not both"
            )
        if self.channel_groups is not None:
            object.__setattr__(
                self,
                "channel_groups",
                tuple((int(lo), int(hi)) for lo, hi in self.channel_groups),
            )
            if self.end != self.start + 1:
                raise ValueError("channel-parallel stages cover exactly one unit")
            if len(self.channel_groups) != len(self.assignments):
                raise ValueError(
                    "channel_groups must align one-to-one with assignments"
                )
            spans = []
            for lo, hi in self.channel_groups:
                if lo < 0 or hi < lo:
                    raise ValueError(f"bad channel interval [{lo}, {hi})")
                if hi > lo:
                    spans.append((lo, hi))
            spans.sort()
            for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
                if lo < prev_hi:
                    raise ValueError(
                        "channel intervals must be pairwise disjoint"
                    )
        if self.path_groups is not None:
            object.__setattr__(
                self, "path_groups", tuple(tuple(g) for g in self.path_groups)
            )
            if self.end != self.start + 1:
                raise ValueError("branch-parallel stages cover exactly one unit")
            if len(self.path_groups) != len(self.assignments):
                raise ValueError(
                    "path_groups must align one-to-one with assignments"
                )
            indices = [i for group in self.path_groups for i in group]
            if len(indices) != len(set(indices)):
                raise ValueError("a path may be assigned to only one device")

    @property
    def devices(self) -> Tuple[Device, ...]:
        return tuple(device for device, _ in self.assignments)

    @property
    def n_units(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class PipelinePlan:
    """A complete plan: contiguous stages covering every model unit."""

    model_name: str
    stages: Tuple[StagePlan, ...]
    mode: str = "pipelined"  # "pipelined" | "exclusive"

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("plan needs at least one stage")
        if self.mode not in ("pipelined", "exclusive"):
            raise ValueError(f"unknown plan mode {self.mode!r}")
        if self.stages[0].start != 0:
            raise ValueError("first stage must start at unit 0")
        for prev, cur in zip(self.stages, self.stages[1:]):
            if cur.start != prev.end:
                raise ValueError(
                    f"stage gap: [{prev.start},{prev.end}) then [{cur.start},{cur.end})"
                )
        if self.mode == "pipelined":
            seen: "Dict[str, int]" = {}
            for idx, stage in enumerate(self.stages):
                for device in stage.devices:
                    if device.name in seen and seen[device.name] != idx:
                        raise ValueError(
                            f"device {device.name} assigned to two pipelined stages"
                        )
                    seen[device.name] = idx

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def all_devices(self) -> Tuple[Device, ...]:
        devices: "List[Device]" = []
        seen = set()
        for stage in self.stages:
            for device in stage.devices:
                if device.name not in seen:
                    seen.add(device.name)
                    devices.append(device)
        return tuple(devices)

    def describe(self) -> str:
        lines = [f"{self.model_name} plan ({self.mode}, {self.n_stages} stages)"]
        for i, stage in enumerate(self.stages):
            names = ", ".join(d.name for d in stage.devices)
            kind = ""
            if stage.path_groups is not None:
                groups = "/".join(
                    ",".join(str(p) for p in g) or "-" for g in stage.path_groups
                )
                kind = f" [branch-parallel: paths {groups}]"
            elif stage.channel_groups is not None:
                groups = "/".join(
                    f"{lo}:{hi}" if hi > lo else "-"
                    for lo, hi in stage.channel_groups
                )
                kind = f" [channel-parallel: channels {groups}]"
            lines.append(
                f"  stage {i}: units [{stage.start}, {stage.end}) on "
                f"{len(stage.assignments)} device(s): {names}{kind}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PlanCost:
    """Analytic timing of a plan (paper Eq. 9–11)."""

    stage_costs: Tuple[StageCost, ...]
    period: float  # Eq. 10 — pipelined: max stage; exclusive: total
    latency: float  # Eq. 11 — sum of stage costs

    @property
    def throughput(self) -> float:
        """Steady-state tasks per second."""
        return 1.0 / self.period if self.period > 0 else float("inf")


def plan_cost(
    model: Model,
    plan: PipelinePlan,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
) -> PlanCost:
    """Evaluate a plan with the analytic cost model."""
    if plan.stages[-1].end != model.n_units:
        raise ValueError(
            f"plan covers units up to {plan.stages[-1].end}, model has "
            f"{model.n_units}"
        )
    costs = []
    for stage in plan.stages:
        # One Eq. 9 fold, three geometries producing its rows.
        with_head = stage.end == model.n_units
        if stage.path_groups is not None:
            cost = branch_stage_time(
                model, stage.start, tuple(zip(stage.devices, stage.path_groups)),
                network, options, with_head,
            )
        elif stage.channel_groups is not None:
            cost = channel_stage_time(
                model, stage.start, tuple(zip(stage.devices, stage.channel_groups)),
                network, options, with_head,
            )
        else:
            cost = stage_time(
                model, stage.start, stage.end, stage.assignments,
                network, options, with_head,
            )
        costs.append(cost)
    latency = sum(c.total for c in costs)
    if plan.mode == "pipelined":
        period = max(c.total for c in costs)
        if options.shared_medium:
            # One WLAN: every stage's scatter/gather shares the medium,
            # so each period must carry the *total* communication.
            period = max(period, sum(c.t_comm for c in costs))
    else:
        period = latency
    return PlanCost(tuple(costs), period, latency)
