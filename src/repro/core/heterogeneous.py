"""Algorithm 2: adapt the homogeneous plan to the real cluster.

Keeps every stage's model segment fixed and re-assigns real devices:
devices are visited strongest-first, each joining the open stage with
the highest remaining average computing requirement ``Θ' / |D'|``
(the paper's prose; its pseudocode prints "minimum", an evident typo —
assigning the strongest devices to the *lightest* stages would invert
the load balance the text describes).  Once a stage's slots fill, its
final output map is split with the capacity-weighted divide-and-conquer
partition, so each device's strip is proportional to its speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cluster.device import Cluster
from repro.core.dp_planner import HomoPlan
from repro.core.plan import PipelinePlan, StagePlan
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS, segment_flops
from repro.models.graph import Model
from repro.partition.regions import Region
from repro.partition.strips import equal_partition, strip_regions, weighted_strips

__all__ = ["adapt_to_cluster"]


@dataclass
class _OpenStage:
    start: int
    end: int
    slots: int  # devices still to assign
    requirement: float  # Θ' of the homogeneous stage
    devices: "List"

    @property
    def avg_requirement(self) -> float:
        return self.requirement / self.slots if self.slots > 0 else float("-inf")


def _stage_requirement(
    model: Model, start: int, end: int, n_devices: int, options: CostOptions
) -> float:
    """Θ'_{i→j} (Eq. 14): total FLOPs over the homogeneous stage's equal
    partition, halo included."""
    _, h, w = model.out_shape(end - 1)
    total = 0.0
    for region in strip_regions(h, w, equal_partition(h, n_devices)):
        if not region.empty:
            total += segment_flops(model, start, end, region, options)
    return total


def adapt_to_cluster(
    model: Model,
    homo_plan: HomoPlan,
    cluster: Cluster,
    options: CostOptions = DEFAULT_OPTIONS,
) -> PipelinePlan:
    """Map a :class:`HomoPlan` onto heterogeneous devices (Algorithm 2)."""
    if homo_plan.devices_used > len(cluster):
        raise ValueError(
            f"plan uses {homo_plan.devices_used} devices, cluster has {len(cluster)}"
        )
    open_stages = [
        _OpenStage(
            s.start,
            s.end,
            s.n_devices,
            _stage_requirement(model, s.start, s.end, s.n_devices, options),
            [],
        )
        for s in homo_plan.stages
    ]
    # Strongest devices first; only as many as the plan needs (Algorithm 1
    # may intentionally idle devices whose marginal gain is negative).
    for device in cluster.sorted_by_capacity()[: homo_plan.devices_used]:
        target = max(
            (stage for stage in open_stages if stage.slots > 0),
            key=lambda stage: stage.avg_requirement,
        )
        target.devices.append(device)
        target.slots -= 1

    stage_plans = []
    for stage, homo_stage in zip(open_stages, homo_plan.stages):
        assert stage.slots == 0 and stage.devices
        _, h, w = model.out_shape(stage.end - 1)
        if homo_stage.branch:
            # Branch-parallel stage: whole block paths per device (LPT
            # weighted by capacity); every device spans the full map.
            from repro.partition.branches import assign_paths_lpt, path_flops

            weights = path_flops(model, stage.start, options)
            groups = assign_paths_lpt(
                weights, [d.capacity for d in stage.devices]
            )
            assignments = tuple(
                (device, Region.full(h, w)) for device in stage.devices
            )
            stage_plans.append(
                StagePlan(stage.start, stage.end, assignments, path_groups=groups)
            )
            continue
        stage_plans.append(
            StagePlan(stage.start, stage.end, weighted_strips(h, w, stage.devices))
        )
    return PipelinePlan(model.name, tuple(stage_plans), mode="pipelined")
