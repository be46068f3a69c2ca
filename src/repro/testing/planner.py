"""The seed's Algorithm 1: the scalar ``Ts`` oracle for the vectorized
cost tables and the planner benchmark's baseline.

:func:`homogeneous_stage_time` is the scalar per-query cost of an
equal strip partition over identical devices, :class:`StageTimeTable`
the ``Ts`` memo with it plugged in as its strip cost, and
:func:`plan_homogeneous_reference` runs the Algorithm 1 DP over it,
unpruned.  The production :class:`~repro.cost.tables.SegmentCostTable`
must agree with it entry for entry, bit for bit
(``tests/test_cost_tables.py``).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cluster.device import Cluster, Device
from repro.core.dp_planner import HomoPlan, _min_period_dp
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.stage_cost import StageCost, stage_time
from repro.cost.tables import StageTimeMemo
from repro.models.graph import Model
from repro.partition.strips import equal_partition, strip_regions

__all__ = ["StageTimeTable", "homogeneous_stage_time", "plan_homogeneous_reference"]


def homogeneous_stage_time(
    model: Model,
    start: int,
    end: int,
    n_devices: int,
    device: Device,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    with_head: bool = False,
) -> StageCost:
    """Stage cost with ``n_devices`` copies of ``device`` and an equal
    strip partition of the segment's final output map (§IV-A1)."""
    _, h, w = model.out_shape(end - 1)
    regions = strip_regions(h, w, equal_partition(h, n_devices))
    assignments = [(device, region) for region in regions]
    return stage_time(model, start, end, assignments, network, options, with_head)


class StageTimeTable(StageTimeMemo):
    """The *reference* ``Ts``: every cache miss re-walks the segment
    through the scalar cost model."""

    def strip_cost(self, start: int, end: int, p: int, with_head: bool) -> float:
        return homogeneous_stage_time(
            self.model,
            start,
            end,
            p,
            self.device,
            self.network,
            self.options,
            with_head=with_head,
        ).total


def plan_homogeneous_reference(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    t_lim: float = math.inf,
    allow_branch: bool = False,
) -> Optional[HomoPlan]:
    """Algorithm 1 with the per-query scalar cost model (the seed
    implementation).  Must return the plans
    :func:`repro.core.dp_planner.plan_homogeneous` returns."""
    homo = cluster.homogenized()
    ts = StageTimeTable(model, homo.devices[0], network, options, allow_branch)
    return _min_period_dp(model, len(homo), ts, t_lim, prune=False)
