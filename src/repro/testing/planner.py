"""The seed's Algorithm 1: the scalar ``Ts`` oracle for the vectorized
cost tables and the planner benchmark's baseline.

:class:`StageTimeTable` is the ``Ts`` memo with the scalar per-query
cost model plugged in as its strip cost, and
:func:`plan_homogeneous_reference` runs the Algorithm 1 DP over it,
unpruned.  The production :class:`~repro.cost.tables.SegmentCostTable`
must agree with it entry for entry, bit for bit
(``tests/test_cost_tables.py``).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cluster.device import Cluster
from repro.core.dp_planner import HomoPlan, _min_period_dp
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.stage_cost import homogeneous_stage_time
from repro.cost.tables import StageTimeMemo
from repro.models.graph import Model

__all__ = ["StageTimeTable", "plan_homogeneous_reference"]


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
