"""Optimal-Fused-Layer parallelization (AOFL, Zhou et al. SEC'19).

Selects fusion points over the whole network by dynamic programming:
each contiguous group of units is parallelized across the *best-sized*
device subset (the fastest ``k`` devices, ``k`` optimised per group —
adding a device pays both communication and halo redundancy, so deep
groups prefer fewer devices), with running on one device as the ``k=1``
degenerate case; the per-group choices chain to minimise total
single-task time.  Still a one-stage scheme: one task occupies the
whole cluster.

Group costs are Eq. 9 queries against the shared vectorized
:class:`~repro.cost.tables.SegmentTable` — the table PICO's DP uses —
so a re-plan on churn costs milliseconds, not a scalar re-walk of every
(group, width) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.device import Cluster
from repro.core.plan import PipelinePlan, StagePlan
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import get_segment_table
from repro.models.graph import Model
from repro.partition.strips import weighted_strips
from repro.schemes.base import Scheme

__all__ = ["OptimalFusedScheme"]


@dataclass(frozen=True)
class _GroupChoice:
    cost: float
    n_devices: int  # 1 == serial on the fastest device


class OptimalFusedScheme(Scheme):
    """DP-optimised fusion-point + group-width selection (one-stage
    scheme)."""

    name = "OFL"

    def plan(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
    ) -> PipelinePlan:
        n = model.n_units
        ranked = cluster.sorted_by_capacity()
        table = get_segment_table(model, options)
        choice: "dict[Tuple[int, int], _GroupChoice]" = {}

        def assignments_for(end: int, k: int):
            _, h, w = model.out_shape(end - 1)
            return weighted_strips(h, w, ranked[:k])

        def group_cost(start: int, end: int) -> _GroupChoice:
            key = (start, end)
            cached = choice.get(key)
            if cached is not None:
                return cached
            result: Optional[_GroupChoice] = None
            for k in range(1, len(ranked) + 1):
                cost = table.stage_total(
                    start,
                    end,
                    [(d, region.rows) for d, region in assignments_for(end, k)],
                    network,
                    with_head=end == n,
                )
                if result is None or cost < result.cost:
                    result = _GroupChoice(cost, k)
            assert result is not None
            choice[key] = result
            return result

        best: "List[float]" = [0.0] + [float("inf")] * n
        back: "List[Optional[int]]" = [None] * (n + 1)
        for j in range(1, n + 1):
            for i in range(j):
                cost = best[i] + group_cost(i, j).cost
                if cost < best[j]:
                    best[j] = cost
                    back[j] = i
        cuts = []
        j = n
        while j > 0:
            i = back[j]
            assert i is not None
            cuts.append((i, j))
            j = i
        cuts.reverse()

        stages = []
        for start, end in cuts:
            k = group_cost(start, end).n_devices
            stages.append(StagePlan(start, end, assignments_for(end, k)))
        return PipelinePlan(model.name, tuple(stages), mode="exclusive")
