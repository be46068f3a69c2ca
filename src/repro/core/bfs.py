"""Exhaustive optimal search (the paper's §V-C "BFS" baseline).

Enumerates every contiguous unit split and every device allocation per
stage, with branch-and-bound pruning on the incumbent period and the
latency budget.  Devices are grouped into capacity classes — the stage
cost depends only on the *multiset* of assigned capacities, which
collapses the ``8! = 40320`` orderings of the paper's testbed to a few
dozen class vectors per stage and is what makes exact search feasible
at all on small instances.  Complexity is still exponential in
(units × classes); Table II reproduces exactly that blow-up.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.device import Cluster, Device
from repro.core.plan import PipelinePlan, StagePlan
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import SegmentTable, get_segment_table
from repro.models.graph import Model
from repro.partition.strips import weighted_partition, weighted_strips

__all__ = ["BFSResult", "bfs_optimal"]


@dataclass(frozen=True)
class BFSResult:
    """Outcome of the exhaustive search."""

    plan: Optional[PipelinePlan]
    period: float
    latency: float
    optimal: bool  # False when the deadline cut the search short
    nodes_explored: int
    elapsed_s: float


def _device_classes(cluster: Cluster) -> "List[List[Device]]":
    """Group devices into capacity classes, strongest class first
    (members keep cluster order)."""
    classes: "Dict[Tuple[float, float], List[Device]]" = {}
    for device in cluster:
        classes.setdefault((device.capacity, device.alpha), []).append(device)
    return [
        devs for _, devs in sorted(classes.items(), key=lambda kv: -kv[0][0])
    ]


def bfs_optimal(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    t_lim: float = math.inf,
    deadline_s: Optional[float] = None,
    max_stages: Optional[int] = None,
    table: Optional[SegmentTable] = None,
) -> BFSResult:
    """Find the minimum-period pipeline by exhaustive search.

    ``deadline_s`` bounds wall-clock; if hit, the best incumbent is
    returned with ``optimal=False``.  ``max_stages`` optionally caps the
    stage count (useful to keep tiny benchmark instances comparable).

    Stage costs are answered by the shared
    :class:`~repro.cost.tables.SegmentTable` (``table`` is the test
    seam for supplying another one): ``stage_total`` is bit-identical
    to ``stage_time`` and falls back to it by itself on the segments
    the closed form cannot express.
    """
    started = time.perf_counter()
    if table is None:
        table = get_segment_table(model, options)
    classes = _device_classes(cluster)
    n_units = model.n_units
    memo: "Dict[Tuple[int, int, Tuple[int, ...]], float]" = {}

    def stage_devices(
        alloc: "Tuple[int, ...]", offsets: "Sequence[int]"
    ) -> "List[Device]":
        """``alloc[c]`` devices of each class; ``offsets`` tracks how
        many of each class earlier stages already consumed, so no device
        appears in two pipelined stages."""
        devices: "List[Device]" = []
        for members, base, count in zip(classes, offsets, alloc):
            devices.extend(members[base : base + count])
        return devices

    def stage_cost_of(start: int, end: int, alloc: "Tuple[int, ...]") -> float:
        key = (start, end, alloc)
        cached = memo.get(key)
        if cached is not None:
            return cached
        # Cost depends only on the capacity multiset, so offsets of 0
        # are fine for evaluation.
        devices = stage_devices(alloc, [0] * len(alloc))
        _, h, _ = model.out_shape(end - 1)
        rows = weighted_partition(h, [d.capacity for d in devices])
        cost = table.stage_total(
            start, end, list(zip(devices, rows)), network,
            with_head=end == n_units,
        )
        memo[key] = cost
        return cost

    best_period = math.inf
    best_latency = math.inf
    # Each chosen stage is recorded abstractly as (start, end, alloc).
    best_choice: "Optional[Tuple[Tuple[int, int, Tuple[int, ...]], ...]]" = None
    nodes = 0
    timed_out = False

    def allocations(remaining: "Tuple[int, ...]"):
        ranges = [range(r + 1) for r in remaining]
        for vec in itertools.product(*ranges):
            if sum(vec) >= 1:
                yield vec

    def dfs(
        pos: int,
        remaining: "Tuple[int, ...]",
        period: float,
        latency: float,
        choice: "List[Tuple[int, int, Tuple[int, ...]]]",
    ) -> None:
        nonlocal best_period, best_latency, best_choice, nodes, timed_out
        if timed_out:
            return
        if deadline_s is not None and time.perf_counter() - started > deadline_s:
            timed_out = True
            return
        if pos == n_units:
            if (period, latency) < (best_period, best_latency):
                best_period, best_latency = period, latency
                best_choice = tuple(choice)
            return
        if max_stages is not None and len(choice) >= max_stages:
            return
        for end in range(pos + 1, n_units + 1):
            for alloc in allocations(remaining):
                nodes += 1
                cost = stage_cost_of(pos, end, alloc)
                new_period = max(period, cost)
                new_latency = latency + cost
                if new_period >= best_period or new_latency > t_lim:
                    continue
                choice.append((pos, end, alloc))
                dfs(
                    pos=end,
                    remaining=tuple(r - a for r, a in zip(remaining, alloc)),
                    period=new_period,
                    latency=new_latency,
                    choice=choice,
                )
                choice.pop()
                if timed_out:
                    return

    dfs(0, tuple(len(members) for members in classes), 0.0, 0.0, [])
    elapsed = time.perf_counter() - started
    if best_choice is None:
        return BFSResult(None, math.inf, math.inf, not timed_out, nodes, elapsed)
    # Materialise the winning abstract stages with distinct devices.
    offsets = [0] * len(classes)
    stages: "List[StagePlan]" = []
    for start_u, end_u, alloc in best_choice:
        _, h, w = model.out_shape(end_u - 1)
        assignments = weighted_strips(h, w, stage_devices(alloc, offsets))
        stages.append(StagePlan(start_u, end_u, assignments))
        offsets = [o + a for o, a in zip(offsets, alloc)]
    plan = PipelinePlan(model.name, tuple(stages), mode="pipelined")
    return BFSResult(plan, best_period, best_latency, not timed_out, nodes, elapsed)
