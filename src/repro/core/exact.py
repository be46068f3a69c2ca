"""Branch-and-bound *exact* heterogeneous planner.

Algorithm 1 + Algorithm 2 is a heuristic pair: the DP is exact only for
the homogenised cluster (Eq. 12), and the greedy device mapping can lose
to layouts the averaging step cannot see.  This module searches the
heterogeneous stage space directly — every way to cut the unit chain
into contiguous stages *and* every assignment of a device subset to
each stage — and reports the true minimum period, which bounds the
greedy pipeline's optimality gap (``repro.bench.exact`` /
``BENCH_exact.json``).

The search stays exact yet tractable (≤ :data:`MAX_EXACT_DEVICES`
devices) through three standard ingredients:

* **Canonical stage realization.**  A stage is fully determined by its
  segment and device *set*: devices are ordered strongest-first (ties
  keep cluster order) and the output rows are split with
  :func:`~repro.partition.strips.weighted_partition` — exactly
  Algorithm 2's realization — or
  :func:`~repro.partition.strips.equal_partition` when every capacity
  is equal, which makes the homogeneous search space coincide with
  Algorithm 1's DP space (so ``exact == DP`` there, asserted by
  ``tests/test_exact_planner.py``).  Stage costs come from the shared
  vectorized :class:`~repro.cost.tables.SegmentTable`, bit-identical to
  ``plan_cost`` on the realized plan.
* **Greedy incumbent.**  The PICO plan (DP + Algorithm 2), re-costed
  through the same canonical realization, seeds the search — the exact
  result can therefore never be worse than greedy.
* **Relaxed suffix bound.**  ``LB[u]``, the cheapest any stage chain
  covering units ``[u, n)`` could possibly cost ignoring device
  exhaustion (each stage may reuse the globally best subset), prunes
  any prefix whose period already exceeds the incumbent.

``period_bound`` caps the pruning threshold from above: a bound of
``0.0`` prunes every node immediately and the planner returns the
greedy incumbent untouched — the degenerate-pruning regression anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.cluster.device import Cluster, Device
from repro.core.plan import PipelinePlan, StagePlan
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import get_segment_table
from repro.models.graph import Model
from repro.partition.regions import Interval
from repro.partition.strips import equal_partition, strip_regions, weighted_partition
from repro.schemes.base import PlanningError, Scheme

__all__ = [
    "MAX_EXACT_DEVICES",
    "ExactStage",
    "ExactPlan",
    "ExactScheme",
    "plan_exact",
    "realize_exact",
]

#: Hard ceiling on the cluster size the exhaustive search accepts.  The
#: state space grows as (stage cuts) × (device subsets per stage); five
#: devices keeps the full zoo sweep in seconds.
MAX_EXACT_DEVICES = 5


@dataclass(frozen=True)
class ExactStage:
    """One stage of the exact plan: segment + canonical device order."""

    start: int
    end: int
    devices: Tuple[Device, ...]
    cost: float


@dataclass(frozen=True)
class ExactPlan:
    """Branch-and-bound result plus search statistics.

    ``incumbent_period`` is the greedy (PICO) period under the same
    canonical realization; ``improved`` whether the search beat it.
    """

    stages: Tuple[ExactStage, ...]
    period: float
    latency: float
    incumbent_period: float
    nodes: int
    pruned: int

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def improved(self) -> bool:
        return self.period < self.incumbent_period

    @property
    def gap(self) -> float:
        """Greedy optimality gap, ``incumbent / exact − 1`` (≥ 0)."""
        if self.period <= 0.0:
            return 0.0
        return self.incumbent_period / self.period - 1.0


def _canonical_order(
    indices: "FrozenSet[int]", devices: "Tuple[Device, ...]"
) -> "Tuple[int, ...]":
    """Stage device order: strongest first, cluster order on ties —
    Algorithm 2's assignment order inside one stage."""
    return tuple(sorted(indices, key=lambda i: (-devices[i].capacity, i)))


def _canonical_rows(height: int, devices: "Sequence[Device]") -> "List[Interval]":
    """Canonical row split of a stage's output map over its (ordered)
    devices: capacity-weighted — Algorithm 2's realization — unless
    every capacity is equal, where it is Algorithm 1's equal split so
    the homogeneous search space matches the DP bit-for-bit
    (``weighted_partition`` may order remainder rows differently)."""
    caps = [d.capacity for d in devices]
    if all(c == caps[0] for c in caps):
        return equal_partition(height, len(caps))
    return weighted_partition(height, caps)


class _StageCosts:
    """Memoised canonical stage costs over ``(start, end, device set)``."""

    def __init__(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions,
    ) -> None:
        self.model = model
        self.devices = cluster.devices
        self.network = network
        self.segments = get_segment_table(model, options)
        self._memo: "Dict[Tuple[int, int, FrozenSet[int]], float]" = {}

    def cost(self, start: int, end: int, subset: "FrozenSet[int]") -> float:
        key = (start, end, subset)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        devices = [self.devices[i] for i in _canonical_order(subset, self.devices)]
        _, h, _ = self.segments.out_shape(end)
        total = self.segments.stage_total(
            start,
            end,
            list(zip(devices, _canonical_rows(h, devices))),
            self.network,
            with_head=end == self.model.n_units,
        )
        self._memo[key] = total
        return total


def _nonempty_subsets(indices: "Tuple[int, ...]") -> "List[FrozenSet[int]]":
    out = []
    for mask in range(1, 1 << len(indices)):
        out.append(
            frozenset(i for b, i in enumerate(indices) if mask >> b & 1)
        )
    return out


def _greedy_incumbent(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions,
    costs: _StageCosts,
) -> "Tuple[ExactStage, ...]":
    """The PICO plan's stage segments + device sets, re-costed through
    the canonical realization (identical to the greedy plan whenever the
    stage capacities are pairwise distinct)."""
    from repro.schemes.pico import PicoScheme

    plan = PicoScheme().plan(model, cluster, network, options)
    index_of = {id(d): i for i, d in enumerate(cluster.devices)}
    stages = []
    for stage in plan.stages:
        subset = frozenset(index_of[id(d)] for d, _ in stage.assignments)
        ordered = _canonical_order(subset, cluster.devices)
        stages.append(
            ExactStage(
                stage.start,
                stage.end,
                tuple(cluster.devices[i] for i in ordered),
                costs.cost(stage.start, stage.end, subset),
            )
        )
    return tuple(stages)


def plan_exact(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    period_bound: float = math.inf,
    max_devices: int = MAX_EXACT_DEVICES,
) -> ExactPlan:
    """Exhaustive minimum-period heterogeneous pipeline search.

    Minimises the Eq. (10) period (ties break towards lower latency,
    then fewer stages, like Algorithm 1).  Feasible for small clusters
    only; raises :class:`PlanningError` above ``max_devices`` devices.
    """
    n_dev = len(cluster)
    if n_dev > max_devices:
        raise PlanningError(
            f"exact search is exponential in devices: {n_dev} > "
            f"{max_devices} (raise max_devices to force it)"
        )
    n_units = model.n_units
    costs = _StageCosts(model, cluster, network, options)
    incumbent = _greedy_incumbent(model, cluster, network, options, costs)
    incumbent_period = max(s.cost for s in incumbent)
    incumbent_latency = sum(s.cost for s in incumbent)

    all_indices = tuple(range(n_dev))
    all_subsets = _nonempty_subsets(all_indices)
    subsets_of: "Dict[FrozenSet[int], List[FrozenSet[int]]]" = {}

    # Relaxed suffix bound: LB[u] = min over next cut e of
    # max(cheapest stage over [u, e) with *any* subset, LB[e]).
    lb = [0.0] * (n_units + 1)
    for u in range(n_units - 1, -1, -1):
        best = math.inf
        for e in range(u + 1, n_units + 1):
            stage_min = min(costs.cost(u, e, s) for s in all_subsets)
            candidate = stage_min if stage_min > lb[e] else lb[e]
            if candidate < best:
                best = candidate
        lb[u] = best

    best_key = (incumbent_period, incumbent_latency, len(incumbent))
    best_stages: "List[Tuple[int, int, FrozenSet[int]]]" = []
    found_better = False
    nodes = 0
    pruned = 0
    prefix: "List[Tuple[int, int, FrozenSet[int]]]" = []

    # Dominance memo: prefixes reaching the same (position, available
    # devices) state with pointwise-worse (period, latency, stages) can
    # never finish better — the continuation depends only on the state
    # and the final key is monotone in all three components.
    frontiers: "Dict[Tuple[int, FrozenSet[int]], List[Tuple[float, float, int]]]" = {}

    def threshold() -> float:
        return best_key[0] if best_key[0] < period_bound else period_bound

    def dfs(u: int, avail: "FrozenSet[int]", cur_max: float, cur_lat: float) -> None:
        nonlocal best_key, best_stages, found_better, nodes, pruned
        nodes += 1
        bound = cur_max if cur_max > lb[u] else lb[u]
        if bound > threshold():
            pruned += 1
            return
        state = (u, avail)
        mine = (cur_max, cur_lat, len(prefix))
        frontier = frontiers.setdefault(state, [])
        for seen in frontier:
            if seen[0] <= cur_max and seen[1] <= cur_lat and seen[2] <= mine[2]:
                pruned += 1
                return
        frontier[:] = [
            seen
            for seen in frontier
            if not (cur_max <= seen[0] and cur_lat <= seen[1] and mine[2] <= seen[2])
        ]
        frontier.append(mine)
        if u == n_units:
            key = (cur_max, cur_lat, len(prefix))
            if key < best_key:
                best_key = key
                best_stages = list(prefix)
                found_better = True
            return
        if not avail:
            pruned += 1
            return
        avail_tuple = tuple(sorted(avail))
        choices = subsets_of.get(avail)
        if choices is None:
            choices = _nonempty_subsets(avail_tuple)
            subsets_of[avail] = choices
        for e in range(u + 1, n_units + 1):
            for subset in choices:
                c = costs.cost(u, e, subset)
                new_max = cur_max if cur_max > c else c
                if new_max > threshold():
                    continue
                prefix.append((u, e, subset))
                dfs(e, avail - subset, new_max, cur_lat + c)
                prefix.pop()

    dfs(0, frozenset(all_indices), 0.0, 0.0)

    if found_better:
        stages = tuple(
            ExactStage(
                start,
                end,
                tuple(
                    cluster.devices[i]
                    for i in _canonical_order(subset, cluster.devices)
                ),
                costs.cost(start, end, subset),
            )
            for start, end, subset in best_stages
        )
    else:
        stages = incumbent
    return ExactPlan(
        stages,
        best_key[0],
        best_key[1],
        incumbent_period,
        nodes,
        pruned,
    )


def realize_exact(model: Model, plan: ExactPlan) -> PipelinePlan:
    """Lower an :class:`ExactPlan` to a runnable :class:`PipelinePlan`
    via the canonical realization — ``plan_cost`` of the result
    reproduces ``plan.period`` bit-for-bit."""
    stage_plans = []
    for stage in plan.stages:
        _, h, w = model.out_shape(stage.end - 1)
        regions = strip_regions(h, w, _canonical_rows(h, stage.devices))
        stage_plans.append(
            StagePlan(stage.start, stage.end, tuple(zip(stage.devices, regions)))
        )
    return PipelinePlan(model.name, tuple(stage_plans), mode="pipelined")


class ExactScheme(Scheme):
    """Scheme wrapper over :func:`plan_exact` (``--planner exact``)."""

    name = "EXACT"

    def __init__(
        self,
        period_bound: float = math.inf,
        max_devices: int = MAX_EXACT_DEVICES,
    ) -> None:
        self.period_bound = period_bound
        self.max_devices = max_devices

    def plan(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
    ) -> PipelinePlan:
        exact = plan_exact(
            model,
            cluster,
            network,
            options,
            period_bound=self.period_bound,
            max_devices=self.max_devices,
        )
        return realize_exact(model, exact)
