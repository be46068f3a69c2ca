"""Branch-and-bound *exact* heterogeneous planner.

Algorithm 1 + Algorithm 2 is a heuristic pair: the DP is exact only for
the homogenised cluster (Eq. 12), and the greedy device mapping can lose
to layouts the averaging step cannot see.  This module searches the
heterogeneous stage space directly — every way to cut the unit chain
into contiguous stages *and* every allocation of disjoint devices to
each stage — and reports the true minimum period.  It is the only
exhaustive search in the package: the paper's §V-C "BFS" optimum
(Fig. 13, Table II) and the greedy optimality gap
(``repro.bench.exact`` / ``BENCH_exact.json``) are both this function.

The search stays exact yet tractable through four ingredients:

* **Capacity-class symmetry.**  A stage's cost depends only on the
  *multiset* of ``(capacity, alpha)`` it is given, so devices are
  grouped into classes (strongest first) and a stage choice is a count
  per class, not a device subset: the paper's 8-Pi testbed with four
  frequencies has ``3·3·3·3 − 1 = 80`` allocations per stage instead of
  ``2^8 − 1``.  The DFS state is ``(next unit, remaining count per
  class)``; the winning allocations are realized with the first unused
  members of each class in cluster order, so no device serves two
  stages.
* **Canonical stage realization.**  A stage's devices are ordered by
  ``(-capacity, alpha, cluster index)`` and the output rows are split
  with :func:`~repro.partition.strips.weighted_partition` — exactly
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
* **Relaxed suffix bound + dominance.**  ``LB[u]``, the cheapest any
  stage chain covering units ``[u, n)`` could possibly cost ignoring
  device exhaustion, prunes any prefix whose period already exceeds the
  incumbent; per state a frontier of ``(period, latency, stages)``
  triples cuts every pointwise-dominated prefix.

The width of one stage choice, ``∏(class size + 1) − 1``, is what the
run time is exponential in; above :data:`MAX_EXACT_ALLOCATIONS` the
search is refused unless ``deadline_s`` bounds it.

``period_bound`` caps the pruning threshold from above: a bound of
``0.0`` prunes every node immediately and the planner returns the
greedy incumbent untouched — the degenerate-pruning regression anchor.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    "MAX_EXACT_ALLOCATIONS",
    "ExactStage",
    "ExactPlan",
    "ExactScheme",
    "plan_exact",
    "realize_exact",
]

#: Widest stage choice the search accepts without a ``deadline_s``:
#: ``∏(class size + 1) − 1`` allocation vectors per stage.  255 is eight
#: pairwise-distinct devices; the 8-Pi testbed mixes of
#: ``repro.bench.exact`` (three and four frequencies) are 44 and 80.
MAX_EXACT_ALLOCATIONS = 255

#: One stage choice: how many devices of each capacity class it takes.
Allocation = Tuple[int, ...]
#: A stage as the search holds it.
Cut = Tuple[int, int, Allocation]


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
    ``optimal`` is ``False`` when ``deadline_s`` cut the search short
    and the plan is only the best found so far.
    """

    stages: Tuple[ExactStage, ...]
    period: float
    latency: float
    incumbent_period: float
    nodes: int
    pruned: int
    optimal: bool = True

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def improved(self) -> bool:
        return self.period < self.incumbent_period

    @property
    def gap(self) -> float:
        """Greedy optimality gap, ``incumbent / exact − 1`` (≥ 0 unless
        ``t_lim`` / ``max_stages`` ruled the greedy plan out)."""
        if self.period <= 0.0:
            return 0.0
        return self.incumbent_period / self.period - 1.0


def _class_key(device: Device) -> "Tuple[float, float]":
    """Devices with equal keys are interchangeable to Eq. 9; sorting by
    it is strongest first — Algorithm 2's assignment order."""
    return (-device.capacity, device.alpha)


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


@functools.lru_cache(maxsize=4096)
def _allocations(remaining: Allocation) -> "Tuple[Allocation, ...]":
    """Every non-zero count vector ``<= remaining``, the strongest class
    counting fastest."""
    ranges = [range(r + 1) for r in reversed(remaining)]
    return tuple(vec[::-1] for vec in itertools.product(*ranges))[1:]


class _StageCosts:
    """The cluster's capacity classes and the memoised canonical stage
    costs over ``(start, end, allocation)``."""

    def __init__(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions,
    ) -> None:
        self.model = model
        self.network = network
        self.segments = get_segment_table(model, options)
        members: "Dict[Tuple[float, float], List[Device]]" = {}
        for device in cluster:
            members.setdefault(_class_key(device), []).append(device)
        self.keys = sorted(members)
        self.classes = [members[key] for key in self.keys]
        self.sizes: Allocation = tuple(len(c) for c in self.classes)
        self._rank = {device.name: i for i, device in enumerate(cluster)}
        self._memo: "Dict[Tuple[int, int, Allocation], float]" = {}

    def members(
        self, alloc: Allocation, used: "Sequence[int]"
    ) -> "Tuple[Device, ...]":
        """``alloc[c]`` devices of each class in canonical order,
        skipping the ``used[c]`` that earlier stages already hold."""
        return tuple(
            device
            for group, base, count in zip(self.classes, used, alloc)
            for device in group[base : base + count]
        )

    def cost(self, start: int, end: int, alloc: Allocation) -> float:
        key = (start, end, alloc)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Any members of a class price alike: take the first.
        devices = self.members(alloc, [0] * len(alloc))
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

    def stage(self, start: int, end: int, devices: "Sequence[Device]") -> ExactStage:
        """The stage over exactly these devices, canonically ordered."""
        ordered = sorted(devices, key=lambda d: (_class_key(d), self._rank[d.name]))
        alloc = tuple(
            sum(_class_key(d) == key for d in ordered) for key in self.keys
        )
        return ExactStage(start, end, tuple(ordered), self.cost(start, end, alloc))

    def realize(self, choice: "Sequence[Cut]") -> "Tuple[ExactStage, ...]":
        """Hand each stage the first unused members of its classes."""
        used = [0] * len(self.classes)
        stages = []
        for start, end, alloc in choice:
            stages.append(self.stage(start, end, self.members(alloc, used)))
            used = [u + a for u, a in zip(used, alloc)]
        return tuple(stages)


def plan_exact(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    period_bound: float = math.inf,
    *,
    t_lim: float = math.inf,
    deadline_s: Optional[float] = None,
    max_stages: Optional[int] = None,
) -> ExactPlan:
    """Exhaustive minimum-period heterogeneous pipeline search.

    Minimises the Eq. (10) period (ties break towards lower latency,
    then fewer stages, like Algorithm 1) over plans whose latency is
    within ``t_lim`` and whose stage count is within ``max_stages``;
    raises :class:`PlanningError` when there is none.  ``deadline_s``
    bounds wall-clock: if hit, the best plan so far is returned with
    ``optimal=False``.  Without it a cluster whose stage choice is wider
    than :data:`MAX_EXACT_ALLOCATIONS` is refused.
    """
    started = time.perf_counter()
    n_units = model.n_units
    costs = _StageCosts(model, cluster, network, options)
    width = math.prod(size + 1 for size in costs.sizes) - 1
    if width > MAX_EXACT_ALLOCATIONS and deadline_s is None:
        raise PlanningError(
            f"exact search is exponential in capacity classes: {width} "
            f"device allocations per stage (class sizes {costs.sizes}) > "
            f"{MAX_EXACT_ALLOCATIONS}; pass deadline_s to bound the run"
        )
    stage_cap = n_units if max_stages is None else max_stages
    timed_out = False

    def out_of_time() -> bool:
        nonlocal timed_out
        if deadline_s is not None and time.perf_counter() - started > deadline_s:
            timed_out = True
        return timed_out

    # The PICO plan's segments + its own devices, re-costed through the
    # canonical realization (identical to the greedy plan whenever a
    # stage's capacities are pairwise distinct).
    from repro.schemes.pico import PicoScheme

    greedy = PicoScheme().plan(model, cluster, network, options)
    incumbent = tuple(costs.stage(s.start, s.end, s.devices) for s in greedy.stages)
    incumbent_period = max(s.cost for s in incumbent)
    best_key = (incumbent_period, sum(s.cost for s in incumbent), len(incumbent))
    best_stages: "Optional[Tuple[ExactStage, ...]]" = incumbent
    if best_key[1] > t_lim or best_key[2] > stage_cap:
        best_key, best_stages = (math.inf, math.inf, math.inf), None

    # Relaxed suffix bound: LB[u] = min over next cut e of
    # max(cheapest stage over [u, e) with *any* allocation, LB[e]).
    # (Cut short by the deadline the unfilled entries stay 0.0, which
    # still never overestimates.)
    lb = [0.0] * (n_units + 1)
    for u in range(n_units - 1, -1, -1):
        if out_of_time():
            break
        best = math.inf
        for e in range(u + 1, n_units + 1):
            stage_min = min(costs.cost(u, e, a) for a in _allocations(costs.sizes))
            candidate = stage_min if stage_min > lb[e] else lb[e]
            if candidate < best:
                best = candidate
        lb[u] = best

    nodes = 0
    pruned = 0
    prefix: "List[Cut]" = []

    # Dominance memo: prefixes reaching the same (position, remaining
    # devices) state with pointwise-worse (period, latency, stages) can
    # never finish better — the continuation depends only on the state,
    # the final key is monotone in all three components, and so are the
    # t_lim and max_stages feasibility tests.
    frontiers: "Dict[Tuple[int, Allocation], List[Tuple[float, float, int]]]" = {}

    def threshold() -> float:
        return best_key[0] if best_key[0] < period_bound else period_bound

    def dfs(u: int, remaining: Allocation, cur_max: float, cur_lat: float) -> None:
        nonlocal best_key, best_stages, nodes, pruned
        if out_of_time():
            return
        nodes += 1
        bound = cur_max if cur_max > lb[u] else lb[u]
        if bound > threshold():
            pruned += 1
            return
        mine = (cur_max, cur_lat, len(prefix))
        frontier = frontiers.setdefault((u, remaining), [])
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
            if mine < best_key:
                best_key = mine
                best_stages = costs.realize(prefix)
            return
        if not any(remaining) or len(prefix) >= stage_cap:
            pruned += 1
            return
        for e in range(u + 1, n_units + 1):
            for alloc in _allocations(remaining):
                c = costs.cost(u, e, alloc)
                new_max = cur_max if cur_max > c else c
                if new_max > threshold() or cur_lat + c > t_lim:
                    continue
                prefix.append((u, e, alloc))
                dfs(
                    e,
                    tuple(r - a for r, a in zip(remaining, alloc)),
                    new_max,
                    cur_lat + c,
                )
                prefix.pop()
                if timed_out:
                    return

    dfs(0, costs.sizes, 0.0, 0.0)

    if best_stages is None:
        raise PlanningError(
            f"exact search found no plan for {model.name} within "
            f"t_lim={t_lim}, max_stages={max_stages}, deadline_s={deadline_s}"
        )
    return ExactPlan(
        best_stages, best_key[0], best_key[1], incumbent_period,
        nodes, pruned, optimal=not timed_out,
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

    def plan(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
    ) -> PipelinePlan:
        return realize_exact(model, plan_exact(model, cluster, network, options))
