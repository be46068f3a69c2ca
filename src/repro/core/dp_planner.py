"""Algorithm 1: dynamic programming over the homogenised cluster.

The paper memoises ``P[i][j][p]`` — the minimum pipeline period for
layers ``i..j`` on ``p`` averaged devices — but every recursive call
anchors ``i`` at the first layer, so the state space is really the
prefix DP

    P[j][p] = min over split s < j, p' < p of
              max( P[s][p - p'],  Ts(s, j, p') )

with ``Ts(s, j, p')`` the Eq. (9) cost of a single stage running units
``[s, j)`` on ``p'`` equal-capacity devices with an equal strip
partition.  Solutions whose accumulated pipeline latency exceeds
``t_lim`` are pruned, as in the paper's Algorithm 1 (lines 11–16).

:func:`plan_homogeneous` is the planner.  ``Ts`` comes from the
vectorized :class:`~repro.cost.tables.SegmentCostTable` (shared across
calls through a registry), and dominated split points are skipped: a
split whose cheapest possible tail stage already exceeds the incumbent
period cannot improve the state, so its whole device sub-loop is
pruned.  Pruning only discards transitions that are strictly worse in
period, so the result is identical to the unpruned DP.

The DP's exactness oracle and the planner benchmark's baseline run
the same DP, unpruned, over the scalar cost model (:mod:`repro.testing`).

The returned :class:`HomoPlan` is abstract (device *counts*, not
devices); Algorithm 2 (:mod:`repro.core.heterogeneous`) maps it onto
the real cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.device import Cluster
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import get_cost_table
from repro.models.graph import Model

__all__ = [
    "HomoStage",
    "HomoPlan",
    "plan_homogeneous",
]


@dataclass(frozen=True)
class HomoStage:
    """An abstract stage: unit segment + device count.

    ``branch`` marks a branch-parallel stage over one concat block (the
    intra-block partition extension); Algorithm 2 then assigns whole
    block paths to devices instead of spatial strips."""

    start: int
    end: int
    n_devices: int
    branch: bool = False


@dataclass(frozen=True)
class HomoPlan:
    """Algorithm 1 output for the homogenised cluster."""

    stages: Tuple[HomoStage, ...]
    period: float
    latency: float

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def devices_used(self) -> int:
        return sum(s.n_devices for s in self.stages)


# A DP entry: (period, latency, n_stages, back-pointer); the back-pointer
# is (prev_j, prev_p, stage) or None for a single-stage solution.
_Entry = Tuple[float, float, int, Optional[Tuple[int, int, HomoStage]]]


def _min_period_dp(
    model: Model,
    n_devices: int,
    ts,
    t_lim: float,
    prune: bool,
) -> Optional[HomoPlan]:
    """The Algorithm 1 DP over any ``Ts`` provider.

    Entries order lexicographically by (period, latency, n_stages) —
    ties in (period, latency) break towards fewer stages, which means
    less inter-stage traffic for equal analytic cost.  With ``prune``
    on, split points whose cheapest possible tail stage already exceeds
    the incumbent period are skipped (their period would be strictly
    worse, so they can never be selected); results are identical with
    pruning on or off.
    """
    n_units = model.n_units
    min_upto = getattr(ts, "min_cost_upto", None) if prune else None
    best: "Dict[Tuple[int, int], Optional[_Entry]]" = {}

    for j in range(1, n_units + 1):
        for p in range(1, n_devices + 1):
            single = ts(0, j, p)
            candidate: "Optional[_Entry]" = (
                (single, single, 1, None) if single <= t_lim else None
            )
            for s in range(1, j):
                if (
                    min_upto is not None
                    and candidate is not None
                    and p > 1
                    and min_upto(s, j, p - 1) > candidate[0]
                ):
                    continue  # every tail stage from s exceeds the incumbent period
                for p_tail in range(1, p):
                    prev = best.get((s, p - p_tail))
                    if prev is None:
                        continue
                    tail = ts(s, j, p_tail)
                    if prune and candidate is not None and tail > candidate[0]:
                        continue
                    latency = prev[1] + tail
                    if latency > t_lim:
                        continue
                    period = prev[0] if prev[0] >= tail else tail
                    key = (period, latency, prev[2] + 1)
                    if candidate is None or key < candidate[:3]:
                        candidate = key + (
                            (
                                s,
                                p - p_tail,
                                HomoStage(
                                    s, j, p_tail, ts.is_branch(s, j, p_tail)
                                ),
                            ),
                        )
            best[(j, p)] = candidate

    # A plan may leave devices idle: take the best over p <= n_devices.
    final: Optional[_Entry] = None
    final_p = 0
    for p in range(1, n_devices + 1):
        entry = best.get((n_units, p))
        if entry is None:
            continue
        if final is None or entry[:3] < final[:3]:
            final = entry
            final_p = p
    if final is None:
        return None

    stages: "List[HomoStage]" = []
    j, p, entry = n_units, final_p, final
    while entry[3] is not None:
        prev_j, prev_p, stage = entry[3]
        stages.append(stage)
        j, p = prev_j, prev_p
        entry = best[(j, p)]  # type: ignore[assignment]
        assert entry is not None
    stages.append(HomoStage(0, j, p, ts.is_branch(0, j, p)))
    stages.reverse()
    return HomoPlan(tuple(stages), final[0], final[1])


def plan_homogeneous(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    t_lim: float = math.inf,
    allow_branch: bool = False,
    table=None,
) -> Optional[HomoPlan]:
    """Run Algorithm 1 on the homogenised cluster (Eq. 12).

    Returns the minimum-period plan whose pipeline latency stays within
    ``t_lim``, or ``None`` when even the single-stage plan violates the
    bound.  Ties in period break towards lower latency, then fewer
    stages (less inter-stage traffic for equal analytic cost).

    ``Ts`` comes from the shared vectorized cost table for ``(model,
    homogenised device, network, options)``; pass ``table`` (any
    :class:`~repro.cost.tables.StageTimeMemo`) to reuse a caller-managed
    table across invocations, e.g. during online re-planning.
    """
    homo = cluster.homogenized()
    device = homo.devices[0]
    if table is None:
        table = get_cost_table(model, device, network, options, allow_branch)
    return _min_period_dp(model, len(homo), table, t_lim, prune=True)

