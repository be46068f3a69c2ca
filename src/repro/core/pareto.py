"""Pareto-frontier DP — an ablation extension of Algorithm 1.

Algorithm 1 keeps one (period, latency) entry per DP state and prunes
greedily, which can discard a higher-period / lower-latency sub-plan
that the latency budget later needs.  This variant keeps the full
non-dominated frontier per state, making it *exact* for the
homogeneous, equal-strip, contiguous-segment problem that Algorithm 1
approximates.  The ablation benchmark quantifies how often (and by how
much) the frontier beats the paper's heuristic under tight ``t_lim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.device import Cluster
from repro.core.dp_planner import HomoPlan, HomoStage
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import get_cost_table
from repro.models.graph import Model

__all__ = ["plan_pareto"]


@dataclass(frozen=True)
class _Entry:
    period: float
    latency: float
    back: Optional[Tuple[int, int, HomoStage]]  # (prev_j, prev_p, stage)


def _insert(frontier: "List[_Entry]", entry: _Entry) -> None:
    """Keep ``frontier`` minimal: drop dominated entries."""
    for existing in frontier:
        if existing.period <= entry.period and existing.latency <= entry.latency:
            return
    frontier[:] = [
        e for e in frontier
        if not (entry.period <= e.period and entry.latency <= e.latency)
    ]
    frontier.append(entry)


def plan_pareto(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    t_lim: float = math.inf,
    table=None,
) -> Optional[HomoPlan]:
    """Exact minimum-period plan under a latency budget (homogenised
    cluster, equal strips, contiguous segments).

    ``Ts`` values come from the shared vectorized cost table, so
    repeated calls — e.g. a ``t_lim`` sweep over the same deployment —
    reuse every memoised stage cost; pass ``table`` to supply a
    caller-managed one (any :class:`~repro.cost.tables.StageTimeMemo`)."""
    homo = cluster.homogenized()
    device = homo.devices[0]
    n_devices = len(homo)
    n_units = model.n_units
    ts = (
        table
        if table is not None
        else get_cost_table(model, device, network, options)
    )

    frontiers: "Dict[Tuple[int, int], List[_Entry]]" = {}
    for j in range(1, n_units + 1):
        for p in range(1, n_devices + 1):
            frontier: "List[_Entry]" = []
            single = ts(0, j, p)
            if single <= t_lim:
                _insert(frontier, _Entry(single, single, None))
            for s in range(1, j):
                for p_tail in range(1, p):
                    tail = ts(s, j, p_tail)
                    if tail > t_lim:
                        continue
                    for prev in frontiers.get((s, p - p_tail), ()):
                        latency = prev.latency + tail
                        if latency > t_lim:
                            continue
                        _insert(
                            frontier,
                            _Entry(
                                max(prev.period, tail),
                                latency,
                                (s, p - p_tail, HomoStage(s, j, p_tail)),
                            ),
                        )
            frontiers[(j, p)] = frontier

    best: Optional[_Entry] = None
    best_p = 0
    for p in range(1, n_devices + 1):
        for entry in frontiers.get((n_units, p), ()):
            if best is None or (entry.period, entry.latency) < (
                best.period,
                best.latency,
            ):
                best = entry
                best_p = p
    if best is None:
        return None

    stages: "List[HomoStage]" = []
    j, p, entry = n_units, best_p, best
    while entry.back is not None:
        prev_j, prev_p, stage = entry.back
        stages.append(stage)
        # Find the frontier entry we came from: match period/latency.
        target_latency = entry.latency - ts(stage.start, stage.end, stage.n_devices)
        candidates = [
            e for e in frontiers[(prev_j, prev_p)]
            if abs(e.latency - target_latency) < 1e-12 and e.period <= entry.period
        ]
        assert candidates, "broken back-pointer chain"
        entry = candidates[0]
        j, p = prev_j, prev_p
    stages.append(HomoStage(0, j, p))
    stages.reverse()
    return HomoPlan(tuple(stages), best.period, best.latency)
