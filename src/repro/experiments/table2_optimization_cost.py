"""Table II: planner wall-clock — PICO heuristic vs exhaustive BFS.

The paper times both planners over toy chains with growing
(layers, devices): the heuristic stays under a second everywhere while
BFS blows up past (10, 6) and exceeds an hour by (12, 6).  We reproduce
the grid with a configurable BFS budget so the benchmark terminates;
entries that hit the budget are reported as lower bounds, exactly like
the paper's "> 1h" cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.device import heterogeneous_cluster
from repro.core.dp_planner import plan_homogeneous
from repro.core.exact import plan_exact
from repro.core.heterogeneous import adapt_to_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import get_segment_table
from repro.experiments.common import paper_network
from repro.models.toy import toy_chain

__all__ = ["CostRow", "Table2Result", "run"]

#: The paper's (layers, devices) grid.
PAPER_GRID: Tuple[Tuple[int, int], ...] = (
    (4, 4), (8, 4), (12, 4), (16, 4), (8, 6), (10, 6), (12, 6), (8, 8),
)


@dataclass(frozen=True)
class CostRow:
    n_layers: int
    n_devices: int
    pico_seconds: float
    bfs_seconds: float
    bfs_completed: bool  # False == the paper's "> budget" cells
    period_gap: float  # (pico_period - bfs_period) / bfs_period

    def format(self) -> str:
        bfs = (
            f"{self.bfs_seconds:8.2f}s"
            if self.bfs_completed
            else f"> {self.bfs_seconds:6.2f}s (budget)"
        )
        return (
            f"({self.n_layers:2d}, {self.n_devices}): "
            f"PICO {self.pico_seconds:6.3f}s   BFS {bfs}   "
            f"period gap {self.period_gap:+.1%}"
        )


@dataclass(frozen=True)
class Table2Result:
    rows: Tuple[CostRow, ...]

    def format(self) -> str:
        return "\n".join(
            ["Table II — planner cost"] + ["  " + r.format() for r in self.rows]
        )


def run(
    grid: "Sequence[Tuple[int, int]]" = PAPER_GRID,
    network: Optional[NetworkModel] = None,
    options: CostOptions = DEFAULT_OPTIONS,
    bfs_budget_s: float = 60.0,
) -> Table2Result:
    network = network or paper_network()
    rows: "List[CostRow]" = []
    for n_layers, n_devices in grid:
        model = toy_chain(n_conv=n_layers, n_pool=2, input_hw=64)
        # All-distinct capacities: a heterogeneous cluster denies BFS
        # any symmetry reduction, reproducing the paper's blow-up.
        cluster = heterogeneous_cluster(
            [600.0 + 75.0 * i for i in range(n_devices)]
        )

        # The registry's one segment table per cell serves both the
        # PICO DP and the BFS baseline; built outside either clock.
        get_segment_table(model, options)

        started = time.perf_counter()
        homo = plan_homogeneous(model, cluster, network, options)
        assert homo is not None
        plan = adapt_to_cluster(model, homo, cluster, options)
        pico_seconds = time.perf_counter() - started
        pico_period = plan_cost(model, plan, network, options).period

        started = time.perf_counter()
        bfs = plan_exact(
            model, cluster, network, options, deadline_s=bfs_budget_s
        )
        bfs_seconds = time.perf_counter() - started
        rows.append(
            CostRow(
                n_layers,
                n_devices,
                pico_seconds,
                bfs_seconds,
                bfs.optimal,
                (pico_period - bfs.period) / bfs.period,
            )
        )
    return Table2Result(tuple(rows))
