"""Fig. 13: PICO vs the exhaustive BFS optimum.

The paper deploys an 8-conv + 2-pool toy model (64×64 MNIST-style
input) on 6 heterogeneous devices and compares per-device resource
utilisation and redundant computation.  Expected shape: BFS reaches
~95 % utilisation, PICO stays above ~80 % on most devices — close to
optimal at a vanishing fraction of the planning cost (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.device import Cluster
from repro.cluster.metrics import UtilizationTable, utilization_table
from repro.core.exact import plan_exact, realize_exact
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.experiments.common import fig13_cluster, paper_network
from repro.models.toy import fig13_model
from repro.schemes.pico import PicoScheme
from repro.sim import simulate_scenario
from repro.workload.arrivals import saturation_arrivals

__all__ = ["Fig13Result", "run"]


@dataclass(frozen=True)
class Fig13Result:
    pico: UtilizationTable
    bfs: UtilizationTable
    pico_period_s: float
    bfs_period_s: float
    bfs_optimal_proven: bool

    def format(self) -> str:
        return "\n".join(
            [
                "Fig. 13 — PICO vs BFS on the toy model",
                self.pico.format(),
                self.bfs.format(),
                f"periods: PICO {self.pico_period_s:.4f}s, "
                f"BFS {self.bfs_period_s:.4f}s "
                f"(optimal proven: {self.bfs_optimal_proven})",
            ]
        )


def run(
    cluster: Optional[Cluster] = None,
    network: Optional[NetworkModel] = None,
    options: CostOptions = DEFAULT_OPTIONS,
    sim_tasks: int = 60,
    bfs_deadline_s: Optional[float] = 120.0,
) -> Fig13Result:
    model = fig13_model()
    network = network or paper_network()
    cluster = cluster or fig13_cluster()

    pico_plan = PicoScheme().plan(model, cluster, network, options)
    pico_sim = simulate_scenario(
        model, pico_plan, network=network,
        arrivals=saturation_arrivals(sim_tasks), options=options,
    )
    pico_table = utilization_table(
        model, pico_plan, network, pico_sim, options, "PICO"
    )

    # The paper's "BFS" baseline is the package's one exhaustive search.
    bfs = plan_exact(model, cluster, network, options, deadline_s=bfs_deadline_s)
    bfs_plan = realize_exact(model, bfs)
    bfs_sim = simulate_scenario(
        model, bfs_plan, network=network,
        arrivals=saturation_arrivals(sim_tasks), options=options,
    )
    bfs_table = utilization_table(model, bfs_plan, network, bfs_sim, options, "BFS")

    from repro.core.plan import plan_cost

    return Fig13Result(
        pico_table,
        bfs_table,
        plan_cost(model, pico_plan, network, options).period,
        bfs.period,
        bfs.optimal,
    )
