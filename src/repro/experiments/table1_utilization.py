"""Table I: utilisation and redundancy on the heterogeneous cluster.

The paper saturates its heterogeneous 8-Pi cluster (2×1.2 GHz,
2×800 MHz, 4×600 MHz) with VGG16 and YOLOv2 under each scheme and
reports per-device CPU utilisation and redundant-computation ratios.
Expected shape: LW minimal redundancy but worst utilisation; EFL busy
but hugely redundant; OFL in between; PICO high utilisation with low
redundancy thanks to the capacity-weighted partitions of Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.device import Cluster
from repro.cluster.metrics import UtilizationTable, utilization_table
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.experiments.common import baseline_schemes, paper_network, table1_cluster
from repro.models.zoo import get_model
from repro.sim import simulate_scenario
from repro.workload.arrivals import saturation_arrivals

__all__ = ["Table1Result", "run"]


@dataclass(frozen=True)
class Table1Result:
    tables: Tuple[UtilizationTable, ...]  # one per (model, scheme)

    def get(self, model: str, scheme: str) -> UtilizationTable:
        for table in self.tables:
            if table.model == model and table.scheme == scheme:
                return table
        raise KeyError((model, scheme))

    def format(self) -> str:
        lines = ["Table I — utilisation and redundancy"]
        for table in self.tables:
            lines.append(table.format())
        return "\n".join(lines)


def run(
    model_names: "Sequence[str]" = ("vgg16", "yolov2"),
    cluster: Optional[Cluster] = None,
    network: Optional[NetworkModel] = None,
    options: CostOptions = DEFAULT_OPTIONS,
    sim_tasks: int = 40,
    include_lw: bool = True,
) -> Table1Result:
    network = network or paper_network()
    cluster = cluster or table1_cluster()
    tables: "List[UtilizationTable]" = []
    for model_name in model_names:
        model = get_model(model_name)
        for scheme in baseline_schemes(include_lw=include_lw):
            plan = scheme.plan(model, cluster, network, options)
            sim = simulate_scenario(
                model,
                plan,
                network=network,
                arrivals=saturation_arrivals(sim_tasks),
                options=options,
            )
            tables.append(
                utilization_table(model, plan, network, sim, options, scheme.name)
            )
    return Table1Result(tuple(tables))
