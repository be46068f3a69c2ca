"""Shared experiment configuration.

Defaults mirror the paper's testbed: 8 Raspberry-Pi 4Bs pinned to one
core, a 50 Mbps WiFi access point, CPU frequencies scaled to 600 MHz /
800 MHz / 1 GHz for the capacity sweeps, and the Table I heterogeneous
mix (2×1.2 GHz, 2×800 MHz, 4×600 MHz).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.device import Cluster, heterogeneous_cluster, pi_cluster
from repro.core.plan import PipelinePlan
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions
from repro.models.graph import Model
from repro.schemes.base import Scheme
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.layer_wise import LayerWiseScheme
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme
from repro.sim import SimResult, simulate_scenario
from repro.workload.arrivals import saturation_arrivals

__all__ = [
    "PAPER_FREQS_MHZ",
    "TABLE1_FREQS_MHZ",
    "paper_network",
    "paper_cluster",
    "table1_cluster",
    "fig13_cluster",
    "baseline_schemes",
    "SATURATION_TASKS",
    "saturated",
]

#: CPU frequencies the paper sweeps in Figs. 8/9/12.
PAPER_FREQS_MHZ: Tuple[float, ...] = (600.0, 800.0, 1000.0)

#: The Table I heterogeneous mix.
TABLE1_FREQS_MHZ: Tuple[float, ...] = (1200, 1200, 800, 800, 600, 600, 600, 600)

#: Fig. 13 deploys the toy model on 6 heterogeneous devices.
FIG13_FREQS_MHZ: Tuple[float, ...] = (1200, 1200, 800, 800, 600, 600)

#: Tasks of every saturation run (Figs. 8/9 and 13, Table I).
SATURATION_TASKS = 30


def paper_network() -> NetworkModel:
    """The paper's 50 Mbps WiFi access point."""
    return NetworkModel.from_mbps(50.0)


def paper_cluster(n_devices: int = 8, freq_mhz: float = 600.0) -> Cluster:
    """A homogeneous slice of the paper's 8-Pi testbed."""
    return pi_cluster(n_devices, freq_mhz)


def table1_cluster() -> Cluster:
    return heterogeneous_cluster(TABLE1_FREQS_MHZ)


def fig13_cluster() -> Cluster:
    return heterogeneous_cluster(FIG13_FREQS_MHZ)


def baseline_schemes() -> "List[Scheme]":
    """The paper's comparison set in Table I order."""
    return [LayerWiseScheme(), EarlyFusedScheme(), OptimalFusedScheme(), PicoScheme()]


def saturated(
    model: Model, plan: PipelinePlan, network: NetworkModel, options: CostOptions
) -> SimResult:
    """``plan`` saturated with :data:`SATURATION_TASKS` tasks, measured
    on the steady state: the first ``plan.n_stages`` completions fill
    the pipeline, and over the whole makespan a pipelined plan's
    throughput and utilisation would depend on the run length."""
    sim = simulate_scenario(
        model, plan, network=network,
        arrivals=saturation_arrivals(SATURATION_TASKS), options=options,
    )
    return sim.steady_state(plan.n_stages)
