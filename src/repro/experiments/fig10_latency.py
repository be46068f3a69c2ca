"""Figs. 10 & 11: average inference latency under Poisson workloads.

The paper defines cluster capacity as the Early-Fused-Layer scheme's
throughput and sweeps the Poisson arrival rate from 40 % to 150 % of
it, with 8 devices.  Expected shape: EFL's latency explodes first (its
long period dominates the M/D/1 waiting time), OFL follows, PICO stays
nearly flat, and APICO tracks the best of {OFL, PICO} — one-stage at
light load, pipelined at heavy load.  LW is excluded, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adaptive.switcher import build_apico_switcher
from repro.cluster.device import Cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.experiments.common import paper_cluster, paper_network
from repro.models.zoo import get_model
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme
from repro.sim import simulate_scenario
from repro.workload.arrivals import poisson_arrivals

__all__ = ["LatencyPoint", "LatencyResult", "run"]


@dataclass(frozen=True)
class LatencyPoint:
    scheme: str
    workload_fraction: float  # of EFL capacity
    arrival_rate: float  # tasks / s
    avg_latency_s: float
    p95_latency_s: float
    completed: int
    plan_usage: Tuple[Tuple[str, int], ...] = ()  # APICO only


@dataclass(frozen=True)
class LatencyResult:
    model: str
    efl_capacity_per_s: float
    points: Tuple[LatencyPoint, ...]

    def series(self, scheme: str) -> "List[Tuple[float, float]]":
        return [
            (p.workload_fraction, p.avg_latency_s)
            for p in self.points
            if p.scheme == scheme
        ]

    def format(self) -> str:
        lines = [
            f"Figs. 10/11 — avg latency, {self.model} "
            f"(EFL capacity {self.efl_capacity_per_s * 60:.1f}/min)"
        ]
        by_load: "Dict[float, List[LatencyPoint]]" = {}
        for p in self.points:
            by_load.setdefault(p.workload_fraction, []).append(p)
        for load, pts in sorted(by_load.items()):
            row = "  ".join(
                f"{p.scheme}={p.avg_latency_s:7.2f}s" for p in sorted(
                    pts, key=lambda p: p.scheme
                )
            )
            lines.append(f"  load {load:4.0%}: {row}")
        return "\n".join(lines)


def run(
    model_name: str = "vgg16",
    workload_fractions: "Sequence[float]" = (0.4, 0.6, 0.8, 1.0, 1.2, 1.5),
    cluster: Optional[Cluster] = None,
    network: Optional[NetworkModel] = None,
    options: CostOptions = DEFAULT_OPTIONS,
    horizon_s: float = 600.0,
    freq_mhz: float = 600.0,
    seed: int = 0,
    repeats: int = 1,
) -> LatencyResult:
    model = get_model(model_name)
    network = network or paper_network()
    cluster = cluster or paper_cluster(8, freq_mhz)

    schemes = {
        "EFL": EarlyFusedScheme(),
        "OFL": OptimalFusedScheme(),
        "PICO": PicoScheme(),
    }
    plans = {
        name: scheme.plan(model, cluster, network, options)
        for name, scheme in schemes.items()
    }
    efl_capacity = plan_cost(model, plans["EFL"], network, options).throughput

    if repeats < 1:
        raise ValueError("repeats must be positive")
    points: "List[LatencyPoint]" = []
    for fraction in workload_fractions:
        rate = fraction * efl_capacity
        # The paper runs each setting three times; we average over
        # `repeats` independent Poisson traces.
        traces = [
            poisson_arrivals(
                rate,
                horizon_s,
                np.random.default_rng(seed + rep * 7919 + int(fraction * 1000)),
            )
            for rep in range(repeats)
        ]
        traces = [t for t in traces if t]
        if not traces:
            continue
        for name, plan in plans.items():
            sims = [
                simulate_scenario(
                    model, plan, network=network, arrivals=arrivals,
                    options=options,
                )
                for arrivals in traces
            ]
            points.append(
                LatencyPoint(
                    name,
                    fraction,
                    rate,
                    sum(s.avg_latency for s in sims) / len(sims),
                    sum(s.percentile_latency(95) for s in sims) / len(sims),
                    sum(s.completed for s in sims),
                )
            )
        usage: "dict" = {}
        apico_sims = []
        for arrivals in traces:
            switcher = build_apico_switcher(model, cluster, network, options)
            sim = simulate_scenario(
                model, switcher, network=network, arrivals=arrivals,
                options=options,
            )
            apico_sims.append(sim)
            for key, count in sim.plan_usage.items():
                usage[key] = usage.get(key, 0) + count
        points.append(
            LatencyPoint(
                "APICO",
                fraction,
                rate,
                sum(s.avg_latency for s in apico_sims) / len(apico_sims),
                sum(s.percentile_latency(95) for s in apico_sims) / len(apico_sims),
                sum(s.completed for s in apico_sims),
                tuple(sorted(usage.items())),
            )
        )
    return LatencyResult(model.name, efl_capacity, tuple(points))
