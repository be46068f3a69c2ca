"""Figs. 8 & 9: cluster capacity (inference period and throughput).

For each CPU frequency the paper plots the inference period of every
scheme as the device count grows, then the accomplished tasks/minute
with 8 devices.  The expected shape: PICO lowest period everywhere;
layer-wise stops improving (or degrades) with more devices because its
per-layer communication swamps the added compute, most visibly on
YOLOv2 at high frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.experiments.common import (
    PAPER_FREQS_MHZ,
    baseline_schemes,
    paper_cluster,
    paper_network,
)
from repro.models.zoo import get_model
from repro.sim import simulate_scenario
from repro.workload.arrivals import saturation_arrivals

__all__ = ["CapacityPoint", "CapacityResult", "run"]


@dataclass(frozen=True)
class CapacityPoint:
    scheme: str
    freq_mhz: float
    n_devices: int
    period_s: float
    latency_s: float
    throughput_per_min: float  # measured by saturation simulation


@dataclass(frozen=True)
class CapacityResult:
    model: str
    points: Tuple[CapacityPoint, ...]

    def periods(self, scheme: str, freq_mhz: float) -> "List[Tuple[int, float]]":
        return [
            (p.n_devices, p.period_s)
            for p in self.points
            if p.scheme == scheme and p.freq_mhz == freq_mhz
        ]

    def throughput_at(self, scheme: str, freq_mhz: float, n_devices: int) -> float:
        for p in self.points:
            if (
                p.scheme == scheme
                and p.freq_mhz == freq_mhz
                and p.n_devices == n_devices
            ):
                return p.throughput_per_min
        raise KeyError((scheme, freq_mhz, n_devices))

    def format(self) -> str:
        lines = [f"Figs. 8/9 — cluster capacity, {self.model}"]
        by_freq: "Dict[float, List[CapacityPoint]]" = {}
        for p in self.points:
            by_freq.setdefault(p.freq_mhz, []).append(p)
        for freq, pts in sorted(by_freq.items()):
            lines.append(f"  {freq:.0f} MHz:")
            for p in sorted(pts, key=lambda p: (p.scheme, p.n_devices)):
                lines.append(
                    f"    {p.scheme:5s} d={p.n_devices}  period {p.period_s:8.3f}s"
                    f"  thpt {p.throughput_per_min:6.1f}/min"
                )
        return "\n".join(lines)


def run(
    model_name: str = "vgg16",
    freqs_mhz: "Sequence[float]" = PAPER_FREQS_MHZ,
    device_counts: "Sequence[int]" = (1, 2, 4, 6, 8),
    network: Optional[NetworkModel] = None,
    options: CostOptions = DEFAULT_OPTIONS,
    sim_tasks: int = 30,
    include_lw: bool = True,
) -> CapacityResult:
    model = get_model(model_name)
    network = network or paper_network()
    points: "List[CapacityPoint]" = []
    for freq in freqs_mhz:
        for n_devices in device_counts:
            cluster = paper_cluster(n_devices, freq)
            for scheme in baseline_schemes(include_lw=include_lw):
                plan = scheme.plan(model, cluster, network, options)
                cost = plan_cost(model, plan, network, options)
                sim = simulate_scenario(
                    model,
                    plan,
                    network=network,
                    arrivals=saturation_arrivals(sim_tasks),
                    options=options,
                )
                points.append(
                    CapacityPoint(
                        scheme.name,
                        freq,
                        n_devices,
                        cost.period,
                        cost.latency,
                        sim.throughput * 60.0,
                    )
                )
    return CapacityResult(model.name, tuple(points))
