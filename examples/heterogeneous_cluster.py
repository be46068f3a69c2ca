#!/usr/bin/env python
"""Heterogeneous cluster study: Algorithm 2 in action.

Builds the paper's Table I cluster (2×1.2 GHz, 2×800 MHz, 4×600 MHz
Raspberry-Pis), plans VGG16 with every scheme, and reports per-device
utilisation and redundancy under a saturated workload — then shows how
PICO re-plans as the WLAN bandwidth changes ("various network
settings").

Run:  python examples/heterogeneous_cluster.py
"""

from repro import (
    NetworkModel,
    heterogeneous_cluster,
    simulate,
    utilization_table,
    wifi_50mbps,
)
from repro.core.plan import plan_cost
from repro.models import vgg16
from repro.schemes import (
    EarlyFusedScheme,
    LayerWiseScheme,
    OptimalFusedScheme,
    PicoScheme,
)
from repro.workload import saturation_arrivals


def report(table) -> str:
    """Table I's columns for one scheme: utilisation and redundancy."""
    lines = [
        f"{table.model} / {table.scheme}: "
        f"avg util {table.average_utilization:6.2%}, "
        f"avg redu {table.average_redundancy:6.2%}"
    ]
    for d in table.devices:
        lines.append(
            f"  {d.name:<16s} util {d.utilization:7.2%}  "
            f"redu {d.redundancy_ratio:7.2%}"
        )
    return "\n".join(lines)


def main() -> None:
    model = vgg16()
    cluster = heterogeneous_cluster([1200, 1200, 800, 800, 600, 600, 600, 600])
    network = wifi_50mbps()

    print("=== Table-I style report (saturated workload) ===")
    for scheme in (
        LayerWiseScheme(),
        EarlyFusedScheme(),
        OptimalFusedScheme(),
        PicoScheme(),
    ):
        plan = scheme.plan(model, cluster, network)
        sim = simulate(
            model, plan, network=network, arrivals=saturation_arrivals(40)
        )
        table = utilization_table(model, plan, network, sim, scheme_name=scheme.name)
        print()
        print(report(table))
        print(f"  throughput: {60 * sim.throughput:.1f} tasks/min")

    print("\n=== PICO across network settings ===")
    print(f"{'Mbps':>6s} {'stages':>7s} {'period':>9s} {'latency':>9s}")
    for mbps in (10, 25, 50, 100, 300):
        net = NetworkModel.from_mbps(mbps)
        plan = PicoScheme().plan(model, cluster, net)
        cost = plan_cost(model, plan, net)
        print(
            f"{mbps:>6d} {plan.n_stages:>7d} {cost.period:>8.2f}s "
            f"{cost.latency:>8.2f}s"
        )


if __name__ == "__main__":
    main()
