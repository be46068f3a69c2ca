"""Fleet gate: shared-pool scheduling vs static equal partitioning.

Co-schedules two tenants — a heavy VGG16 stream and a light ResNet34
stream, both offered at utilisation ρ ≈ 0.8 of their granted pipelines
— on one shared 8-device heterogeneous pool through the
:class:`~repro.fleet.FleetScheduler`, and serves the same workload on
the static baseline the fleet layer replaces: the cluster split into
two equal halves (identical frequency mix), one isolated
:class:`~repro.serve.PipelineServer` per tenant.

The scheduler's SLO-aware footprint search gives the heavy tenant the
six fastest devices and parks the light tenant on the two slowest,
where its SLO still holds; the halved partition under-provisions the
heavy tenant (ρ > 1 on four devices), so the fleet wins on aggregate
goodput — in-SLO completions per second — while every tenant keeps its
own SLO attainment.  Results land in ``BENCH_fleet.json``; the exit
status is non-zero when any gate fails.  Every number is virtual time,
so ``--check BENCH_fleet.json`` (what ``make bench-check`` runs) must
reproduce the whole report::

    python -m repro.bench.fleet --quick
    python -m repro.bench.fleet --check BENCH_fleet.json
"""

from __future__ import annotations

import numpy as np

from repro.bench import common
from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.fleet import FleetScheduler, FleetServer, ModelRegistry, TenantClass
from repro.models.zoo import get_model
from repro.nn.executor import Engine
from repro.runtime.core import SimTransport
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer
from repro.workload.arrivals import poisson_arrivals_count

__all__ = ["BENCH", "run"]

FREQS_MHZ = (1200.0, 1200.0, 1000.0, 1000.0, 800.0, 800.0, 600.0, 600.0)
ATTAINMENT_GATE = 0.8


def _serve_partition(model, cluster, network, tenant, arrivals):
    """One tenant alone on its static half of the cluster."""
    plan = PicoScheme().plan(model, cluster, network)
    # timing-only never reads a weight: an empty dict skips building them
    transport = SimTransport(Engine(model, weights={}), network, compute=False)
    server = PipelineServer.from_plan(
        model, plan, transport, config=tenant.server_config()
    )
    try:
        return server.serve(len(arrivals), arrivals=list(arrivals))
    finally:
        server.close()


def run(quick: bool = False, seed: int = 0):
    """Serve both ways; returns ``(sections, gates)``."""
    network = NetworkModel.from_mbps(50.0)
    cluster = heterogeneous_cluster(list(FREQS_MHZ))
    names = [d.name for d in cluster.devices]
    heavy_model = get_model("vgg16", input_hw=64)
    light_model = get_model("resnet34", input_hw=64)

    # rate 5.0/s puts the heavy tenant at rho ~ 0.79 on the six fastest
    # devices (period ~ 0.158s) but rho ~ 1.26 on an equal half; the
    # light tenant fits the two slowest devices at rho ~ 0.69.
    heavy = TenantClass(
        "heavy", "vgg16", rate=5.0, slo=1.5, priority=1, queue_capacity=8
    )
    light = TenantClass(
        "light", "resnet34", rate=5.0, slo=0.6, priority=0, queue_capacity=8
    )
    n_frames = 60 if quick else 150
    rng = np.random.default_rng(seed)
    arrivals = {
        t.name: poisson_arrivals_count(t.rate, n_frames, rng)
        for t in (heavy, light)
    }

    # -- fleet: shared pool, contention-aware placement ----------------
    registry = ModelRegistry()
    registry.register("vgg16", heavy_model, weights={})  # timing-only
    registry.register("resnet34", light_model, weights={})
    scheduler = FleetScheduler(registry, cluster, network)
    with FleetServer(
        registry, scheduler,
        lambda entry: SimTransport(entry.engine, network, compute=False),
    ) as fleet:
        placements = fleet.admit([heavy, light])
        for tenant in (heavy, light):
            pl = placements[tenant.name]
            rho = tenant.rate * pl.period
            print(
                f"{tenant.name}: {len(pl.devices)} device(s) "
                f"{','.join(pl.devices)} — period {pl.period:.4f}s "
                f"(rho {rho:.2f}), Theorem-2 estimate {pl.estimate:.3f}s "
                f"vs SLO {tenant.slo:g}s "
                f"({'meets' if pl.meets_slo else 'MISSES'})"
            )
        fleet_result = fleet.serve(
            {name: (n_frames, arr) for name, arr in arrivals.items()}
        )
    fleet_attainment = fleet_result.attainment()
    print(
        f"fleet: {fleet_result.in_slo}/{fleet_result.completed} in SLO "
        f"over {fleet_result.makespan:.2f}s — aggregate goodput "
        f"{fleet_result.aggregate_goodput:.2f}/s, attainment "
        f"{fleet_attainment}"
    )

    # -- baseline: static equal partition (same frequency mix each) ----
    half_heavy = cluster.subset([names[i] for i in (0, 2, 4, 6)])
    half_light = cluster.subset([names[i] for i in (1, 3, 5, 7)])
    base = {
        "heavy": _serve_partition(
            heavy_model, half_heavy, network, heavy, arrivals["heavy"]
        ),
        "light": _serve_partition(
            light_model, half_light, network, light, arrivals["light"]
        ),
    }
    base_in_slo = {
        name: sum(
            1 for r in res.completed
            if r.sojourn <= (heavy if name == "heavy" else light).slo
        )
        for name, res in base.items()
    }
    base_makespan = max(res.makespan for res in base.values())
    base_goodput = (
        sum(base_in_slo.values()) / base_makespan if base_makespan > 0 else 0.0
    )
    base_attainment = {
        name: base_in_slo[name] / res.submitted if res.submitted else 1.0
        for name, res in base.items()
    }
    print(
        f"partition: {sum(base_in_slo.values())} in SLO over "
        f"{base_makespan:.2f}s — aggregate goodput {base_goodput:.2f}/s, "
        f"attainment {base_attainment}"
    )

    gates = {
        "placements_meet_slo": all(
            bool(pl.meets_slo) for pl in placements.values()
        ),
        "fleet_goodput_ge_partition": bool(
            fleet_result.aggregate_goodput >= base_goodput
        ),
        "per_tenant_attainment_ge_0.8": all(
            float(a) >= ATTAINMENT_GATE for a in fleet_attainment.values()
        ),
    }
    sections = {
        "config": {
            "freqs_mhz": list(FREQS_MHZ), "mbps": 50.0,
            "frames_per_tenant": n_frames,
            "tenants": {
                t.name: {
                    "model": t.model, "rate": t.rate, "slo": t.slo,
                    "priority": t.priority,
                }
                for t in (heavy, light)
            },
        },
        "fleet": {
            "placements": {
                t.name: {
                    "devices": list(placements[t.name].devices),
                    "period_s": float(placements[t.name].period),
                    "estimate_s": float(placements[t.name].estimate),
                    "rho": float(t.rate * placements[t.name].period),
                    "meets_slo": bool(placements[t.name].meets_slo),
                }
                for t in (heavy, light)
            },
            "aggregate_goodput_per_s": float(fleet_result.aggregate_goodput),
            "in_slo": int(fleet_result.in_slo),
            "completed": int(fleet_result.completed),
            "makespan_s": float(fleet_result.makespan),
            "attainment": {
                k: float(v) for k, v in fleet_attainment.items()
            },
        },
        "partition": {
            "aggregate_goodput_per_s": float(base_goodput),
            "in_slo": int(sum(base_in_slo.values())),
            "completed": int(sum(len(r.completed) for r in base.values())),
            "shed": int(sum(len(r.shed) for r in base.values())),
            "makespan_s": float(base_makespan),
            "attainment": {
                k: float(v) for k, v in base_attainment.items()
            },
        },
    }
    return sections, gates


BENCH = common.Bench(
    name="fleet",
    run=run,
    deterministic=(
        common.Section("config", same_mode=True),
        common.Section("fleet", same_mode=True),
        common.Section("partition", same_mode=True),
    ),
)

if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
