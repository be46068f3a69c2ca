"""Serving gate: pipelined throughput and the Theorem 2 queue model.

Drives :class:`~repro.serve.PipelineServer` over the virtual-clock
backend with a ≥3-stage VGG16 plan and checks the paper's two serving
claims:

* **Pipelining** — steady-state throughput with frames in flight is at
  least 1.5× the frame-at-a-time baseline (``max_in_flight=1``) and
  within 15% of the analytic bound ``1/period``.
* **Theorem 2** — under Poisson arrivals at utilisation ρ ≤ 0.7 the
  measured mean sojourn time matches the M/D/1 estimate
  ``W_q + latency`` within 20%.

An overloaded run (ρ > 1 with a bounded queue) is also recorded to
show load shedding keeping the system stable.  Results land in
``BENCH_serve.json``; the exit status is non-zero when any gate fails.
Every number is virtual time, so ``--check BENCH_serve.json`` (what
``make bench-check`` runs) must reproduce the whole report::

    python -m repro.bench.serve --quick
    python -m repro.bench.serve --check BENCH_serve.json
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.adaptive.queueing import validate_md1
from repro.bench import common
from repro.cluster.device import pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.zoo import get_model
from repro.nn.executor import Engine
from repro.runtime.core import SimTransport
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from repro.workload.arrivals import poisson_arrivals_count

__all__ = ["BENCH", "run"]

SPEEDUP_GATE = 1.5
PERIOD_GAP_GATE = 0.15
MD1_GATE = 0.20


def _serve(model, plan, network, config, arrivals, seed=0):
    transport = SimTransport(Engine(model, seed=seed), network, compute=False)
    server = PipelineServer.from_plan(model, plan, transport, config=config)
    try:
        return server.serve(len(arrivals), arrivals=arrivals)
    finally:
        server.close()


def run(quick: bool = False, seed: int = 0):
    """Run the three experiments; returns ``(sections, gates)``."""
    model = get_model("vgg16", input_hw=64)
    cluster = pi_cluster(8, 600.0)
    network = NetworkModel.from_mbps(50.0)
    plan = PicoScheme().plan(model, cluster, network)
    cost = plan_cost(model, plan, network)
    period, latency = cost.period, cost.latency
    n_stages = plan.n_stages
    print(
        f"vgg16@64 on 8x600MHz: {n_stages} stages, "
        f"period {period:.4f}s, latency {latency:.4f}s "
        f"(latency/period {latency / period:.2f})"
    )

    # -- pipelined vs frame-at-a-time throughput (saturated, closed loop)
    n_sat = 16 if quick else 48
    saturated = [0.0] * n_sat
    block = ServerConfig(queue_capacity=2 * n_stages, policy="block")
    res_pipe = _serve(model, plan, network, block, saturated, seed)
    pipelined = res_pipe.steady_throughput(warmup=n_stages)
    baseline_cfg = ServerConfig(
        queue_capacity=2 * n_stages, policy="block", max_in_flight=1
    )
    res_base = _serve(model, plan, network, baseline_cfg, saturated, seed)
    baseline = res_base.steady_throughput(warmup=1)
    inv_period = 1.0 / period
    speedup = pipelined / baseline if baseline > 0 else float("inf")
    period_gap = abs(pipelined - inv_period) / inv_period
    print(
        f"throughput: pipelined {pipelined:.3f}/s, "
        f"frame-at-a-time {baseline:.3f}/s "
        f"(speedup {speedup:.2f}x, 1/period {inv_period:.3f}/s, "
        f"gap {period_gap:.1%})"
    )

    # -- Theorem 2: measured sojourn vs M/D/1 estimate at rising load
    n_poisson = 120 if quick else 400
    md1_runs: "List[Dict]" = []
    open_cfg = ServerConfig(queue_capacity=16 * n_stages, policy="block")
    for i, rho in enumerate((0.3, 0.5, 0.7)):
        rate = rho / period
        arrivals = poisson_arrivals_count(
            rate, n_poisson, np.random.default_rng(seed + i)
        )
        res = _serve(model, plan, network, open_cfg, arrivals, seed)
        check = validate_md1(res.sojourns, period, latency, rate)
        md1_runs.append({"rho": rho, "rate": rate, **check})
        print(
            f"rho={rho:.1f}: measured {check['measured_mean']:.4f}s, "
            f"Theorem 2 {check['predicted_mean']:.4f}s "
            f"({check['rel_error']:.1%} off, n={int(check['n'])})"
        )

    # -- overload: bounded queue sheds, survivors' latency stays bounded
    rho_over = 1.5
    rate_over = rho_over / period
    n_over = 60 if quick else 200
    arrivals = poisson_arrivals_count(
        rate_over, n_over, np.random.default_rng(seed + 99)
    )
    shed_cfg = ServerConfig(queue_capacity=2 * n_stages, policy="shed")
    res_over = _serve(model, plan, network, shed_cfg, arrivals, seed)
    shed_fraction = len(res_over.shed) / res_over.submitted
    print(
        f"overload rho={rho_over}: {len(res_over.shed)}/{res_over.submitted} "
        f"shed ({shed_fraction:.0%}), survivors p95 sojourn "
        f"{res_over.percentile_sojourn(95):.4f}s"
    )

    gates = {
        "speedup_ge_1.5x": speedup >= SPEEDUP_GATE,
        "within_15pct_of_inv_period": period_gap <= PERIOD_GAP_GATE,
        "md1_within_20pct": all(
            r["rel_error"] <= MD1_GATE for r in md1_runs
        ),
        "overload_sheds": len(res_over.shed) > 0,
    }
    sections = {
        "config": {
            "model": "vgg16", "input_hw": 64,
            "devices": 8, "freq_mhz": 600.0, "mbps": 50.0,
            "scheme": "pico", "n_stages": n_stages,
            "period_s": period, "latency_s": latency,
        },
        "throughput": {
            "pipelined_per_s": pipelined,
            "frame_at_a_time_per_s": baseline,
            "speedup": speedup,
            "inv_period_per_s": inv_period,
            "gap_to_inv_period": period_gap,
            "saturated_frames": n_sat,
        },
        "md1": md1_runs,
        "overload": {
            "rho": rho_over,
            "offered": res_over.submitted,
            "completed": len(res_over.completed),
            "shed": len(res_over.shed),
            "shed_fraction": shed_fraction,
            "p95_sojourn_s": res_over.percentile_sojourn(95),
        },
    }
    return sections, gates


BENCH = common.Bench(
    name="serve",
    run=run,
    deterministic=(
        common.Section("config"),
        common.Section("throughput", same_mode=True),
        common.Section("md1", same_mode=True),
        common.Section("overload", same_mode=True),
    ),
)

if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
