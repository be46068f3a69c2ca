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
show load shedding keeping the system stable.  Those numbers are all
virtual time, so ``--check BENCH_serve.json`` (what ``make bench-check``
runs) must reproduce them exactly.

The **replay** section is the one host measurement: how fast the
timing-only server (``SimTransport(compute=False)``) replays a schedule,
in wall-clock frames per second, on the shape the ``vgg16_virtual``
workload of ``benchmarks/e2e`` times in its phase B — vgg16@64 on the
eight-device 1200…600 MHz star at 50 Mbps, 2 000 Poisson frames at
ρ = 0.8, shed at 16 — and on vgg16@224, where a replay that touched
tensors would slow 16×.  Its counts and makespan are deterministic and
re-checked; ``before_after`` holds the same rows timed at a parent
checkout and at this one (``--before-after PARENT_SRC``), carried over
from the committed report when not re-measured::

    python -m repro.bench.serve --quick
    python -m repro.bench.serve --check BENCH_serve.json
    python -m repro.bench.serve --before-after /path/to/parent/src
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional

import numpy as np

from repro.adaptive.queueing import validate_md1
from repro.bench import common
from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.zoo import get_model
from repro.nn.executor import Engine
from repro.runtime.core import SimTransport
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from repro.sim import Topology
from repro.workload.arrivals import poisson_arrivals_count

__all__ = ["BENCH", "run"]

SPEEDUP_GATE = 1.5
PERIOD_GAP_GATE = 0.15
MD1_GATE = 0.20
#: Conservative CI floor for the replay rows: the clock-only replay does
#: 50–70 k frames/s on a laptop core at either resolution; the replay
#: that built zero tensors did 5 k at @64 and 0.3 k at @224.
REPLAY_FRAMES_PER_S_GATE = 10_000.0
#: ``input_hw -> frames``; the same in ``--quick`` (a row is ~0.1 s).
_REPLAY_ROWS = {64: 2000, 224: 500}
_REPLAY_REPEATS = 5


def _server(model, plan, network, config) -> PipelineServer:
    # timing-only never reads a weight: an empty dict skips building them
    transport = SimTransport(Engine(model, weights={}), network, compute=False)
    return PipelineServer.from_plan(model, plan, transport, config=config)


def _serve(model, plan, network, config, arrivals):
    with _server(model, plan, network, config) as server:
        return server.serve(len(arrivals), arrivals=arrivals)


def _replay(input_hw: int, seed: int) -> Dict:
    """Time one replay row: median wall seconds of ``serve()`` over
    ``_REPLAY_REPEATS`` fresh servers, after one warm-up."""
    n_frames = _REPLAY_ROWS[input_hw]
    model = get_model("vgg16", input_hw=input_hw)
    cluster = heterogeneous_cluster(
        [1200.0, 1200.0, 1000.0, 1000.0, 800.0, 800.0, 600.0, 600.0]
    )
    network = Topology.star(
        [d.name for d in cluster], mbps=50.0
    ).as_network_model()
    plan = PicoScheme().plan(model, cluster, network)
    rate = 0.8 / plan_cost(model, plan, network).period
    arrivals = poisson_arrivals_count(
        rate, n_frames, np.random.default_rng([seed, input_hw])
    )
    config = ServerConfig(queue_capacity=16, policy="shed")
    walls = []
    for _ in range(_REPLAY_REPEATS + 1):
        with _server(model, plan, network, config) as server:
            start = time.perf_counter()
            result = server.serve(n_frames, arrivals=arrivals)
            walls.append(time.perf_counter() - start)
    elapsed = statistics.median(walls[1:])
    print(
        f"replay[vgg16@{input_hw}]: {n_frames} frames "
        f"({len(result.completed)} done, {len(result.shed)} shed) in "
        f"{elapsed * 1e3:.1f} ms ({n_frames / elapsed:,.0f} frames/s)"
    )
    return {
        "input_hw": int(input_hw),
        "frames": int(n_frames),
        "done": len(result.completed),
        "shed": len(result.shed),
        "makespan": float(result.makespan),
        "elapsed_s": float(elapsed),
        "frames_per_s": float(n_frames / elapsed),
    }


def _before_after(parent_src: str, seed: int, rounds: int) -> Dict:
    """Frames/s of every replay row at ``parent_src`` and at this
    checkout (:func:`repro.bench.common.parent_vs_change`); what the
    replay decides — done, shed, makespan — must agree."""
    section: Dict = {
        "parent": common.parent_commit(parent_src), "rounds": int(rounds),
        "rows": [],
    }
    for input_hw in _REPLAY_ROWS:
        runs = common.parent_vs_change(
            parent_src, __file__, "_replay", (input_hw, seed), rounds,
            agree=("done", "shed", "makespan"),
        )
        before, after, wins = common.paired_rates(runs, "frames_per_s")
        section["rows"].append({
            "input_hw": int(input_hw),
            "frames": _REPLAY_ROWS[input_hw],
            "parent_frames_per_s": before,
            "change_frames_per_s": after,
            "speedup": after / before,
            "wins": wins,
        })
        print(
            f"before_after[vgg16@{input_hw}]: {before:,.0f} -> {after:,.0f} "
            f"frames/s (x{after / before:.1f}, change ahead in "
            f"{wins}/{rounds} rounds)"
        )
    return section


def run(
    quick: bool = False,
    seed: int = 0,
    before_after: Optional[str] = None,
    rounds: int = 5,
    *,
    committed: Optional[Dict] = None,
):
    """Run the experiments; returns ``(sections, gates)``.  The
    before/after figures are carried over from the ``committed`` report
    unless ``before_after`` names a parent checkout's ``src``."""
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
    res_pipe = _serve(model, plan, network, block, saturated)
    pipelined = res_pipe.steady_throughput(warmup=n_stages)
    baseline_cfg = ServerConfig(
        queue_capacity=2 * n_stages, policy="block", max_in_flight=1
    )
    res_base = _serve(model, plan, network, baseline_cfg, saturated)
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
        res = _serve(model, plan, network, open_cfg, arrivals)
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
    res_over = _serve(model, plan, network, shed_cfg, arrivals)
    shed_fraction = len(res_over.shed) / res_over.submitted
    print(
        f"overload rho={rho_over}: {len(res_over.shed)}/{res_over.submitted} "
        f"shed ({shed_fraction:.0%}), survivors p95 sojourn "
        f"{res_over.percentile_sojourn(95):.4f}s"
    )

    # -- replay: wall-clock rate of the timing-only server itself
    replay = [_replay(input_hw, seed) for input_hw in _REPLAY_ROWS]
    if before_after:
        parent_vs_change = _before_after(before_after, seed, rounds)
    else:
        parent_vs_change = (committed or {}).get("before_after")

    gates = {
        "speedup_ge_1.5x": speedup >= SPEEDUP_GATE,
        "within_15pct_of_inv_period": period_gap <= PERIOD_GAP_GATE,
        "md1_within_20pct": all(
            r["rel_error"] <= MD1_GATE for r in md1_runs
        ),
        "overload_sheds": len(res_over.shed) > 0,
        "replay_accounted": all(
            r["done"] + r["shed"] == r["frames"] for r in replay
        ),
        f"replay_frames_per_s_ge_{int(REPLAY_FRAMES_PER_S_GATE)}": all(
            r["frames_per_s"] >= REPLAY_FRAMES_PER_S_GATE for r in replay
        ),
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
        "replay": replay,
        "before_after": parent_vs_change,
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
        common.Section("replay", key=("input_hw",)),
    ),
    timings=("elapsed_s", "frames_per_s"),
    extras={
        "--before-after": dict(
            metavar="PARENT_SRC",
            help="also time the replay rows against the src/ of a parent "
            "checkout, interleaved, and record the medians",
        ),
        "--rounds": dict(
            type=int, default=5,
            help="parent/change pairs per row for --before-after",
        ),
    },
    reads_committed=True,
)

if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
