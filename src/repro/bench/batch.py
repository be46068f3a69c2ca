"""Cross-frame batching gate: batched throughput vs the per-frame loop.

Measures what the ``max_batch`` serving knob actually buys on the
wall-clock (threaded) backend, where the batched fast path builds one
stacked im2col panel and issues one sgemm per layer for every frame in
flight instead of B separate panel/pack/dispatch rounds:

* **capacity** — saturated closed-loop throughput per core for
  B ∈ {1, 2, 4, 8}; the headline gate is that some B > 1 beats the
  B=1 baseline (the unchanged PR-5 per-frame server path).
* **rho09** — open-loop arrivals at ρ ≈ 0.9 of the measured B=1
  capacity with a bounded shed-policy queue: goodput, shed counts,
  sojourns and realised batch sizes per B.

Protocol: the B sweep is *interleaved* inside each repeat (so drift
hits every B equally) and the reported number per B is the median
across repeats — both recorded in the JSON.  Results land in
``BENCH_batch.json``; non-zero exit when a gate fails.  The numbers are
wall clock, so ``--check`` holds the configuration and the B rows
against the committed report and enforces the gates on the fresh run::

    python -m repro.bench.batch --quick
    python -m repro.bench.batch --check BENCH_batch.json --quick
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.bench import common
from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.core import InProcTransport
from repro.runtime.program import compile_plan
from repro.schemes import get_scheme
from repro.serve import PipelineServer, ServerConfig
from repro.workload.arrivals import poisson_arrivals_count

__all__ = ["BENCH", "run"]

BATCHES = (1, 2, 4, 8)
RHO = 0.9


def _build(seed: int):
    model = toy_chain(6, 2, input_hw=32, in_channels=3, base_channels=8)
    weights = init_weights(model, seed=seed)
    network = NetworkModel.from_mbps(50.0)
    cluster = heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0])
    plan = get_scheme("pico").plan(model, cluster, network)
    program = compile_plan(model, plan)
    return model, weights, program


def _serve_once(model, weights, program, config, n_frames, arrivals=None):
    """One threaded serve run; returns (throughput, ServeResult)."""
    transport = InProcTransport(Engine(model, weights))
    server = PipelineServer(program, transport, config)
    start = time.perf_counter()
    try:
        result = server.serve(n_frames, arrivals=arrivals)
    finally:
        server.close()
    elapsed = time.perf_counter() - start
    return (len(result.completed) / elapsed if elapsed > 0 else 0.0), result


def _config(batch: int, capacity: int, policy: str) -> ServerConfig:
    return ServerConfig(
        queue_capacity=capacity,
        policy=policy,
        max_batch=batch,
        # A short window lets saturated queues fill real batches without
        # stalling a drained pipeline; irrelevant at B=1.
        batch_timeout=0.001 if batch > 1 else 0.0,
    )


def run(quick: bool = False, seed: int = 0):
    """Sweep B saturated and at rho 0.9; returns ``(sections, gates)``."""
    model, weights, program = _build(seed)
    cores = os.cpu_count() or 1
    n_frames = 32 if quick else 64
    repeats = 2 if quick else 5
    capacity = 32

    # -- capacity: saturated closed loop, interleaved B sweep ----------
    def saturated(b: int):
        thr, res = _serve_once(
            model, weights, program, _config(b, capacity, "block"), n_frames
        )
        return thr, res.mean_batch

    # interleaved so drift hits every B equally
    sweeps = common.interleaved(
        [lambda b=b: saturated(b) for b in BATCHES], repeats
    )
    capacity_rows = []
    for b, seen in zip(BATCHES, sweeps):
        samples = [thr for thr, _ in seen]
        med = statistics.median(samples)
        capacity_rows.append(
            {
                "max_batch": b,
                "throughput_per_s": med,
                "throughput_per_core": med / cores,
                "mean_batch": statistics.median(mean for _, mean in seen),
                "samples_per_s": samples,
            }
        )
        print(
            f"saturated B={b}: {med:.1f}/s "
            f"({med / cores:.1f}/s/core, "
            f"mean batch {capacity_rows[-1]['mean_batch']:.1f})"
        )
    base = capacity_rows[0]["throughput_per_s"]
    best = max(capacity_rows[1:], key=lambda r: r["throughput_per_s"])
    speedup = best["throughput_per_s"] / base if base > 0 else 0.0
    print(
        f"best: B={best['max_batch']} at {speedup:.2f}x the per-frame loop"
    )

    # -- rho ~= 0.9 of the measured B=1 capacity, bounded shed queue ---
    rate = RHO * base
    n_open = 48 if quick else 120
    arrivals = poisson_arrivals_count(
        rate, n_open, np.random.default_rng(seed)
    )

    def open_loop(b: int):
        thr, res = _serve_once(
            model, weights, program,
            _config(b, 16, "shed"), len(arrivals), list(arrivals),
        )
        return {
            "goodput_per_s": thr,
            "completed": len(res.completed),
            "shed": len(res.shed),
            "mean_sojourn_s": res.mean_sojourn,
            "mean_batch": res.mean_batch,
        }

    rho_sweeps = common.interleaved(
        [lambda b=b: open_loop(b) for b in BATCHES], repeats
    )
    rho_summary = []
    for b, rows in zip(BATCHES, rho_sweeps):
        med = statistics.median(r["goodput_per_s"] for r in rows)
        rho_summary.append(
            {
                "max_batch": b,
                "goodput_per_s": med,
                "goodput_per_core": med / cores,
                "completed": statistics.median(r["completed"] for r in rows),
                "shed": statistics.median(r["shed"] for r in rows),
                "mean_sojourn_s": statistics.median(
                    r["mean_sojourn_s"] for r in rows
                ),
                "mean_batch": statistics.median(
                    r["mean_batch"] for r in rows
                ),
            }
        )
        print(
            f"rho={RHO} B={b}: goodput {med:.1f}/s "
            f"({med / cores:.1f}/s/core), "
            f"shed {rho_summary[-1]['shed']:.0f}/{len(arrivals)}"
        )
    rho_base = rho_summary[0]["goodput_per_s"]
    rho_best = max(rho_summary[1:], key=lambda r: r["goodput_per_s"])
    rho_speedup = rho_best["goodput_per_s"] / rho_base if rho_base else 0.0

    gates = {
        "saturated_some_batch_beats_per_frame": speedup > 1.0,
        "rho09_some_batch_matches_per_frame": rho_speedup >= 0.95,
        "batches_actually_form": any(
            r["mean_batch"] > 1.0 for r in capacity_rows[1:]
        ),
    }
    sections = {
        "config": {
            "model": "toy_chain(6,2)", "input_hw": 32,
            "base_channels": 8, "scheme": "pico",
            "devices": [1200.0, 1000.0, 800.0, 600.0], "mbps": 50.0,
            "n_stages": program.n_stages, "cores": cores,
            "batch_gemm": Engine(model, weights).batch_gemm,
        },
        "protocol": {
            "interleaved": True,
            "repeats": repeats,
            "statistic": "median",
            "saturated_frames": n_frames,
            "open_loop_frames": n_open,
            "rho": RHO,
            "rho_rate_per_s": rate,
        },
        "saturated": capacity_rows,
        "saturated_speedup_best": {
            "max_batch": best["max_batch"], "speedup": speedup,
        },
        "rho09": rho_summary,
        "rho09_speedup_best": {
            "max_batch": rho_best["max_batch"], "speedup": rho_speedup,
        },
    }
    return sections, gates


BENCH = common.Bench(
    name="batch",
    run=run,
    deterministic=(
        common.Section("config"),
        common.Section("protocol", same_mode=True),
        common.Section("saturated", key=("max_batch",)),
        common.Section("rho09", key=("max_batch",)),
    ),
    timings=(
        "cores", "batch_gemm", "rho_rate_per_s",
        "throughput_per_s", "throughput_per_core", "mean_batch", "samples_per_s",
        "goodput_per_s", "goodput_per_core", "completed", "shed", "mean_sojourn_s",
    ),
)

if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
