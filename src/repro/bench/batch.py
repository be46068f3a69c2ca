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
* **split** — what ``run_segment``'s frame-group split buys one
  process that has the host to itself: per-stage median
  ``run_segment`` time of a stacked batch of B ∈ {1, 2, 3, 4} frames at
  pool widths 1 and 2, on the resnet34@64 PICO plan of the end-to-end
  benchmark (four single-device stages), in a fresh interpreter whose
  BLAS runs on one thread, as a worker's does.  Its gate is exactness
  — every stage's per-frame slices at both widths equal the per-frame
  loop bitwise — and there is no speed gate, because the cores of the
  host decide the speed.
* **gemm** — what a batch's tall sgemm buys: one row per distinct conv
  GEMM geometry of that plan at a frame group of 2 (a B=4 batch at
  width 2), with this host's decision (``tall`` where the loaded BLAS
  computes one sgemm over both frames bit-identically to one sgemm per
  frame, ``per_frame`` elsewhere) and both paths' interleaved median
  ms, in a fresh interpreter on one BLAS thread.  Its gate: every
  ``tall`` row is bitwise equal to the per-frame sgemms on a second
  seeded draw.  The decisions belong to the BLAS and the CPU, so
  ``--check`` compares the geometries, never the decisions.
* **workers** — what the split costs in the pipeline, where the four
  workers of that plan share the host: resnet34@64 bursts of 1-4
  frames at 30 frames/s served over ``TcpTransport`` (``max_batch=4``)
  with every worker at its share of the threads (``max(1, threads //
  workers)``, what the transport ships) and at twice it, set through
  ``parallel.set_threads`` on the coordinator; p50 sojourn and the CPU
  ms a frame of the coordinator and its workers, each run in a fresh
  interpreter on one BLAS thread.  Gates: every frame equals the
  in-process oracle bitwise, and the share costs less CPU a frame.

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
from repro.models.zoo import get_model
from repro.nn import ops, parallel
from repro.nn.executor import Engine
from repro.nn.tiles import run_segment
from repro.nn.weights import init_weights
from repro.runtime.coordinator import TcpTransport
from repro.runtime.core import InProcTransport
from repro.runtime.program import (
    compile_plan,
    split_stage,
    stack_frames,
    stitch_stage,
    unstack_frames,
)
from repro.schemes import get_scheme
from repro.serve import PipelineServer, ServerConfig
from repro.workload.arrivals import poisson_arrivals_count

__all__ = ["BENCH", "run"]

BATCHES = (1, 2, 4, 8)
RHO = 0.9
SPLIT_BATCHES = (1, 2, 3, 4)
SPLIT_WIDTHS = (1, 2)
#: The frame group a B=4 batch forms at pool width 2.
GEMM_GROUP = 2
#: The ``workers`` rows: worker widths as multiples of the share the
#: transport ships, and the open loop they serve (the e2e
#: ``resnet34_tcp_open_b4`` load: bursts of 1-4 frames, 30 frames/s).
WORKER_SHARES = (1, 2)
WORKER_BURSTS = (1, 2, 3, 4)
WORKER_RATE = 30.0
WORKER_INPUTS = 4


def _build(seed: int, model=None):
    if model is None:
        model = toy_chain(6, 2, input_hw=32, in_channels=3, base_channels=8)
    weights = init_weights(model, seed=seed)
    network = NetworkModel.from_mbps(50.0)
    cluster = heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0])
    plan = get_scheme("pico").plan(model, cluster, network)
    program = compile_plan(model, plan)
    return model, weights, program


def _split_rows(quick: bool, seed: int):
    """The ``split`` rows and whether every output was bit-identical."""
    model, weights, program = _build(seed, get_model("resnet34", input_hw=64))
    engine = Engine(model, weights)
    rng = np.random.default_rng(seed)
    repeats = 3 if quick else 15

    def timed_ms(width: int, task, tile: np.ndarray):
        # A fresh pool's threads start with empty scratch arenas: one
        # untimed run spawns and warms them, the next one is timed.
        parallel.set_threads(width)
        run_segment(engine, task.program, tile)
        start = time.perf_counter()
        out = run_segment(engine, task.program, tile)
        return (time.perf_counter() - start) * 1e3, out

    rows, identical = [], True
    try:
        for b in (4,) if quick else SPLIT_BATCHES:
            frames = [
                rng.standard_normal(model.input_shape).astype(np.float32)
                for _ in range(b)
            ]
            stacked = stack_frames(frames)
            stage_ms = {w: [] for w in SPLIT_WIDTHS}
            for stage in program.stages:
                parallel.set_threads(1)
                per_frame = [split_stage(stage.tasks, f) for f in frames]
                outs = []
                for t, (task, tile) in enumerate(
                    zip(stage.tasks, split_stage(stage.tasks, stacked))
                ):
                    want = stack_frames(
                        [run_segment(engine, task.program, f[t]) for f in per_frame]
                    )
                    seen = common.interleaved(
                        [lambda w=w: timed_ms(w, task, tile) for w in SPLIT_WIDTHS],
                        repeats,
                    )
                    for w, runs in zip(SPLIT_WIDTHS, seen):
                        stage_ms[w].append(statistics.median(ms for ms, _ in runs))
                        identical &= all(np.array_equal(o, want) for _, o in runs)
                    outs.append(want)
                stacked = stitch_stage(stage, stage.tasks, outs)
                frames = unstack_frames(stacked)
            row = {"batch": b, "stages": program.n_stages}
            for w in SPLIT_WIDTHS:
                row[f"stage_ms_w{w}"] = stage_ms[w]
                row[f"sum_ms_w{w}"] = sum(stage_ms[w])
            rows.append(row)
    finally:
        parallel.set_threads(None)
    return rows, repeats, identical


def _gemm_geometries(model):
    """Distinct ``(M, K, columns per frame)`` of the model's convs (all
    ungrouped in resnet34).  Each stage of the plan is one device
    running whole maps, so these are the plan's GEMMs."""
    seen = []
    for info in model.iter_layers():
        layer = info.layer
        if layer.kind == "conv":
            kh, kw = layer.kernel_size
            _, ho, wo = info.out_shape
            geometry = (layer.out_channels, layer.in_channels * kh * kw, ho * wo)
            if geometry not in seen:
                seen.append(geometry)
    return seen


def _gemm_rows(quick: bool, seed: int):
    """The ``gemm`` rows and whether every ``tall`` row was bit-identical."""
    repeats = 3 if quick else 15

    def operands(draw: int, m: int, k: int, nf: int):
        rng = np.random.default_rng([seed, draw])
        packed = rng.standard_normal((m, k)).astype(np.float32)
        cols = rng.standard_normal((k, GEMM_GROUP * nf)).astype(np.float32)
        return packed, cols, [np.ascontiguousarray(c) for c in np.hsplit(cols, GEMM_GROUP)]

    rows, identical = [], True
    for m, k, nf in _gemm_geometries(get_model("resnet34", input_hw=64)):
        tall = ops._tall_is_exact((m, k), nf, GEMM_GROUP)
        packed, cols, frames = operands(0, m, k, nf)
        per_frame_s, tall_s = common.interleaved_medians(
            [lambda: [np.dot(packed, f) for f in frames], lambda: np.dot(packed, cols)],
            repeats,
        )
        if tall:
            packed, cols, frames = operands(1, m, k, nf)
            want = np.hstack([np.dot(packed, f) for f in frames])
            identical &= np.array_equal(
                np.dot(packed, cols).view(np.uint32), want.view(np.uint32)
            )
        rows.append({
            "m": m, "k": k, "cols": nf,
            "decision": "tall" if tall else "per_frame",
            "per_frame_ms": per_frame_s * 1e3, "tall_ms": tall_s * 1e3,
        })
    return rows, repeats, bool(identical)


def _workers_row(times_share: int, frames: int, seed: int) -> dict:
    """Serve resnet34@64 bursts over ``TcpTransport`` with every worker
    at ``times_share`` times its share of this process's threads: p50
    sojourn, CPU ms a frame (this process and its workers, from
    ``/proc``) and whether every frame equals the in-process oracle."""
    model, weights, program = _build(seed, get_model("resnet34", input_hw=64))
    n_workers = sum(len(stage.tasks) for stage in program.stages)
    share = max(1, parallel.configured_threads() // n_workers)
    rng = np.random.default_rng(seed)
    inputs = [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(WORKER_INPUTS)
    ]
    engine = Engine(model, weights)
    oracle = [engine.forward_features(x) for x in inputs]
    # Burst instants are sorted uniforms over the loop's length; every
    # burst size occurs equally often, in seeded order.
    sizes = rng.permutation(np.tile(WORKER_BURSTS, frames // sum(WORKER_BURSTS)))
    instants = np.sort(rng.uniform(0.0, sizes.sum() / WORKER_RATE, len(sizes)))
    arrivals = [float(t - instants[0]) for t in np.repeat(instants, sizes)]
    config = ServerConfig(
        queue_capacity=16, policy="shed", max_batch=4, batch_timeout=0.002
    )
    parallel.set_threads(times_share * share * n_workers)  # workers fork with it
    transport = TcpTransport(model, weights)
    server = PipelineServer(program, transport, config)
    try:
        for b in WORKER_BURSTS:  # warm-up: a batch of every size
            server.serve(inputs[:b])
        pids = [os.getpid()] + [h.process.pid for h in transport.all_handles()]
        cpu0 = sum(map(common.cpu_seconds, pids))
        result = server.serve(
            [inputs[i % WORKER_INPUTS] for i in range(len(arrivals))], arrivals
        )
        cpu = sum(map(common.cpu_seconds, pids)) - cpu0
    finally:
        server.close()
        parallel.set_threads(None)
    done = result.completed
    return {
        "times_share": times_share,
        "worker_threads": transport.worker_threads,
        "exact": bool(done) and all(
            np.array_equal(result.outputs[r.frame], oracle[r.frame % WORKER_INPUTS])
            for r in done
        ),
        "completed": len(done),
        "shed": len(result.shed),
        "failed": len(result.failed),
        "mean_batch": result.mean_batch,
        "sojourn_p50_ms": result.percentile_sojourn(50) * 1e3,
        "cpu_ms_per_frame": cpu / max(1, len(done)) * 1e3,
    }


def _workers_rows(quick: bool, seed: int):
    """The ``workers`` rows (medians over interleaved fresh runs)."""
    frames, repeats = (80, 1) if quick else (160, 5)
    runs = common.interleaved(
        [
            lambda m=m: common.run_fresh(
                __file__, "_workers_row", [m, frames, seed], common.ONE_BLAS_THREAD
            )
            for m in WORKER_SHARES
        ],
        repeats,
    )
    rows = []
    for m, seen in zip(WORKER_SHARES, runs):
        row = {
            "times_share": m,
            "worker_threads": seen[0]["worker_threads"],
            "exact": all(r["exact"] for r in seen),
        }
        for field in ("sojourn_p50_ms", "cpu_ms_per_frame", "mean_batch", "shed", "failed"):
            row[field] = statistics.median(r[field] for r in seen)
        row["samples_sojourn_p50_ms"] = [r["sojourn_p50_ms"] for r in seen]
        row["samples_cpu_ms_per_frame"] = [r["cpu_ms_per_frame"] for r in seen]
        rows.append(row)
    return rows, frames, repeats


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

    # -- split: one worker's stacked batch at pool widths 1 and 2 -----
    split_rows, split_repeats, split_identical = common.run_fresh(
        __file__, "_split_rows", [quick, seed], common.ONE_BLAS_THREAD
    )
    for row in split_rows:
        print(
            f"split B={row['batch']}: sum of stage medians "
            + ", ".join(f"{row[f'sum_ms_w{w}']:.1f} ms at width {w}"
                        for w in SPLIT_WIDTHS)
        )

    # -- gemm: per-frame vs tall sgemm per conv geometry of that plan --
    gemm_rows, gemm_repeats, gemm_identical = common.run_fresh(
        __file__, "_gemm_rows", [quick, seed], common.ONE_BLAS_THREAD
    )
    for row in gemm_rows:
        print(
            f"gemm ({row['m']}, {row['k']}) x {GEMM_GROUP}*{row['cols']}: "
            f"{row['decision']}, per-frame {row['per_frame_ms']:.3f} ms, "
            f"tall {row['tall_ms']:.3f} ms"
        )

    # -- workers: resnet34 bursts over tcp at the share and twice it --
    worker_rows, worker_frames, worker_repeats = _workers_rows(quick, seed)
    for row in worker_rows:
        print(
            f"workers x{row['times_share']} share ({row['worker_threads']} "
            f"threads each): p50 sojourn {row['sojourn_p50_ms']:.1f} ms, "
            f"{row['cpu_ms_per_frame']:.1f} CPU ms a frame, mean batch "
            f"{row['mean_batch']:.2f}, shed {row['shed']:.0f}, exact {row['exact']}"
        )

    gates = {
        "saturated_some_batch_beats_per_frame": speedup > 1.0,
        "rho09_some_batch_matches_per_frame": rho_speedup >= 0.95,
        "batches_actually_form": any(
            r["mean_batch"] > 1.0 for r in capacity_rows[1:]
        ),
        "split_outputs_bit_identical": split_identical,
        "gemm_tall_rows_bit_identical": gemm_identical,
        "workers_outputs_bit_identical": all(r["exact"] for r in worker_rows),
        # Held in 20 of 20 --quick runs on a 2-vCPU host; the p50
        # sojourn, ahead in 19, is recorded, not gated.
        "workers_share_cpu_below_twice_share": (
            worker_rows[0]["cpu_ms_per_frame"] < worker_rows[1]["cpu_ms_per_frame"]
        ),
    }
    sections = {
        "config": {
            "model": "toy_chain(6,2)", "input_hw": 32,
            "base_channels": 8, "scheme": "pico",
            "devices": [1200.0, 1000.0, 800.0, 600.0], "mbps": 50.0,
            "n_stages": program.n_stages, "cores": cores,
            "split_model": "resnet34", "split_input_hw": 64,
            "split_widths": list(SPLIT_WIDTHS), "split_blas_threads": 1,
            "gemm_group": GEMM_GROUP,
            "workers_model": "resnet34", "workers_input_hw": 64,
            "workers_transport": "tcp", "workers_shares": list(WORKER_SHARES),
            "workers_bursts": list(WORKER_BURSTS),
            "workers_rate_per_s": WORKER_RATE, "workers_blas_threads": 1,
        },
        "protocol": {
            "interleaved": True,
            "repeats": repeats,
            "statistic": "median",
            "saturated_frames": n_frames,
            "open_loop_frames": n_open,
            "rho": RHO,
            "rho_rate_per_s": rate,
            "split_repeats": split_repeats,
            "gemm_repeats": gemm_repeats,
            "workers_frames": worker_frames,
            "workers_repeats": worker_repeats,
        },
        "saturated": capacity_rows,
        "saturated_speedup_best": {
            "max_batch": best["max_batch"], "speedup": speedup,
        },
        "rho09": rho_summary,
        "rho09_speedup_best": {
            "max_batch": rho_best["max_batch"], "speedup": rho_speedup,
        },
        "split": split_rows,
        "gemm": gemm_rows,
        "workers": worker_rows,
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
        common.Section("split", key=("batch",)),
        common.Section("gemm", key=("m", "k", "cols")),
        common.Section("workers", key=("times_share",)),
    ),
    timings=(
        "cores", "rho_rate_per_s",
        "throughput_per_s", "throughput_per_core", "mean_batch", "samples_per_s",
        "goodput_per_s", "goodput_per_core", "completed", "shed", "mean_sojourn_s",
        "stage_ms_w1", "stage_ms_w2", "sum_ms_w1", "sum_ms_w2",
        "decision", "per_frame_ms", "tall_ms",
        "worker_threads", "failed", "sojourn_p50_ms", "cpu_ms_per_frame",
        "samples_sojourn_p50_ms", "samples_cpu_ms_per_frame",
    ),
)

if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
