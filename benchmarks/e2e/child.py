"""One workload in one fresh process: set-up, measurement, attribution.

Started by ``run.py`` with the BLAS thread pinning already in the
environment.  Layers are measured from outside: by timing calls into the
program's public functions and by reading its public outputs
(``FrameRecord``, ``ServeResult``, ``tracer=True`` events, ``SimStats``).
The last line of standard output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import statistics
import sys
import time

CLOCK = time.perf_counter
T_MAIN = CLOCK()

import numpy as np  # noqa: E402 - after the clock reading on purpose

from repro.cluster.device import Cluster, Device, heterogeneous_cluster  # noqa: E402
from repro.core.plan import PipelinePlan, StagePlan, plan_cost  # noqa: E402
from repro.cost.comm import NetworkModel  # noqa: E402
from repro.cost.flops import model_flops  # noqa: E402
from repro.cost.profiler import calibrate_host  # noqa: E402
from repro.models.toy import toy_chain  # noqa: E402
from repro.models.zoo import get_model  # noqa: E402
from repro.nn import parallel  # noqa: E402
from repro.nn.executor import Engine  # noqa: E402
from repro.nn.tiles import run_segment  # noqa: E402
from repro.nn.weights import init_weights  # noqa: E402
from repro.runtime.coordinator import (  # noqa: E402
    DistributedPipeline,
    ShmTransport,
    TcpTransport,
)
from repro.runtime.core import SimTransport  # noqa: E402
from repro.runtime.messages import TileResult, TileTask  # noqa: E402
from repro.runtime.program import compile_plan, split_stage, stitch_stage  # noqa: E402
from repro.runtime.shm import ShmRing  # noqa: E402
from repro.runtime.trace import Tracer, dump_jsonl  # noqa: E402
from repro.runtime.transport import decode_message, encode_message  # noqa: E402
from repro.schemes.pico import PicoScheme  # noqa: E402
from repro.serve import PipelineServer, ServerConfig  # noqa: E402
from repro.sim import Topology, correlated_churn, simulate_scenario  # noqa: E402
from repro.workload.processes import PoissonProcess  # noqa: E402

from . import metrics as M  # noqa: E402
from .reference import Reference  # noqa: E402
from .workloads import (  # noqa: E402
    CLUSTER_MHZ,
    N_DISTINCT_FRAMES,
    PROBE_CALLS,
    WORKLOADS,
    contract,
    idle,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
_TICK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# Process accounting from /proc (coordinator + its worker processes)
# ---------------------------------------------------------------------------
def _pids() -> "list":
    return [os.getpid()] + [p.pid for p in mp.active_children()]


def cpu_seconds(pids) -> float:
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime
    return total


def peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def probe_ms(fn, calls: int = PROBE_CALLS) -> float:
    """Median wall milliseconds of ``fn()`` after one warm call."""
    fn()
    samples = []
    for _ in range(calls):
        t0 = CLOCK()
        fn()
        samples.append(CLOCK() - t0)
    return statistics.median(samples) * 1e3


# ---------------------------------------------------------------------------
# Shared set-up for the three real workloads
# ---------------------------------------------------------------------------
class Real:
    """Model, plan, inputs and oracle of one real workload."""

    def __init__(self, spec: dict, seed: int, log: M.SpanLog) -> None:
        self.spec, self.log = spec, log
        with log.span("models.build"):
            kind = spec["model"][0]
            if kind == "zoo":
                self.model = get_model(spec["model"][1], input_hw=spec["model"][2])
            else:
                n_conv, n_pool, hw, base = spec["model"][1:]
                self.model = toy_chain(n_conv, n_pool, input_hw=hw, base_channels=base)
            self.weights = init_weights(self.model, 0)
        self.cluster = heterogeneous_cluster(CLUSTER_MHZ)
        self.network = NetworkModel.from_mbps(spec["mbps"])
        with log.span("schemes.plan"):
            self.plan = PicoScheme().plan(self.model, self.cluster, self.network)
        with log.span("cost.plan_cost"):
            self.cost = plan_cost(self.model, self.plan, self.network)
        with log.span("runtime.compile"):
            self.program = compile_plan(self.model, self.plan)
        with log.span("harness.inputs"):
            rng = np.random.default_rng(seed)
            self.frames = [
                rng.standard_normal(self.model.input_shape).astype(np.float32)
                for _ in range(N_DISTINCT_FRAMES)
            ]
            self.engine = Engine(self.model, self.weights)
            self.oracle = [self.engine.forward_features(f) for f in self.frames]
            # The parent of forked workers must not hold a live thread
            # pool (ROADMAP item 0): stop it before every open()/start().
            parallel.shutdown_pool()

    def cycle(self, n: int) -> "list":
        return [self.frames[i % N_DISTINCT_FRAMES] for i in range(n)]

    def verify(self, outputs: dict) -> dict:
        """frame -> output equals the oracle of the frame it cycled from."""
        return {
            f: np.array_equal(out, self.oracle[f % N_DISTINCT_FRAMES])
            for f, out in outputs.items()
        }


def _plan_shape(plan) -> "list":
    return [[s.start, s.end, [d.name for d in s.devices]] for s in plan.stages]


def _setup_seconds(log: M.SpanLog, spawned_at: float, ready_at: float, ref) -> dict:
    """Child start to first verified frame, minus the harness's own
    input generation and oracle work; in reference seconds, with the
    wall-clock figure beside it."""
    wall = (ready_at - spawned_at) - log.total("harness.inputs")
    return {"setup_s": wall * ref.speed(spawned_at, ready_at), "setup_wall_s": wall}


def _setup_layers(log: M.SpanLog) -> dict:
    return {
        "models.build_s": log.total("models.build"),
        "schemes.plan_s": log.total("schemes.plan"),
        "cost.plan_cost_s": log.total("cost.plan_cost"),
        "runtime.compile_s": log.total("runtime.compile"),
        "runtime.open_s": log.total("runtime.open"),
        "runtime.warmup_s": log.total("runtime.warmup"),
        "runtime.close_s": log.total("runtime.close"),
    }


# ---------------------------------------------------------------------------
# PipelineServer workloads (closed and open loop)
# ---------------------------------------------------------------------------
def _open_server(real: Real, traced: bool, span: str = "runtime.open"):
    spec = real.spec
    if spec["transport"] == "shm":
        transport = ShmTransport(
            real.model, real.weights, slot_frames=spec["max_batch"]
        )
    else:
        transport = TcpTransport(real.model, real.weights)
    config = ServerConfig(
        queue_capacity=spec["queue_capacity"],
        policy=spec["policy"],
        max_batch=spec["max_batch"],
        batch_timeout=spec["batch_timeout"],
    )
    parallel.shutdown_pool()
    with real.log.span(span):
        return PipelineServer(
            real.program, transport, config, tracer=Tracer() if traced else None
        )


def _warm_server(real: Real, server, span: str = "runtime.warmup") -> None:
    with real.log.span(span):
        result = server.serve(real.frames)
        good = real.verify(result.outputs)
    if len(good) != len(real.frames) or not all(good.values()):
        raise RuntimeError("warm-up frames did not match the oracle")


def _event_tuples(events) -> "list":
    return [
        (e.kind, e.frame, e.stage, e.device, e.start, e.end, e.nbytes)
        for e in events
    ]


def _serve_closed(real: Real, server, seconds: float, traced: bool, ref) -> dict:
    """Back-to-back serve() chunks until ``seconds`` have been measured."""
    chunk = real.spec["chunk_frames"]
    run = _new_run()
    pids = _pids()
    t_begin = CLOCK()
    while CLOCK() - t_begin < seconds:
        if traced:
            server.tracer.clear()
        cpu0, t0 = cpu_seconds(pids), CLOCK()
        result = server.serve(real.cycle(chunk))
        cpu, t1 = cpu_seconds(pids) - cpu0, CLOCK()
        good = real.verify(result.outputs)
        part = M.tally_frames(
            chunk, [(r.frame, r.status) for r in result.records], good
        )
        done = [r for r in result.records if r.status == "done" and good.get(r.frame)]
        base = run["tally"].submitted
        _add_chunk(
            run, part, cpu,
            [(r.completion, r.completion - r.arrival) for r in done],
            ref.speed(t0, t1),
        )
        run["batches"] += [r.batch for r in done]
        if traced:
            run["observed"] += [
                _shift(f, base)
                for f in M.frames_from_events(
                    _event_tuples(result.trace),
                    {
                        r.frame: (r.arrival, r.arrival, r.admitted_at, r.completion)
                        for r in done
                    },
                )
            ]
    run["rss_mb"] = peak_rss_mb(pids)
    return run


def _new_run() -> dict:
    return {
        "tally": M.Tally(), "rates": [], "cpu_s": 0.0, "latencies": [],
        "raw": {"rates": [], "cpu_s": 0.0, "latencies": []}, "speeds": [],
        "batches": [], "observed": [], "late": [], "late_p99s": [],
    }


def _add_chunk(
    run: dict, part: M.Tally, cpu_s: float, finished: "list", speed: float
) -> None:
    """Fold one chunk into the run: ``finished`` holds ``(completion
    time, sojourn)`` of its verified frames, ``speed`` is the host's
    speed over the chunk (``reference.py``).  The run's figures are in
    reference seconds; the wall-clock ones stay beside them under
    ``raw`` for the trace arithmetic."""
    run["tally"].add(part)
    run["speeds"].append(speed)
    finished = sorted(finished)
    rates = M.window_rates([c for c, _ in finished])
    raw = run["raw"]
    raw["cpu_s"] += cpu_s
    raw["latencies"] += [s for _, s in finished]
    raw["rates"] += rates
    run["cpu_s"] += cpu_s * speed
    run["latencies"] += [s * speed for _, s in finished]
    run["rates"] += [r / speed for r in rates]


def _shift(frame_obs: M.FrameObs, base: int) -> M.FrameObs:
    frame_obs.frame += base  # frame ids restart per serve() chunk
    return frame_obs


def burst_schedule(spec: dict, seed: int, segment: int) -> "list":
    """Due times, in reference seconds from the segment's start, of one
    open-loop segment of bursts at the frozen mean rate.

    Burst instants are a Poisson process on the segment conditioned on
    its count (sorted uniforms) and every burst size occurs equally
    often, in seeded order, so every segment of every seed offers the
    same number of frames in the same mix.  Frame 0 is due at 0.
    """
    sizes = spec["burst_sizes"]
    length = spec["segment_s"]
    groups = max(1, int(round(spec["rate_fps"] * length / sum(sizes))))
    rng = np.random.default_rng([seed, 1, segment])
    order = rng.permutation(np.tile(sizes, groups))
    instants = np.sort(rng.uniform(0.0, length, len(order)))
    instants[0] = 0.0
    return [float(t) for t in np.repeat(instants, order)]


def _serve_open(real: Real, server, seconds: float, seed: int, traced: bool, ref) -> dict:
    """serve() calls over consecutive segments of the burst schedule
    until ``seconds`` have been measured.

    The schedule is laid out in reference seconds: each segment is
    stretched by the host's speed over the segment before it, so the
    offered load is the same share of what the host can do whether the
    host is in a fast or a slow spell.  Record 0's arrival is a
    segment's serve epoch.
    """
    spec = real.spec
    limit_s = spec["latency_limit_ms"] / 1e3
    run = _new_run()
    pids = _pids()
    in_time, wall_span, ref_span, segment = 0, 0.0, 0.0, 0
    t_begin = CLOCK()
    speed = ref.speed(t_begin - spec["segment_s"], t_begin)
    while CLOCK() - t_begin < seconds:
        due = [d / speed for d in burst_schedule(spec, seed, segment)]
        n, length = len(due), spec["segment_s"] / speed
        if traced:
            server.tracer.clear()
        cpu0, t0 = cpu_seconds(pids), CLOCK()
        result = server.serve(real.cycle(n), arrivals=due)
        cpu, t1 = cpu_seconds(pids) - cpu0, CLOCK()
        speed = ref.speed(t0, t1)
        good = real.verify(result.outputs)
        records = result.records
        part = M.tally_frames(n, [(r.frame, r.status) for r in records], good)
        epoch = records[0].arrival
        done = [r for r in records if r.status == "done" and good.get(r.frame)]
        sojourn = M.due_sojourns({r.frame: r.completion for r in done}, due, epoch)
        base = run["tally"].submitted
        _add_chunk(
            run, part, cpu, [(r.completion, sojourn[r.frame]) for r in done], speed
        )
        # The offered rate is fixed, so throughput is goodput: verified
        # frames that met the latency limit, over the segments' lengths
        # (to the last completion, where that came later).
        in_time += sum(1 for r in done if sojourn[r.frame] * speed <= limit_s)
        span = max([r.completion - epoch for r in done] + [length])
        wall_span += span
        ref_span += span * speed
        run["batches"] += [r.batch for r in done]
        late = M.generator_lateness([r.arrival for r in records], due, epoch)
        run["late"] += late
        run["late_p99s"].append(M.percentile(late, 99.0))
        if traced:
            run["observed"] += [
                _shift(f, base)
                for f in M.frames_from_events(
                    _event_tuples(result.trace),
                    {
                        r.frame: (
                            epoch + due[r.frame], r.arrival, r.admitted_at, r.completion
                        )
                        for r in done
                    },
                )
            ]
        segment += 1
    run["rates"] = [in_time / ref_span] if ref_span > 0 else []
    run["raw"]["rates"] = [in_time / wall_span] if wall_span > 0 else []
    run["rss_mb"] = peak_rss_mb(pids)
    return run


def _measure_serve(real: Real, server, seconds, seed, traced, ref) -> dict:
    if "rate_fps" in real.spec:
        return _serve_open(real, server, seconds, seed, traced, ref)
    return _serve_closed(real, server, seconds, traced, ref)


# ---------------------------------------------------------------------------
# DistributedPipeline workload (the selectors event loop)
# ---------------------------------------------------------------------------
def _open_pipe(real: Real, traced: bool, span: str = "runtime.open"):
    parallel.shutdown_pool()
    with real.log.span(span):
        pipe = DistributedPipeline(
            real.model, real.plan, real.weights,
            transport=real.spec["transport"], trace=traced,
        )
        pipe.start()
    return pipe


def _pipe_chunk(real: Real, pipe, n: int) -> "tuple":
    """Closed loop with ``window`` outstanding submits.  Returns
    ``(outputs by index, submit times, collect times, task ids)``."""
    window = real.spec["window"]
    frames = real.cycle(n)
    index_of, submit_at, collect_at, outputs = {}, {}, {}, {}
    submitted = collected = 0
    while collected < n:
        while submitted < n and submitted - collected < window:
            submit_at[submitted] = CLOCK()
            index_of[pipe.submit(frames[submitted])] = submitted
            submitted += 1
        task_id, out = pipe.collect(timeout_s=60.0)
        i = index_of[task_id]
        collect_at[i] = CLOCK()
        outputs[i] = out
        collected += 1
    task_of = {i: t for t, i in index_of.items()}
    return outputs, submit_at, collect_at, task_of


def _warm_pipe(real: Real, pipe, span: str = "runtime.warmup") -> None:
    with real.log.span(span):
        outputs, _, _, _ = _pipe_chunk(real, pipe, N_DISTINCT_FRAMES)
        good = real.verify(outputs)
    if len(good) != N_DISTINCT_FRAMES or not all(good.values()):
        raise RuntimeError("warm-up frames did not match the oracle")


def _measure_pipe(real: Real, pipe, seconds: float, traced: bool, ref) -> dict:
    chunk = real.spec["chunk_frames"]
    run, timeline = _new_run(), {}
    # Trace events carry the transport clock; harness stamps carry
    # perf_counter.  Both tick together, so one offset aligns them.
    offset = CLOCK() - pipe.transport.clock()
    pids = _pids()
    t_begin = CLOCK()
    while CLOCK() - t_begin < seconds:
        cpu0, t0 = cpu_seconds(pids), CLOCK()
        outputs, submit_at, collect_at, task_of = _pipe_chunk(real, pipe, chunk)
        cpu, t1 = cpu_seconds(pids) - cpu0, CLOCK()
        good = real.verify(outputs)
        part = M.tally_frames(chunk, [(i, "done") for i in outputs], good)
        verified = [i for i, ok in good.items() if ok]
        _add_chunk(
            run, part, cpu,
            [(collect_at[i], collect_at[i] - submit_at[i]) for i in verified],
            ref.speed(t0, t1),
        )
        for i in verified:
            at = submit_at[i] - offset
            timeline[task_of[i]] = (at, at, at, collect_at[i] - offset)
    run["rss_mb"] = peak_rss_mb(pids)
    run["batches"] = [1] * len(run["latencies"])
    if traced:
        run["observed"] = M.frames_from_events(_event_tuples(pipe.trace), timeline)
    return run


# ---------------------------------------------------------------------------
# Isolated probes on the workload's own tensors (after close())
# ---------------------------------------------------------------------------
def _probe_layers(real: Real) -> dict:
    engine, program = real.engine, real.program
    tcp = real.spec["transport"] == "tcp"
    split = stitch = encode = decode = shm_write = 0.0
    segment = []
    x = real.frames[0]
    for stage in program.stages:
        tasks = stage.tasks
        tiles = split_stage(tasks, x)
        outs = [run_segment(engine, t.program, tile) for t, tile in zip(tasks, tiles)]
        split += probe_ms(lambda: split_stage(tasks, x))
        stitch += probe_ms(lambda: stitch_stage(stage, tasks, outs))
        segment.append(
            max(
                probe_ms(lambda t=t, tile=tile: run_segment(engine, t.program, tile))
                for t, tile in zip(tasks, tiles)
            )
        )
        if tcp:
            for tile, out in zip(tiles, outs):
                encode += probe_ms(lambda: encode_message(TileTask(0, tile, 0)))
                payload = memoryview(encode_message(TileResult(0, 0, out, 0.0, 0)))
                decode += probe_ms(lambda: decode_message(payload))
        else:
            for tile in tiles:
                ring = ShmRing.create(max(tile.nbytes, 64), 2)
                try:
                    flat = np.ascontiguousarray(tile)
                    shm_write += probe_ms(
                        lambda: (
                            ring.write(0, flat),
                            ring.view(0, flat.dtype.str, flat.shape, flat.nbytes),
                        )
                    )
                finally:
                    ring.destroy()
        x = stitch_stage(stage, tasks, outs)
    local = probe_ms(lambda: engine.forward_features(real.frames[0]))
    parallel.shutdown_pool()
    layers = {
        "runtime.split_ms": split,
        "runtime.stitch_ms": stitch,
        "runtime.encode_ms": encode,
        "runtime.decode_ms": decode,
        "runtime.shm_write_ms": shm_write,
        "nn.local_forward_ms": local,
        "nn.gflops_per_s": model_flops(real.model) / (local / 1e3) / 1e9,
        "cost.pred_period_ms": real.cost.period * 1e3,
    }
    for i in range(4):
        layers[f"nn.probe_segment_ms.s{i}"] = segment[i] if i < len(segment) else 0.0
    return layers


def _host_period_s(real: Real) -> float:
    """The plan re-costed with every device at this host's measured
    single-thread capacity (all emulated devices share the host)."""
    capacity = calibrate_host().flops_per_second
    stages = []
    for stage in real.plan.stages:
        stages.append(
            StagePlan(
                stage.start,
                stage.end,
                tuple(
                    (Device(d.name, capacity, d.alpha), region)
                    for d, region in stage.assignments
                ),
                stage.path_groups,
                stage.channel_groups,
            )
        )
    plan = PipelinePlan(real.plan.model_name, tuple(stages), real.plan.mode)
    return plan_cost(real.model, plan, real.network).period


def _trace_layers(real: Real, traced: dict, untraced: dict, probes: dict) -> dict:
    # Rows read off trace events are wall-clock milliseconds, and so is
    # everything set beside them (``raw``); ``host.speed_factor``
    # converts.  Only what compares the two halves of the run, and what
    # is judged against the latency limit, is in reference seconds.
    rows = M.attribute(traced["observed"])
    ms = {k: v * 1e3 for k, v in rows.items()}
    evloop = real.spec["kind"] == "evloop"
    traced_fps = _frames_per_s(traced)
    period_s = 1.0 / _frames_per_s(traced["raw"])
    latencies = traced["raw"]["latencies"]
    tail = M.tail_percentile(len(latencies))
    limit_s = real.spec.get("latency_limit_ms", 0.0) / 1e3
    open_loop = "rate_fps" in real.spec  # not saturated: no measured period
    if open_loop:
        overhead = 1.0 - M.percentile(untraced["latencies"], 50.0) / M.percentile(
            traced["latencies"], 50.0
        )
    else:
        overhead = 1.0 - traced_fps / _frames_per_s(untraced)
    first = traced["observed"][0]
    late = traced["late"]
    host_period = _host_period_s(real)
    return {
        "serve.gen_late_ms": ms["gen_late"],
        "serve.gen_late_p99_ms": M.percentile(late, 99.0) * 1e3 if late else 0.0,
        "serve.admit_wait_ms": ms["admit_wait"],
        "serve.entry_wait_ms": 0.0 if evloop else ms["entry_wait"],
        "runtime.entry_wait_ms": ms["entry_wait"] if evloop else 0.0,
        "serve.handoff_wait_ms": ms["handoff_wait"],
        "serve.batch_mean": statistics.fmean(traced["batches"]),
        "serve.shed": traced["tally"].shed,
        "serve.failed": traced["tally"].failed + traced["tally"].wrong,
        "serve.sojourn_p50_ms": M.percentile(latencies, 50.0) * 1e3,
        "serve.sojourn_tail_ms": M.percentile(latencies, tail) * 1e3 if tail else 0.0,
        "serve.sojourn_tail_pct": tail or 0.0,
        "serve.sojourn_samples": len(latencies),
        "serve.slo_attainment": (
            M.slo_attainment(traced["latencies"], traced["tally"].submitted, limit_s)
            if limit_s
            else 0.0
        ),
        "runtime.send_ms": ms["send"],
        "runtime.stage_wait_ms": ms["stage_wait"],
        "runtime.recv_ms": ms["recv"],
        "runtime.stage_other_ms": ms["stage_other"],
        "runtime.send_bytes": sum(s.send_bytes for s in first.stages),
        "runtime.recv_bytes": sum(s.recv_bytes for s in first.stages),
        "runtime.coord_share": 0.0 if open_loop else 1.0 - rows["bottleneck"] / period_s,
        "nn.compute_ms": ms["compute"],
        "nn.compute_work_ms": ms["work"],
        "nn.bottleneck_ms": ms["bottleneck"],
        "attr.sojourn_ms": ms["sojourn"],
        "attr.trace_overhead_share": overhead,
        "attr.traced_frames_per_s": _frames_per_s(traced["raw"]),
        "host.speed_factor": statistics.fmean(traced["speeds"]),
        "nn.contention_ratio": ms["compute"] / sum(
            probes[f"nn.probe_segment_ms.s{i}"] for i in range(4)
        ),
        "runtime.speedup_vs_local": (
            _frames_per_s(untraced["raw"]) * probes["nn.local_forward_ms"] / 1e3
        ),
        "cost.period_rel_err": (
            0.0 if open_loop else (period_s - host_period) / host_period
        ),
    }


def _write_trace(name: str, seed: int, log: M.SpanLog, events, observed) -> None:
    """Spans stay in memory during the run and are written here, at exit."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    if events:
        dump_jsonl(events, stem + ".events.jsonl")
    with open(stem + ".spans.jsonl", "w") as handle:
        for span in log.spans:
            handle.write(json.dumps(dict(span.__dict__, frame=None)) + "\n")
        for f in observed:
            handle.write(
                json.dumps(
                    {"name": "frame", "start": f.due, "end": f.completion,
                     "parent": None, "frame": f.frame}
                )
                + "\n"
            )
            for s, st in enumerate(f.stages):
                for part, a, b in (
                    ("send", st.entry, st.send_end),
                    ("stage_wait", st.send_end, st.compute_start),
                    ("compute", st.compute_start, st.compute_end),
                    ("recv", st.compute_end, st.exit),
                ):
                    handle.write(
                        json.dumps(
                            {"name": f"stage{s}.{part}", "start": a, "end": b,
                             "parent": "frame", "frame": f.frame}
                        )
                        + "\n"
                    )


# ---------------------------------------------------------------------------
# Real workloads: one entry point
# ---------------------------------------------------------------------------
def run_real(name, spec, seed, seconds, trace, phase, spawned_at, ref) -> dict:
    log = M.SpanLog(CLOCK)
    real = Real(spec, seed, log)
    evloop = spec["kind"] == "evloop"
    opener, warmer = (_open_pipe, _warm_pipe) if evloop else (_open_server, _warm_server)

    def measure(target, secs, traced):
        if evloop:
            return _measure_pipe(real, target, secs, traced, ref)
        return _measure_serve(real, target, secs, seed, traced, ref)

    target = opener(real, False)
    try:
        warmer(real, target)
        setup = _setup_seconds(log, spawned_at, CLOCK(), ref)
        untraced = None
        if phase == "measure":
            untraced = measure(target, seconds / 3.0 if trace else seconds, False)
    finally:
        with log.span("runtime.close"):
            target.close()
    out = dict(setup, plan=_plan_shape(real.plan))
    if untraced is None:
        return out
    tally = untraced["tally"]
    out.update(_end_to_end(untraced))
    if trace:
        target = opener(real, True, "trace.open")
        try:
            warmer(real, target, "trace.warmup")
            traced = measure(target, seconds * 2.0 / 3.0, True)
            events = target.trace if evloop else target.tracer.events
        finally:
            target.close()
        tally.add(traced["tally"])
        untraced["late"] += traced["late"]
        untraced["late_p99s"] += traced["late_p99s"]
        probes = _probe_layers(real)
        layers = dict(_setup_layers(log), **probes)
        layers.update(_trace_layers(real, traced, untraced, probes))
        out["layers"] = layers
        _write_trace(name, seed, log, events, traced["observed"])
    late = untraced["late"]
    out["late_p99_ms"] = M.percentile(late, 99.0) * 1e3 if late else 0.0
    # One host stall puts the whole run's p99 over any limit; a generator
    # that cannot keep the schedule is late in most segments.
    p99s = untraced["late_p99s"]
    out["late_segment_p99_ms"] = statistics.median(p99s) * 1e3 if p99s else 0.0
    out["tally"] = dict(tally.__dict__, missed=tally.missed)
    return out


def _end_to_end(run: dict) -> dict:
    latencies = run["latencies"]
    tail = M.tail_percentile(len(latencies))
    return {
        "frames_per_ref_s": _frames_per_s(run),
        "latency_p50_ref_ms": M.percentile(latencies, 50.0) * 1e3,
        "cpu_ref_ms_per_frame": run["cpu_s"] / run["tally"].ok * 1e3,
        "peak_rss_mb": run["rss_mb"],
        "host_speed": statistics.median(run["speeds"]),
        "samples": len(latencies),
        "windows": len(run["rates"]),
        "latency_tail_ms": M.percentile(latencies, tail) * 1e3 if tail else None,
        "latency_tail_pct": tail,
    }


def _frames_per_s(run: dict) -> float:
    """Median window throughput (one figure on the open loop)."""
    return statistics.median(run["rates"])


# ---------------------------------------------------------------------------
# Virtual workload: event simulator + virtual serve replay, no workers
# ---------------------------------------------------------------------------
class Virtual:
    def __init__(self, spec: dict, log: M.SpanLog) -> None:
        self.spec, self.log = spec, log
        with log.span("models.build"):
            kind, model_name, hw = spec["model"]
            self.model = get_model(model_name, input_hw=hw)
        self.cluster = heterogeneous_cluster(spec["cluster_mhz"])
        self.names = [d.name for d in self.cluster]
        self.topology = Topology.star(self.names, mbps=spec["mbps"])
        self.network = self.topology.as_network_model()
        with log.span("schemes.plan"):
            self.plan = PicoScheme().plan(self.model, self.cluster, self.network)
        with log.span("cost.plan_cost"):
            self.period = plan_cost(self.model, self.plan, self.network).period
        with log.span("runtime.compile"):
            self.program = compile_plan(self.model, self.plan)
        self.rate = spec["rho"] / self.period
        # compute=False never touches a weight: an empty dict skips
        # building parameters the what-if user does not need.
        self.engine = Engine(self.model, weights={})

    def churn(self, n_requests: int):
        """The two slowest devices drop mid-run and rejoin later."""
        horizon = n_requests / self.rate
        return correlated_churn(
            self.names[-2:], at=0.4 * horizon, stagger_s=self.period,
            rejoin_after=0.2 * horizon,
        )

    def phase_a(self, n_requests: int, seed: int, trace=None):
        """``simulate_scenario`` over a Poisson stream with churn."""
        t0 = CLOCK()
        stats = simulate_scenario(
            self.model, PicoScheme(), self.cluster,
            topology=self.topology,
            arrivals=PoissonProcess(self.rate, n_tasks=n_requests),
            churn=self.churn(n_requests), trace=trace,
            queue_capacity=self.spec["queue_capacity"], seed=seed,
            keep_records=False,
        )
        span = (t0, CLOCK())
        accounted = stats.completed + stats.shed_count == n_requests
        return stats, span, accounted

    def phase_b(self, n_frames: int, seed: int):
        """``PipelineServer`` over ``SimTransport(compute=False)``."""
        gaps = np.random.default_rng([seed, 2]).exponential(1.0 / self.rate, n_frames)
        gaps[0] = 0.0
        arrivals = [float(t) for t in np.cumsum(gaps)]
        transport = SimTransport(self.engine, self.network, compute=False)
        config = ServerConfig(
            queue_capacity=self.spec["queue_capacity"], policy="shed"
        )
        with self.log.span("runtime.open"):
            server = PipelineServer(self.program, transport, config)
        try:
            t0 = CLOCK()
            result = server.serve(n_frames, arrivals=arrivals)
            span = (t0, CLOCK())
        finally:
            with self.log.span("runtime.close"):
                server.close()
        shed, done = len(result.shed), len(result.completed)
        accounted = done + shed == n_frames and not result.failed
        return shed, span, accounted


def run_virtual(name, spec, seed, seconds, trace, phase, spawned_at, ref) -> dict:
    log = M.SpanLog(CLOCK)
    virt = Virtual(spec, log)
    n_a, n_b = spec["sim_requests"], spec["serve_frames"]
    with log.span("runtime.warmup"):
        # Phase B at full size so the heap has grown to the replay's
        # working set before timing: that cost shows in setup_s instead
        # of in one slow round.
        _, _, ok_a = virt.phase_a(max(1, n_a // 100), seed)
        _, _, ok_b = virt.phase_b(n_b, seed)
    if not (ok_a and ok_b):
        raise RuntimeError("warm-up rounds lost requests")
    out = dict(
        _setup_seconds(log, spawned_at, CLOCK(), ref), plan=_plan_shape(virt.plan)
    )
    if phase != "measure":
        return out
    # Every round's two wall times, in reference seconds and raw.
    walls_a, walls_b, raw_a, raw_b, speeds, events = [], [], [], [], [], []
    first = {}
    lost = 0
    cpu = 0.0
    t_begin = CLOCK()
    while CLOCK() - t_begin < seconds:
        round_seed = seed * 100003 + len(walls_a)
        cpu0 = time.process_time()
        stats, span_a, ok_a = virt.phase_a(n_a, round_seed)
        shed_b, span_b, ok_b = virt.phase_b(n_b, round_seed)
        cpu_round = time.process_time() - cpu0
        wall_a, wall_b = span_a[1] - span_a[0], span_b[1] - span_b[0]
        speed_a, speed_b = ref.speed(*span_a), ref.speed(*span_b)
        lost += (0 if ok_a else n_a) + (0 if ok_b else n_b)
        if not walls_a:
            first = {
                "sim.events": stats.n_events,
                "sim.shed": stats.shed_count,
                "serve.virtual_shed": shed_b,
            }
        walls_a.append(wall_a * speed_a)
        walls_b.append(wall_b * speed_b)
        raw_a.append(wall_a)
        raw_b.append(wall_b)
        speeds += [speed_a, speed_b]
        cpu += cpu_round * ref.speed(span_a[0], span_b[1])
        events.append(stats.n_events / wall_a)
    attempted = len(walls_a) * (n_a + n_b)
    tally = M.Tally(submitted=attempted, ok=attempted - lost, unaccounted=lost)
    # The what-if user sees two things: how long one scenario takes to
    # answer (phase A) and how fast a schedule replays (phase B).
    out.update(
        {
            "frames_per_ref_s": n_b / statistics.median(walls_b),
            "latency_p50_ref_ms": statistics.median(walls_a) * 1e3,
            "cpu_ref_ms_per_frame": cpu / attempted * 1e3,
            "peak_rss_mb": peak_rss_mb([os.getpid()]),
            "host_speed": statistics.median(speeds),
            "samples": len(walls_a),
            "windows": len(walls_a),
            "latency_tail_ms": None,
            "latency_tail_pct": None,
            "late_p99_ms": 0.0,
            "late_segment_p99_ms": 0.0,
            "counts": first,
            "tally": dict(tally.__dict__, missed=tally.missed),
        }
    )
    if trace:
        layers = _setup_layers(log)
        layers["runtime.open_s"] /= len(walls_a) + 1  # one per round
        layers["runtime.close_s"] /= len(walls_a) + 1
        layers.update(first)
        layers["sim.events_per_s"] = statistics.median(events)
        layers["sim.requests_per_s"] = n_a / statistics.median(raw_a)
        layers["serve.virtual_frames_per_s"] = n_b / statistics.median(raw_b)
        layers["host.speed_factor"] = statistics.fmean(speeds)
        layers["cost.pred_period_ms"] = virt.period * 1e3
        # Round 0 again with a tracer: recovery events give the replan
        # count, the slowdown gives the tracing overhead.
        tracer = Tracer()
        _, span_traced, _ = virt.phase_a(n_a, seed * 100003, trace=tracer)
        kinds = [e.kind for e in tracer.events]
        layers["sim.replans"] = kinds.count("replan") + kinds.count("degraded")
        layers["attr.trace_overhead_share"] = 1.0 - walls_a[0] / (
            (span_traced[1] - span_traced[0]) * ref.speed(*span_traced)
        )
        t0 = CLOCK()
        drained = sum(
            1
            for _ in PoissonProcess(virt.rate, n_tasks=n_a).times(
                np.random.default_rng(seed)
            )
        )
        layers["workload.arrivals_per_s"] = drained / (CLOCK() - t0)
        survivors = Cluster(tuple(virt.cluster)[:-2])
        layers["schemes.replan_ms"] = probe_ms(
            lambda: PicoScheme().plan(virt.model, survivors, virt.network)
        )
        out["layers"] = layers
        _write_trace(name, seed, log, (), ())
    return out


# ---------------------------------------------------------------------------
def _checked_layers(layers: dict, virtual: bool) -> dict:
    """Every per-layer metric of the contract, by name.  A name the
    contract does not list is an error (a misspelt key); so is a missing
    one, unless this kind of workload does not exercise that layer, in
    which case it reads 0."""
    names = [m["name"] for m in contract()["per_layer"]]
    unknown = sorted(set(layers) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    missing = [n for n in names if n not in layers and not idle(n, virtual)]
    if missing:
        raise KeyError(f"per-layer metrics not measured: {missing}")
    return {name: float(layers.get(name, 0.0)) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), default="measure")
    parser.add_argument("--spawned-at", type=float, default=T_MAIN)
    parser.add_argument("--reference", required=True,
                        help="file the host-speed sampler of this run appends to")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    runner = run_virtual if spec["kind"] == "virtual" else run_real
    out = runner(
        args.workload, spec, args.seed, args.seconds, bool(args.trace),
        args.phase, args.spawned_at, Reference(args.reference),
    )
    if "layers" in out:
        out["layers"] = _checked_layers(out["layers"], spec["kind"] == "virtual")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
