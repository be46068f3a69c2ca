"""The one wall-clock scheduler and its client.

``PipelineServer`` serves every wall-clock run on ``StageScheduler``;
these tests pin that pipelined serving agrees bit for bit with walking
one frame at a time (with and without a worker crash), that a stalled
stage ends a wait in a named error rather than a hang, that ``close()``
leaves nothing behind, that a thread pool warmed before the fork cannot
wedge a worker, and that the benchmark's submit/collect shim still
drives the scheduler as the e2e workload does.
"""

from __future__ import annotations

import multiprocessing as mp
import threading

import numpy as np
import pytest

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.cost.comm import NetworkModel
from repro.models.graph import Model
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.nn import parallel
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime import scheduler as scheduler_module
from repro.runtime.coordinator import DistributedPipeline
from repro.runtime.core import PipelineSession
from repro.runtime.faults import FaultSchedule, RuntimeConfig
from repro.runtime.program import compile_plan
from repro.runtime.scheduler import StageScheduler
from repro.runtime.trace import RECOVERY_KINDS, Tracer, canonical_trace
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from tests.conftest import (
    WORKER_TRANSPORTS as TRANSPORTS,
    own_shm_segments,
    serve_on_workers,
)

NET = NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(4, 1, input_hw=32, in_channels=3, base_channels=8)


@pytest.fixture
def weights(model):
    return init_weights(model, seed=5)


def make_inputs(model, n, seed=9):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(n)
    ]


def per_frame_stage(events):
    """Canonical trace in (frame, stage) order.  With frames in flight
    the stage threads interleave their emissions; within one (frame,
    stage) a single thread emits, so a stable sort is deterministic."""
    return sorted(canonical_trace(events), key=lambda c: (c[0], c[1]))


@pytest.mark.parametrize("crash", [False, True], ids=["healthy", "crash"])
@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_pipeline_and_server_agree(model, weights, transport, crash):
    """Same model, plan and frames walked one at a time through a
    ``PipelineSession`` and pipelined through the server: bit-equal
    outputs, equal canonical traces, and a crash recovered alike."""
    cluster = heterogeneous_cluster([1200, 1000, 800, 600])
    plan = EarlyFusedScheme(n_fused=4).plan(model, cluster, NET)
    xs = make_inputs(model, 5)
    # A stage-0 worker that is not reused by the serial tail dies on
    # its second task.
    victim = plan.stages[0].assignments[1][0].name
    faults = FaultSchedule().crash(victim, at_frame=1) if crash else None
    config = RuntimeConfig() if crash else None

    walked = TRANSPORTS[transport](model, weights, faults=faults)
    tracer = Tracer()
    with PipelineSession.from_plan(model, plan, walked, tracer, config) as session:
        walked_outs = [session.run_frame(x) for x in xs]

    served, backend = serve_on_workers(
        model, plan, weights, xs, transport, faults=faults, config=config
    )
    assert len(served.completed) == len(xs)
    engine = Engine(model, weights)
    for i, out in enumerate(walked_outs):
        assert np.array_equal(served.outputs[i], out), f"frame {i} differs"
        assert np.array_equal(out, engine.forward_features(xs[i]))
    assert per_frame_stage(served.trace) == per_frame_stage(tracer.events)

    recovery = [e.kind for e in served.trace if e.kind in RECOVERY_KINDS]
    if crash:
        assert recovery.index("device_dead") < recovery.index("frame_replayed")
        assert walked.recoveries >= 1 and backend.recoveries >= 1
    else:
        assert not recovery


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_close_with_uncollected_frames_leaves_nothing(model, weights, transport):
    plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
    program = compile_plan(model, plan)
    backend = TRANSPORTS[transport](model, weights)
    backend.open(program)
    scheduler = StageScheduler(program, backend)
    for i, x in enumerate(make_inputs(model, 6)):
        scheduler.submit(i, x)
    workers = [h.process for h in backend.all_handles()]
    scheduler.close(timeout=10.0)
    backend.close()
    assert not [
        t for t in threading.enumerate() if t.name.startswith("stage-")
    ]
    assert not any(p.is_alive() for p in workers)
    assert not mp.active_children()
    assert not own_shm_segments()


def _stall_collect(backend):
    """Hold every ``collect`` on ``backend`` until the returned event is set."""
    gate = threading.Event()
    collect = backend.collect

    def stalled(sent):
        gate.wait(10.0)
        return collect(sent)

    backend.collect = stalled
    return gate


def test_collect_timeout_names_frame_and_stage(model, weights, monkeypatch):
    """A client wait on a stalled stage ends in a ``TimeoutError`` that
    names the frame and stage: ``collect()``, a blocked admission, and
    the final drain of ``PipelineServer.serve``."""
    monkeypatch.setattr(scheduler_module, "STALL_S", 0.3)
    plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
    program = compile_plan(model, plan)
    x = make_inputs(model, 1)[0]
    backend = TRANSPORTS["tcp"](model, weights)
    backend.open(program)
    scheduler = StageScheduler(program, backend, capacity=1)
    try:
        with pytest.raises(TimeoutError, match="being served: none"):
            scheduler.collect()
        gate = _stall_collect(backend)
        scheduler.submit(0, x)
        with pytest.raises(TimeoutError, match=r"frame 0 at stage 0"):
            scheduler.collect()
        with pytest.raises(TimeoutError, match=r"frame 0 at stage 0"):
            scheduler.submit(1, x)  # the one permit is frame 0's
        gate.set()
        assert scheduler.collect()[0] == 0  # the frame was never lost
    finally:
        scheduler.close(timeout=10.0)
        backend.close()

    backend = TRANSPORTS["tcp"](model, weights)
    with PipelineServer.from_plan(model, plan, backend) as server:
        gate = _stall_collect(backend)
        with pytest.raises(TimeoutError, match=r"frame 0 at stage 0"):
            server.serve([x])
        gate.set()
    stages = [t for t in threading.enumerate() if t.name.startswith("stage-")]
    for thread in stages:  # the failed serve let them go once unstalled
        thread.join(10.0)
    assert not any(t.is_alive() for t in stages)


def test_submit_collect_shim_as_the_benchmark_drives_it():
    """``benchmarks/e2e``'s ``toy64_tcp_evloop`` loop: tcp, traced, eight
    submits outstanding over 24 frames; every output is the local
    forward pass, and ``close()`` leaves no thread, child or ring."""
    model = toy_chain(8, 2, input_hw=64, base_channels=8)
    weights = init_weights(model, seed=1)
    plan = PicoScheme().plan(
        model, heterogeneous_cluster([1200, 1000, 800, 600]), NET
    )
    xs = make_inputs(model, 24)
    engine = Engine(model, weights)
    parallel.shutdown_pool()
    pipe = DistributedPipeline(model, plan, weights, transport="tcp", trace=True)
    pipe.start()
    index_of, outputs = {}, {}
    submitted = collected = 0
    try:
        while collected < len(xs):
            while submitted < len(xs) and submitted - collected < 8:
                index_of[pipe.submit(xs[submitted])] = submitted
                submitted += 1
            task_id, out = pipe.collect(timeout_s=60.0)
            outputs[index_of[task_id]] = out
            collected += 1
        workers = [h.process for h in pipe.transport.all_handles()]
        assert pipe.trace
    finally:
        pipe.close()
    assert sorted(outputs) == list(range(len(xs)))
    for i, x in enumerate(xs):
        assert np.array_equal(outputs[i], engine.forward_features(x))
    assert not [
        t for t in threading.enumerate() if t.name.startswith("stage-")
    ]
    assert not any(p.is_alive() for p in workers)
    assert not mp.active_children()
    assert not own_shm_segments()


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_pool_warmed_before_fork_does_not_wedge_workers(transport):
    """ROADMAP item 0: a forked worker used to inherit the parent's
    thread pool with no threads behind it and block forever on the
    first block-unit stage."""
    model = Model(
        "resblocks", (4, 24, 24),
        (basic_block("b1", 4, 8, stride=2), basic_block("b2", 8, 8)),
    )
    weights = init_weights(model, seed=2)
    plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
    xs = make_inputs(model, 2)
    # A live pool whatever the host's core count, and two threads for
    # every worker, so each worker's own pool is one too.
    width = 2 * sum(len(stage.tasks) for stage in compile_plan(model, plan).stages)
    parallel.set_threads(width)
    try:
        engine = Engine(model, weights)
        refs = [engine.forward_features(x) for x in xs]
        # Every pool thread spawned, so a child that inherits the pool
        # believes it is fully staffed.
        barrier = threading.Barrier(width)
        parallel.run_parallel([barrier.wait] * width)
        served, backend = serve_on_workers(model, plan, weights, xs, transport)
    finally:
        parallel.set_threads(None)
    assert backend.worker_threads == 2
    for out, ref in zip([served.outputs[i] for i in range(len(xs))], refs):
        np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_next_frame_is_sent_before_this_one_is_received(
    model, weights, transport, schedulers
):
    """With frames queued, a stage dispatches frame f+1 before it
    collects frame f: f+1's ``send`` starts before f's ``recv`` ends,
    and ``in_flight()`` lists both frames at the stage."""
    plan = PicoScheme().plan(model, heterogeneous_cluster([1200, 1000]), NET)
    xs = make_inputs(model, 4)
    backend = TRANSPORTS[transport](model, weights)
    seen = []
    dispatch, collect = backend.dispatch, backend.collect

    def gated_dispatch(stage_index, tiles, frame):
        if stage_index == 0 and frame == 0:
            schedulers.queued.wait(10.0)  # frames 1.. queue behind frame 0
        return dispatch(stage_index, tiles, frame)

    def watched_collect(sent):
        if sent.stage_index == 0 and sent.frame == 0:
            seen.extend(schedulers.built[-1].in_flight())
        return collect(sent)

    backend.dispatch = gated_dispatch
    backend.collect = watched_collect
    with PipelineServer.from_plan(
        model, plan, backend,
        config=ServerConfig(queue_capacity=len(xs), policy="block"),
        tracer=True,
    ) as server:
        served = server.serve(xs)
    outs, trace = served.outputs, served.trace
    ids = list(range(len(xs)))
    assert seen[:2] == [(0, (0,)), (0, (1,))]
    engine = Engine(model, weights)
    for i, x in zip(ids, xs):
        assert np.array_equal(outs[i], engine.forward_features(x))
    for stage in range(plan.n_stages):
        starts = {
            f: min(e.start for e in trace
                   if (e.kind, e.frame, e.stage) == ("send", f, stage))
            for f in ids
        }
        ends = {
            f: max(e.end for e in trace
                   if (e.kind, e.frame, e.stage) == ("recv", f, stage))
            for f in ids
        }
        if stage == 0:  # the frames were queued: each went out ahead
            assert all(starts[f + 1] < ends[f] for f in ids[:-1])
        assert all(starts[f] < ends[f] for f in ids)
