"""The one wall-clock scheduler and its two clients.

``DistributedPipeline`` and ``PipelineServer`` both ride
``StageScheduler``; these tests pin what the merge promised: the two
front ends agree bit for bit (with and without a worker crash),
``collect()`` always ends in a named error rather than a bare
``queue.Empty``, ``close()`` leaves nothing behind, and a thread pool
warmed before the fork cannot wedge a worker.
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
from repro.runtime.coordinator import (
    DistributedPipeline,
    ShmTransport,
    TcpTransport,
)
from repro.runtime.faults import (
    DeviceDead,
    FaultSchedule,
    RuntimeConfig,
    StageFailure,
)
from repro.runtime.program import compile_plan
from repro.runtime.trace import RECOVERY_KINDS, canonical_trace
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from tests.conftest import own_shm_segments

NET = NetworkModel.from_mbps(50.0)
TRANSPORTS = {"tcp": TcpTransport, "shm": ShmTransport}


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
    """Same model, plan and frames through both clients of the
    scheduler: bit-equal outputs, equal canonical traces."""
    cluster = heterogeneous_cluster([1200, 1000, 800, 600])
    plan = EarlyFusedScheme(n_fused=4).plan(model, cluster, NET)
    xs = make_inputs(model, 5)
    # A stage-0 worker that is not reused by the serial tail dies on
    # its second task.
    victim = plan.stages[0].assignments[1][0].name
    faults = FaultSchedule().crash(victim, at_frame=1) if crash else None
    config = RuntimeConfig() if crash else None

    with DistributedPipeline(
        model, plan, weights=weights, transport=transport,
        faults=faults, config=config, trace=True,
    ) as pipe:
        pipe_outs, pipe_stats = pipe.run_batch(xs)
        pipe_trace = pipe.trace

    backend = TRANSPORTS[transport](model, weights, faults=faults)
    with PipelineServer.from_plan(
        model, plan, backend,
        config=ServerConfig(queue_capacity=4, policy="block"),
        tracer=True, runtime_config=config,
    ) as server:
        served = server.serve(xs)
    assert len(served.completed) == len(xs)

    engine = Engine(model, weights)
    for i, out in enumerate(pipe_outs):
        want = served.outputs[i]
        if model.head:
            want = engine.run_head(want)
        assert np.array_equal(out, want), f"frame {i} differs"
    assert per_frame_stage(pipe_trace) == per_frame_stage(served.trace)

    recovery = [e.kind for e in pipe_trace if e.kind in RECOVERY_KINDS]
    if crash:
        assert recovery.index("device_dead") < recovery.index("frame_replayed")
        assert pipe_stats.recoveries >= 1
        assert backend.stats.recoveries >= 1
    else:
        assert not recovery


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_close_with_uncollected_frames_leaves_nothing(model, weights, transport):
    plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
    pipe = DistributedPipeline(
        model, plan, weights=weights, transport=transport
    ).start()
    for x in make_inputs(model, 6):
        pipe.submit(x)
    workers = [h.process for h in pipe.transport.all_handles()]
    pipe.close()
    assert not [
        t for t in threading.enumerate() if t.name.startswith("stage-")
    ]
    assert not any(p.is_alive() for p in workers)
    assert not mp.active_children()
    assert not own_shm_segments()


def test_collect_reraises_stage_error_and_stays_failed(model, weights):
    cluster = heterogeneous_cluster([1200, 1000, 800, 600])
    plan = EarlyFusedScheme(n_fused=4).plan(model, cluster, NET)
    victim = plan.stages[0].assignments[1][0].name
    with DistributedPipeline(
        model, plan, weights=weights,
        faults=FaultSchedule().crash(victim, at_frame=1),
    ) as pipe:
        for x in make_inputs(model, 3):
            pipe.submit(x)
        pipe.collect()  # frame 0 finished before the worker died
        with pytest.raises((StageFailure, DeviceDead)) as first:
            pipe.collect()
        with pytest.raises((StageFailure, DeviceDead)) as again:
            pipe.collect()
        assert again.value is first.value


def test_collect_timeout_names_frame_and_stage(model, weights):
    plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
    with DistributedPipeline(model, plan, weights=weights) as pipe:
        with pytest.raises(TimeoutError, match="being served: none"):
            pipe.collect(timeout_s=0.05)
        gate = threading.Event()
        collect = pipe.transport.collect

        def stalled(handle):
            gate.wait()
            return collect(handle)

        pipe.transport.collect = stalled
        task_id = pipe.submit(make_inputs(model, 1)[0])
        with pytest.raises(TimeoutError, match=r"frame 0 at stage 0"):
            pipe.collect(timeout_s=0.3)
        gate.set()
        assert pipe.collect()[0] == task_id  # the frame was never lost


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
        with DistributedPipeline(
            model, plan, weights=weights, transport=transport
        ) as pipe:
            assert pipe.transport.worker_threads == 2
            outs, _ = pipe.run_batch(xs, timeout_s=30.0)
    finally:
        parallel.set_threads(None)
    for out, ref in zip(outs, refs):
        np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_next_frame_is_sent_before_this_one_is_received(
    model, weights, transport
):
    """With frames queued, a stage dispatches frame f+1 before it
    collects frame f: f+1's ``send`` starts before f's ``recv`` ends,
    and ``in_flight()`` lists both frames at the stage."""
    plan = PicoScheme().plan(model, heterogeneous_cluster([1200, 1000]), NET)
    xs = make_inputs(model, 4)
    with DistributedPipeline(
        model, plan, weights=weights, transport=transport, trace=True
    ) as pipe:
        submitted, seen = threading.Event(), []
        dispatch, collect = pipe.transport.dispatch, pipe.transport.collect

        def gated_dispatch(stage_index, tiles, frame):
            if stage_index == 0 and frame == 0:
                submitted.wait(10.0)  # frames 1.. queue behind frame 0
            return dispatch(stage_index, tiles, frame)

        def watched_collect(sent):
            if sent.stage_index == 0 and sent.frame == 0:
                seen.extend(pipe._scheduler.in_flight())
            return collect(sent)

        pipe.transport.dispatch = gated_dispatch
        pipe.transport.collect = watched_collect
        ids = [pipe.submit(x) for x in xs]
        submitted.set()
        outs = dict(pipe.collect() for _ in ids)
        trace = pipe.trace
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
