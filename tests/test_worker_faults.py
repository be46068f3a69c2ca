"""One failure model on the worker-process transports.

A dead device is a name in the transport's one dead set, whoever found
it: the channel (EOF, reset or receive deadline on a socket), a
``FaultSchedule`` the workers act out, or another tenant through
``share_dead``.  Every role the device held leaves with it, exactly one
``device_dead`` is emitted, and ``close()`` leaves no child behind —
wedged ones included.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading

import numpy as np
import pytest

from repro.cluster.device import pi_cluster
from repro.cost.comm import NetworkModel
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.coordinator import ShmTransport, TcpTransport, _WorkerHandle
from repro.runtime.faults import DeviceDead, FaultSchedule, RuntimeConfig
from repro.runtime.messages import TileResult, WorkerError
from repro.runtime.program import compile_plan
from repro.runtime.trace import RECOVERY_KINDS
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.layer_wise import LayerWiseScheme
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from tests.conftest import own_shm_segments, serve_on_workers

NET = NetworkModel.from_mbps(50.0)
TRANSPORTS = {"tcp": TcpTransport, "shm": ShmTransport}


@pytest.fixture
def weights(small_model):
    return init_weights(small_model, seed=5)


def _inputs(model, n, seed=9):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(n)
    ]


def _assert_close(model, weights, xs, outs):
    engine = Engine(model, weights)
    for x, out in zip(xs, outs):
        np.testing.assert_allclose(
            out, engine.forward_features(x), atol=1e-4, rtol=1e-4
        )


def _recovery(trace):
    return [
        (e.kind, e.frame, e.device) for e in trace if e.kind in RECOVERY_KINDS
    ]


class _ResetChannel:
    """A worker channel whose peer reset the connection."""

    def send(self, message) -> None:
        pass

    def recv(self):
        raise ConnectionResetError(104, "Connection reset by peer")


def _handle(worker_id, task, channel):
    """A stage-0 worker handle already bound to ``channel``."""
    handle = _WorkerHandle(worker_id, None, task, 0)
    handle.channel = channel
    return handle


def test_reset_on_recv_is_device_dead(small_model, hetero4):
    """A worker that dies with unread bytes makes the kernel send RST:
    the reset must enter the ladder as ``DeviceDead``, not escape it."""
    plan = PicoScheme().plan(small_model, hetero4, NET)
    task = compile_plan(small_model, plan).stages[0].tasks[0]
    transport = TcpTransport(small_model)
    transport._epochs = [0]
    transport.bind_stage(0, [_handle(0, task, _ResetChannel())])
    tile = np.zeros((3, 4, 4), dtype=np.float32)
    with pytest.raises(DeviceDead) as err:
        transport.run_tasks(0, [tile], 0)
    assert err.value.device == task.device_name


class _ScriptedChannel:
    """A worker channel that replies from a script, whatever was sent."""

    def __init__(self, replies) -> None:
        self.replies = list(replies)
        self.sent = []

    def send(self, message) -> None:
        self.sent.append(message)

    def recv(self):
        return self.replies.pop(0)


def _scripted_transport(small_model, hetero4, scripts, epoch=0):
    """A one-stage tcp transport whose workers are ``scripts``."""
    plan = PicoScheme().plan(small_model, hetero4, NET)
    task = compile_plan(small_model, plan).stages[0].tasks[0]
    transport = TcpTransport(small_model)
    transport._epochs = [epoch]
    channels = [_ScriptedChannel(script) for script in scripts]
    transport.bind_stage(0, [_handle(i, task, c) for i, c in enumerate(channels)])
    return transport, channels


def _tile(value: float) -> np.ndarray:
    return np.full((2, 2, 2), value, dtype=np.float32)


def test_stale_epoch_result_is_skipped(small_model, hetero4):
    """A reply from before a repartition is read past, never returned
    as the frame's result."""
    transport, _ = _scripted_transport(small_model, hetero4, [[
        TileResult(0, 0, _tile(1.0), 0.0, epoch=0),
        TileResult(0, 0, _tile(2.0), 0.0, epoch=1),
    ]], epoch=1)
    outs, _ = transport.collect(transport.dispatch(0, [_tile(0.0)], 0))
    assert np.array_equal(outs[0], _tile(2.0))


def test_result_of_the_frame_ahead_is_rejected(small_model, hetero4):
    """Frame 1's reply while frame 0 is collected is a protocol error:
    results are matched by (task id, epoch), never by arrival order."""
    transport, _ = _scripted_transport(small_model, hetero4, [[
        TileResult(1, 0, _tile(1.0), 0.0, epoch=0),
    ]])
    first = transport.dispatch(0, [_tile(0.0)], 0)
    transport.dispatch(0, [_tile(0.0)], 1)
    with pytest.raises(RuntimeError, match="returned frame 1 .* while frame 0"):
        transport.collect(first)


def test_worker_error_fails_its_frame_alone(small_model, hetero4):
    """A WorkerError on frame 0 fails frame 0 after the other worker's
    frame-0 result is read, so frame 1 — dispatched ahead — still
    collects its own results on both channels."""
    transport, channels = _scripted_transport(small_model, hetero4, [
        [WorkerError(0, 0, "boom"), TileResult(1, 0, _tile(1.0), 0.0)],
        [TileResult(0, 1, _tile(5.0), 0.0), TileResult(1, 1, _tile(6.0), 0.0)],
    ])
    tiles = [_tile(0.0), _tile(0.0)]
    first = transport.dispatch(0, tiles, 0)
    ahead = transport.dispatch(0, tiles, 1)
    assert [m.task_id for m in channels[0].sent] == [0, 1]
    with pytest.raises(RuntimeError, match="worker 0 failed task 0: boom"):
        transport.collect(first)
    outs, _ = transport.collect(ahead)
    assert np.array_equal(outs[0], _tile(1.0))
    assert np.array_equal(outs[1], _tile(6.0))


@pytest.mark.parametrize(
    "faults",
    [FaultSchedule().drop("pi0", frame=0), FaultSchedule().flaky_link("pi0", 0)],
    ids=["drop", "flaky_link"],
)
def test_worker_transports_reject_retry_faults(small_model, faults):
    for cls in TRANSPORTS.values():
        with pytest.raises(ValueError, match="crashes and delays only"):
            cls(small_model, faults=faults)


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_shared_dead_set_reaches_the_other_tenant(
    small_model, weights, transport
):
    """Two tenants on one fleet-wide dead set: a death one records makes
    every stage of the other that holds the device repartition."""
    cluster = pi_cluster(2, 1000)
    program = compile_plan(
        small_model, EarlyFusedScheme(n_fused=4).plan(small_model, cluster, NET)
    )
    victim = program.stages[0].tasks[1].device_name
    dead, lock = set(), threading.Lock()
    tenants = [TRANSPORTS[transport](small_model, weights) for _ in range(2)]
    try:
        for tenant in tenants:
            tenant.share_dead(dead, lock)
            tenant.open(program)
        first, second = tenants
        assert not any(
            second.needs_repartition(i) for i in range(program.n_stages)
        )
        assert first.mark_dead(victim)
        for i, stage in enumerate(program.stages):
            holds = victim in {t.device_name for t in stage.tasks}
            assert second.needs_repartition(i) == holds
        assert second.dead_devices() == {victim}
    finally:
        for tenant in tenants:
            tenant.close()


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_victim_in_every_stage_dies_once(small_model, weights, transport):
    """One device serving every stage crashes: one ``device_dead``, and
    no stage sends it a tile from the crash frame on."""
    cluster = pi_cluster(2, 1000)
    plan = LayerWiseScheme().plan(small_model, cluster, NET)
    victim = cluster.devices[1].name
    assert all(
        victim in {d.name for d, _ in stage.assignments} for stage in plan.stages
    ) and plan.n_stages >= 2
    xs = _inputs(small_model, 3)
    served, backend = serve_on_workers(
        small_model, plan, weights, xs, transport, config=RuntimeConfig(),
        faults=FaultSchedule().crash(victim, at_frame=1),
    )
    holders = {
        h.task.device_name
        for i in range(plan.n_stages)
        for h in backend.alive_handles(i)
    }
    trace = served.trace
    _assert_close(small_model, weights, xs, [served.outputs[i] for i in range(3)])
    recovery = _recovery(trace)
    assert recovery[0] == ("device_dead", 1, victim)
    assert [kind for kind, _, _ in recovery].count("device_dead") == 1
    assert ("frame_replayed", 1, victim) in recovery
    assert victim not in holders
    assert not [
        e for e in trace
        if e.device == victim and e.frame >= 1 and e.kind not in RECOVERY_KINDS
    ]


def _kill_between_frames(model, weights, hetero4, transport, sig, config):
    """Serve frame 0, send ``sig`` to the workers of a stage-0 device the
    serial tail does not reuse, then serve frames 1-2 on the same
    workers (a second ``serve``, which numbers them 0-1)."""
    plan = EarlyFusedScheme(n_fused=4).plan(model, hetero4, NET)
    victim = plan.stages[0].assignments[1][0].name
    xs = _inputs(model, 3)
    backend = TRANSPORTS[transport](model, weights)
    with PipelineServer.from_plan(
        model, plan, backend, tracer=True, runtime_config=config,
        config=ServerConfig(queue_capacity=2, policy="block"),
    ) as server:
        first = server.serve(xs[:1])
        victims = [
            h.process for h in backend.all_handles()
            if h.task.device_name == victim
        ]
        for process in victims:
            os.kill(process.pid, sig)
        more = server.serve(xs[1:])
    outs = [first.outputs[0], more.outputs[0], more.outputs[1]]
    _assert_second_call_trace(plan, victim, more.trace)
    return victim, victims, xs, outs, more.trace


def _assert_second_call_trace(plan, victim, trace):
    """The second ``serve``'s trace is that call's alone: the death,
    the replay, then frames 0-1 on the survivors of every stage."""
    want = [("device_dead", 0, 0, victim), ("frame_replayed", 0, 0, victim)]
    for frame in (0, 1):
        for stage_index, stage in enumerate(plan.stages):
            want.append(("enqueue", frame, stage_index, ""))
            for device, _ in stage.assignments:
                if device.name != victim:
                    want += [
                        (kind, frame, stage_index, device.name)
                        for kind in ("send", "compute", "recv")
                    ]
    got = [(e.kind, e.frame, e.stage, e.device) for e in trace]
    assert got[:2] == want[:2]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_idle_worker_killed_between_frames(
    small_model, weights, hetero4, transport
):
    """A worker SIGKILLed while idle is found by the next frame's own
    channel use: one ``device_dead``, then ``frame_replayed``."""
    victim, victims, xs, outs, trace = _kill_between_frames(
        small_model, weights, hetero4, transport, signal.SIGKILL,
        RuntimeConfig(),
    )
    _assert_close(small_model, weights, xs, outs)
    assert _recovery(trace) == [
        ("device_dead", 0, victim), ("frame_replayed", 0, victim),
    ]
    assert not any(p.is_alive() for p in victims)


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_wedged_worker_is_declared_dead_and_killed(
    small_model, weights, hetero4, transport
):
    """A SIGSTOPped worker is alive but silent: the receive deadline
    declares its device dead, the frame replays on the survivors, and
    ``close()`` kills the stopped child instead of leaving it behind."""
    victim, victims, xs, outs, trace = _kill_between_frames(
        small_model, weights, hetero4, transport, signal.SIGSTOP,
        RuntimeConfig(recv_timeout_s=0.5),
    )
    leaked = [p for p in victims if p.is_alive()]
    for process in leaked:  # never leave a stopped child past the test
        os.kill(process.pid, signal.SIGKILL)
        process.join()
    assert not leaked and not mp.active_children()
    _assert_close(small_model, weights, xs, outs)
    assert _recovery(trace) == [
        ("device_dead", 0, victim), ("frame_replayed", 0, victim),
    ]


def test_scheduled_delay_stretches_the_worker_compute(
    small_model, weights, hetero4
):
    plan = PicoScheme().plan(small_model, hetero4, NET)
    slow = plan.stages[0].assignments[0][0].name
    served, _ = serve_on_workers(
        small_model, plan, weights, _inputs(small_model, 2),
        faults=FaultSchedule().delay(slow, frame=1, seconds=0.3),
    )
    trace = served.trace
    spans = {
        e.frame: e.end - e.start
        for e in trace
        if e.kind == "compute" and e.device == slow and e.stage == 0
    }
    assert spans[1] >= 0.3 > spans[0]


@pytest.mark.parametrize("sig", ["SIGKILL", "SIGSTOP"])
@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_worker_lost_with_a_frame_dispatched_ahead(
    small_model, weights, hetero4, transport, sig, schedulers
):
    """A stage-0 worker is SIGKILLed or SIGSTOPped while stage 0
    collects frame 1 with frame 2 already dispatched ahead to it.
    Whichever frame finds the death replays on the survivors, the
    frame ahead is re-sent to them; every frame ends once, equal to
    the oracle, and nothing is left behind."""
    plan = EarlyFusedScheme(n_fused=4).plan(small_model, hetero4, NET)
    victim = plan.stages[0].assignments[1][0].name
    xs = _inputs(small_model, 5)
    config = RuntimeConfig(recv_timeout_s=0.5 if sig == "SIGSTOP" else None)
    backend = TRANSPORTS[transport](small_model, weights)
    server = PipelineServer.from_plan(
        small_model, plan, backend, tracer=True, runtime_config=config,
        config=ServerConfig(queue_capacity=len(xs), policy="block"),
    )
    victims = [
        h.process for h in backend.all_handles()
        if h.task.device_name == victim
    ]
    held = []
    dispatch, collect = backend.dispatch, backend.collect

    def gated_dispatch(stage_index, tiles, frame):
        if stage_index == 0 and frame == 0:
            schedulers.queued.wait(10.0)  # every frame queued before frame 0 leaves
        return dispatch(stage_index, tiles, frame)

    def killing_collect(sent):
        if sent.stage_index == 0 and sent.frame == 1 and not held:
            held.extend(schedulers.built[-1].in_flight())
            for process in victims:
                os.kill(process.pid, getattr(signal, sig))
        return collect(sent)

    backend.dispatch = gated_dispatch
    backend.collect = killing_collect
    try:
        served = server.serve(xs)
        assert schedulers.built[-1].results.empty()
    finally:
        server.close()
    got, trace = served.outputs, served.trace
    ids = list(range(len(xs)))
    leaked = [p for p in victims if p.is_alive()]
    for process in leaked:  # never leave a stopped child past the test
        os.kill(process.pid, signal.SIGKILL)
        process.join()
    assert (0, (1,)) in held and (0, (2,)) in held, held
    assert sorted(got) == ids
    _assert_close(small_model, weights, xs, [got[i] for i in ids])
    recovery = _recovery(trace)
    assert [kind for kind, _, _ in recovery].count("device_dead") == 1
    assert ("device_dead", recovery[0][1], victim) == recovery[0]
    assert ("frame_replayed", recovery[0][1], victim) in recovery
    assert not leaked and not mp.active_children()
    assert not own_shm_segments()
