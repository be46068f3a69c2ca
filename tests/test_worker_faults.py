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
from repro.runtime.coordinator import (
    DistributedPipeline,
    ShmTransport,
    TcpTransport,
    _WorkerHandle,
)
from repro.runtime.faults import DeviceDead, FaultSchedule, RuntimeConfig
from repro.runtime.program import compile_plan
from repro.runtime.trace import RECOVERY_KINDS
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.layer_wise import LayerWiseScheme
from repro.schemes.pico import PicoScheme

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


def test_reset_on_recv_is_device_dead(small_model, hetero4):
    """A worker that dies with unread bytes makes the kernel send RST:
    the reset must enter the ladder as ``DeviceDead``, not escape it."""
    plan = PicoScheme().plan(small_model, hetero4, NET)
    task = compile_plan(small_model, plan).stages[0].tasks[0]
    transport = TcpTransport(small_model)
    transport._epochs = [0]
    transport.bind_stage(0, [_WorkerHandle(0, None, task, 0, _ResetChannel())])
    tile = np.zeros((3, 4, 4), dtype=np.float32)
    with pytest.raises(DeviceDead) as err:
        transport.run_tasks(0, [tile], 0)
    assert err.value.device == task.device_name


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
    with DistributedPipeline(
        small_model, plan, weights=weights, transport=transport,
        config=RuntimeConfig(), trace=True,
        faults=FaultSchedule().crash(victim, at_frame=1),
    ) as pipe:
        outs, _ = pipe.run_batch(xs)
        holders = {
            h.task.device_name
            for i in range(plan.n_stages)
            for h in pipe.transport.alive_handles(i)
        }
        trace = pipe.trace
    _assert_close(small_model, weights, xs, outs)
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
    """Run frame 0, send ``sig`` to the workers of a stage-0 device the
    serial tail does not reuse, then run frames 1-2."""
    plan = EarlyFusedScheme(n_fused=4).plan(model, hetero4, NET)
    victim = plan.stages[0].assignments[1][0].name
    xs = _inputs(model, 3)
    pipe = DistributedPipeline(
        model, plan, weights=weights, transport=transport,
        config=config, trace=True,
    ).start()
    try:
        outs, _ = pipe.run_batch(xs[:1])
        victims = [
            h.process for h in pipe.transport.all_handles()
            if h.task.device_name == victim
        ]
        for process in victims:
            os.kill(process.pid, sig)
        more, _ = pipe.run_batch(xs[1:])
    finally:
        pipe.close()
    return victim, victims, xs, outs + more, pipe.trace


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
        ("device_dead", 1, victim), ("frame_replayed", 1, victim),
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
        ("device_dead", 1, victim), ("frame_replayed", 1, victim),
    ]


def test_scheduled_delay_stretches_the_worker_compute(
    small_model, weights, hetero4
):
    plan = PicoScheme().plan(small_model, hetero4, NET)
    slow = plan.stages[0].assignments[0][0].name
    with DistributedPipeline(
        small_model, plan, weights=weights, trace=True,
        faults=FaultSchedule().delay(slow, frame=1, seconds=0.3),
    ) as pipe:
        pipe.run_batch(_inputs(small_model, 2))
        trace = pipe.trace
    spans = {
        e.frame: e.end - e.start
        for e in trace
        if e.kind == "compute" and e.device == slow and e.stage == 0
    }
    assert spans[1] >= 0.3 > spans[0]
