"""Worker processes compute on their share of the deployment's threads.

The transport that launches the workers decides one width for all of
them, ``max(1, threads // workers)`` of the coordinator's
``repro.nn.parallel`` width, hands it to each worker with its role
at the fork, and every worker sizes its pool to it before it builds
its engine.  The handshake that follows rejects any greeting but a
``Hello`` from a worker it launched, once.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.nn import parallel
from repro.runtime import coordinator, worker
from repro.runtime.coordinator import ShmTransport, TcpTransport
from repro.runtime.messages import Hello, Shutdown
from repro.runtime.program import compile_plan, split_stage, stitch_stage
from repro.runtime.transport import Channel
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.pico import PicoScheme

NET = NetworkModel.from_mbps(50.0)


def _program(model, n_devices: int, scheme):
    cluster = heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0][:n_devices])
    return compile_plan(model, scheme.plan(model, cluster, NET))


def _four_workers(model):
    """EFL over three devices: a three-way split stage, then one device."""
    program = _program(model, 3, EarlyFusedScheme())
    assert [len(stage.tasks) for stage in program.stages] == [3, 1]
    return program


_run_segment = worker.run_segment


def _width_probe(engine, program, tile):
    """``run_segment`` whose output tile reports the worker's width."""
    out = _run_segment(engine, program, tile)
    out[...] = parallel.configured_threads()
    return out


def _widths_seen(transport, program, model) -> set:
    """One frame through every stage; the widths its workers reported."""
    x = np.zeros(model.input_shape, dtype=np.float32)
    seen = set()
    for stage in program.stages:
        outs, _ = transport.run_tasks(stage.index, split_stage(stage.tasks, x), 0)
        seen |= {float(v) for out in outs for v in np.unique(out)}
        x = stitch_stage(stage, stage.tasks, outs)
    return seen


@pytest.mark.parametrize("transport_class", [TcpTransport, ShmTransport], ids=["tcp", "shm"])
@pytest.mark.parametrize(
    "threads, share", [(1, 1), (2, 1), (8, 2)], ids=["w1", "w2", "w8"]
)
def test_workers_compute_on_their_share(
    small_model, monkeypatch, transport_class, threads, share
):
    """Four workers at coordinator widths 1, 2 and 8 each get
    ``max(1, width // 4)`` and compute on it."""
    program = _four_workers(small_model)
    monkeypatch.setattr(worker, "run_segment", _width_probe)  # forked along
    parallel.set_threads(threads)
    transport = transport_class(small_model)
    try:
        transport.open(program)
        assert transport.worker_threads == share
        assert _widths_seen(transport, program, small_model) == {share}
    finally:
        transport.close()
        parallel.set_threads(None)


def test_one_worker_gets_the_whole_width(small_model, monkeypatch):
    program = _program(small_model, 1, PicoScheme())
    assert sum(len(stage.tasks) for stage in program.stages) == 1
    monkeypatch.setattr(worker, "run_segment", _width_probe)
    parallel.set_threads(3)
    transport = TcpTransport(small_model)
    try:
        transport.open(program)
        assert transport.worker_threads == 3
        assert _widths_seen(transport, program, small_model) == {3}
    finally:
        transport.close()
        parallel.set_threads(None)


def _greeter(greeting):
    """A stand-in for ``worker_main`` that greets with ``greeting(id)``."""

    def greet(host, port, worker_id, model, program, weights, threads,
              device="", faults=None):
        channel = Channel(socket.create_connection((host, port)))
        try:
            channel.send(greeting(worker_id))
        finally:
            channel.close()

    return greet


@pytest.mark.parametrize(
    "greeting, error",
    [
        (lambda i: Shutdown(), "expected a Hello, got Shutdown"),
        (lambda i: Hello(i + 100), "unknown worker id 10[0-3]"),
        (lambda i: Hello(0), "duplicate worker id 0"),
    ],
    ids=["not-hello", "unknown-id", "duplicate-id"],
)
def test_handshake_rejects_a_wrong_greeting(small_model, monkeypatch, greeting, error):
    """The listener accepts any local connection: a greeting that is not
    a ``Hello`` from a launched worker, or one seen twice, fails
    ``open`` by name (not by an assertion ``python -O`` strips), and the
    partial spawn is torn down."""
    monkeypatch.setattr(coordinator, "worker_main", _greeter(greeting))
    transport = TcpTransport(small_model)
    with pytest.raises(RuntimeError, match=f"worker handshake: {error}"):
        transport.open(_four_workers(small_model))
    assert not any(h.process.is_alive() for h in transport.all_handles())
