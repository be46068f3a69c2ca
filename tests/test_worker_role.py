"""Workers get their role through the fork, and nothing else.

``TcpTransport`` (and so ``ShmTransport``) forks each worker with its
model, tile program, the transport's own weight dict and its compute
width as process arguments: ``open()`` ships no weights, the workers
compute on the coordinator's pages, and a survivor of a repartition
already holds every layer it may be given.  Outputs stay bit-equal to
the in-process ``Engine``.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.cluster.device import heterogeneous_cluster
from repro.core.plan import PipelinePlan, StagePlan
from repro.cost.comm import NetworkModel
from repro.models.graph import BlockUnit
from repro.models.zoo import get_model
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.partition.branches import assign_paths_lpt, path_flops
from repro.partition.regions import Region
from repro.runtime import transport as wire
from repro.runtime.faults import RuntimeConfig
from repro.runtime.program import compile_plan
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from tests.conftest import WORKER_TRANSPORTS

HETERO4 = heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0])


def _inputs(model, n, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(model.input_shape).astype(np.float32) for _ in range(n)]


def _assert_bit_equal(engine, xs, outputs):
    assert sorted(outputs) == list(range(len(xs)))
    for i, x in enumerate(xs):
        assert np.array_equal(outputs[i], engine.forward_features(x)), i


def _server(transport, program, frames):
    return PipelineServer(
        program, transport,
        ServerConfig(queue_capacity=frames, policy="block"),
        runtime_config=RuntimeConfig(),
    )


@pytest.fixture(scope="module")
def resnet34():
    model = get_model("resnet34", input_hw=64)
    return model, init_weights(model, 0)


@pytest.mark.parametrize("name", ["tcp", "shm"])
def test_open_ships_no_weights(resnet34, monkeypatch, name):
    """``open()`` on resnet34@64 (83 MB of weights, four workers) writes
    under 64 KiB to the worker channels: the handshake and, on shm, the
    ring names.  The workers then compute bit-equal to the engine."""
    model, weights = resnet34
    program = compile_plan(
        model, PicoScheme().plan(model, HETERO4, NetworkModel.from_mbps(50.0))
    )
    written = []
    send_parts = wire.send_parts

    def counting(sock, parts, total):
        written.append(total)
        send_parts(sock, parts, total)

    monkeypatch.setattr(wire, "send_parts", counting)
    transport = WORKER_TRANSPORTS[name](model, weights)
    server = _server(transport, program, 2)  # opens the transport
    try:
        assert sum(written) < 64 << 10, sum(written)
        xs = _inputs(model, 2)
        _assert_bit_equal(Engine(model, weights), xs, server.serve(xs).outputs)
    finally:
        server.close()


def _branch_plan(model, cluster):
    """Inception_v3's first block as a branch-parallel stage over two
    devices, between one-device stages."""
    block = next(i for i, u in enumerate(model.units) if isinstance(u, BlockUnit))
    devices = cluster.devices

    def full(unit):
        _, h, w = model.out_shape(unit)
        return Region.full(h, w)

    groups = assign_paths_lpt(
        path_flops(model, block), [devices[1].capacity, devices[2].capacity]
    )
    return PipelinePlan(model.name, (
        StagePlan(0, block, ((devices[0], full(block - 1)),)),
        StagePlan(
            block, block + 1,
            ((devices[1], full(block)), (devices[2], full(block))),
            path_groups=groups,
        ),
        StagePlan(block + 1, model.n_units, ((devices[3], full(model.n_units - 1)),)),
    ))


@pytest.fixture(scope="module")
def inception():
    model = get_model("inception_v3", input_hw=96)
    return model, init_weights(model, 0), _branch_plan(model, HETERO4)


@pytest.mark.parametrize("name", ["tcp", "shm"])
def test_branch_stage_survivor_runs_paths_it_never_held(inception, name):
    """Two workers split an inception block's paths; one is SIGKILLed
    between calls.  The survivor is given the whole block — layers it
    never ran — and every output of both calls is bit-equal to the
    engine's."""
    model, weights, plan = inception
    program = compile_plan(model, plan)
    engine = Engine(model, weights)
    transport = WORKER_TRANSPORTS[name](model, weights)
    server = _server(transport, program, 2)
    try:
        xs = _inputs(model, 4)
        _assert_bit_equal(engine, xs[:2], server.serve(xs[:2]).outputs)
        victim, survivor = transport.alive_handles(1)
        held = set(survivor.task.paths)
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join()
        _assert_bit_equal(engine, xs[2:], server.serve(xs[2:]).outputs)
        assert transport.recoveries == 1
        assert transport.alive_handles(1) == [survivor]
        gained = set(survivor.task.paths) - held
        assert gained and set(survivor.task.paths) == set(
            range(len(model.units[plan.stages[1].start].paths))
        )
    finally:
        server.close()
