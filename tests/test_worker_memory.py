"""A worker is resident only in the layers its program runs.

Every weight matrix lives in a shared anonymous mapping
(:mod:`repro.nn.weights`), so ``fork`` copies no page-table entry of
the model into a worker: right after ``open()`` a worker's shared
resident set (``RssShmem``) is empty, and after frames it holds its
program's layers once each, within 1 MiB — batch norm is folded at the
build, so no worker keeps a second copy of a layer — and at least the
weights above the shared-mapping floor, which shows they are shared.
The coordinator's shared resident set grows by the backbone's mapped
weights and no more: the dense head is drawn at its first read, and
serving never reads it.  Read from
``/proc`` on tcp, for resnet34@64 (batch norm folds) and vgg16@64 (no
batch norm, a large last stage, a 112 MiB head); outputs stay bit-equal
to the in-process ``Engine``.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.models.layers import ConvSpec
from repro.models.zoo import get_model
from repro.nn import parallel
from repro.nn import weights as weights_module
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.coordinator import TcpTransport
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from repro.testing.memory import (
    process_memory,
    program_layers,
    program_param_bytes,
)

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/smaps_rollup"), reason="needs Linux /proc"
)

MIB = 1 << 20
FRAMES = 4


def _shared_bytes(weights, layers) -> int:
    """The bytes of the named layers' weights that are large enough for
    a shared mapping, each layer once."""
    sizes = (weights[name]["weight"].nbytes for name in set(layers))
    return sum(n for n in sizes if n >= weights_module._SHARED_MIN_BYTES)


def _coordinator_shmem() -> float:
    return process_memory(os.getpid())["shmem_mb"] * MIB


@pytest.mark.parametrize("name, mbps", [("resnet34", 50.0), ("vgg16", 1000.0)])
def test_workers_hold_only_their_layers(name, mbps):
    model = get_model(name, input_hw=64)
    gc.collect()  # no earlier test's mapping is freed while this one reads
    shmem_before = _coordinator_shmem()
    weights = init_weights(model, 0)
    plan = PicoScheme().plan(
        model, heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0]),
        NetworkModel.from_mbps(mbps),
    )
    rng = np.random.default_rng(5)
    xs = [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(FRAMES)
    ]
    engine = Engine(model, weights)
    want = [engine.forward_features(x) for x in xs]
    parallel.shutdown_pool()  # no live pool in the parent of forked workers
    transport = TcpTransport(model, weights)
    with PipelineServer.from_plan(
        model, plan, transport,
        config=ServerConfig(queue_capacity=FRAMES, policy="block"),
    ) as server:
        handles = transport.all_handles()
        assert len(handles) > 1
        for h in handles:
            held = process_memory(h.process.pid)["shmem_mb"] * MIB
            assert held < MIB, (h.stage_index, h.task.device_name, held)
        served = server.serve(xs)
        for h in handles:
            held = process_memory(h.process.pid)["shmem_mb"] * MIB
            bound = program_param_bytes(weights, h.task.program) + MIB
            floor = _shared_bytes(weights, program_layers(h.task.program)) - MIB
            assert floor <= held <= bound, (
                h.stage_index, h.task.device_name, floor, held, bound
            )
        coordinator = _coordinator_shmem() - shmem_before
        backbone = _shared_bytes(weights, (
            info.layer.name for info in model.iter_layers()
            if isinstance(info.layer, ConvSpec)
        ))
        assert abs(coordinator - backbone) <= MIB, (coordinator, backbone)
    assert sorted(served.outputs) == list(range(FRAMES))
    for i, out in served.outputs.items():
        assert np.array_equal(out, want[i]), i
