"""Differential matrix: every scheme × model family × backend.

The repo's strongest end-to-end guarantee, checked exhaustively: for
every registered scheme and a small family of architectures, the
execution backends (in-process threads, virtual-clock simulator, the
threaded server over in-process threads, and — in its own cells, since
it forks real workers — the shared-memory transport) produce
**bit-identical** feature maps —
equal to the plain ``Engine.forward_features`` reference — and report
equivalent canonical traces.  Both frame-at-a-time and with multiple
frames in flight through the serving layer.
"""

from __future__ import annotations

import multiprocessing as mp
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import ConvSpec, conv1x1, conv3x3
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn import parallel
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.coordinator import ShmTransport, TcpTransport
from repro.runtime.core import InProcTransport, PipelineSession, SimTransport
from repro.runtime.trace import Tracer, canonical_trace
from repro.schemes import available_schemes, get_scheme
from repro.serve import PipelineServer, ServerConfig
from tests.conftest import own_shm_segments

NETWORK = NetworkModel.from_mbps(50.0)
CLUSTER = heterogeneous_cluster([1200, 1000, 800, 600])
BACKENDS = ("inproc", "sim", "served")

MODELS = {
    "toy": lambda: toy_chain(4, 1, input_hw=24, in_channels=3,
                             base_channels=8),
    "vggish": lambda: toy_chain(6, 2, input_hw=32, in_channels=3,
                                base_channels=8),
    "resnetish": lambda: get_model("resnet34", input_hw=64),
    # The model and resolution the retired trace-smoke program gated
    # on; headless, because every cell compares backbone features and
    # the dense head's 29M weights take ~20 s to draw.
    "vgg16": lambda: replace(get_model("vgg16", input_hw=64), head=()),
    # A stem, a three-path concat block (inception-style) and a tail.
    "branchy": lambda: Model("branchy", (3, 24, 24), (
        LayerUnit(conv3x3("stem", 3, 8)),
        BlockUnit("mix", (
            (conv1x1("b1", 8, 4),),
            (conv1x1("b3r", 8, 4), conv3x3("b3", 4, 6)),
            (ConvSpec("b5", 8, 5, kernel_size=5, padding=2),),
        ), merge="concat"),
        LayerUnit(conv3x3("tail", 15, 8)),
    )),
}


@lru_cache(maxsize=None)
def _model(model_key):
    return MODELS[model_key]()


@lru_cache(maxsize=None)
def _weights(model_key):
    return init_weights(_model(model_key), seed=0)


@lru_cache(maxsize=None)
def _plan(model_key, scheme_name):
    return get_scheme(scheme_name).plan(_model(model_key), CLUSTER, NETWORK)


def _engine(model_key):
    return Engine(_model(model_key), _weights(model_key))


def _frame(model_key, seed=7):
    rng = np.random.default_rng(seed)
    shape = _model(model_key).input_shape
    return rng.standard_normal(shape).astype(np.float32)


def _run_backend(backend, model_key, scheme_name, frame):
    """One frame through one backend; returns (features, canonical trace)."""
    model = _model(model_key)
    plan = _plan(model_key, scheme_name)
    if backend == "served":
        with PipelineServer.from_plan(
            model, plan, InProcTransport(_engine(model_key)), tracer=True
        ) as server:
            result = server.serve([frame])
        return result.outputs[0], canonical_trace(result.trace)
    if backend == "inproc":
        transport = InProcTransport(_engine(model_key))
    elif backend == "shm":
        transport = ShmTransport(_model(model_key), _weights(model_key))
    else:
        transport = SimTransport(_engine(model_key), NETWORK, compute=True)
    tracer = Tracer()
    session = PipelineSession.from_plan(model, plan, transport, tracer)
    try:
        out = session.run_frame(frame)
    finally:
        transport.close()
    return out, canonical_trace(tracer.events)


def _assert_matches_reference(out, want, scheme_name, context):
    """Served features vs the plain full-model forward.

    Spatial strip partitions (PICO, OFL) keep every accumulation shape
    identical to the reference, so they are bit-exact.  EFL and LW fuse
    layers with channel-block outputs whose GEMM shapes differ from the
    full-model call — BLAS may re-block the accumulation, so those two
    are float-close (error compounds over fused layers) rather than
    bit-identical.  IOP's channel-sliced GEMMs shrink the M dimension
    the same way, so it shares that exactness class (the backends still
    agree bit-for-bit with *each other* in every class).
    """
    if scheme_name in ("efl", "lw", "iop"):
        np.testing.assert_allclose(
            out, want, rtol=5e-4, atol=1e-6, err_msg=context
        )
    else:
        assert np.array_equal(out, want), context


def _check_matrix_cell(model_key, scheme_name):
    frame = _frame(model_key)
    want = _engine(model_key).forward_features(frame)
    outs, traces = {}, {}
    for backend in BACKENDS:
        out, trace = _run_backend(backend, model_key, scheme_name, frame)
        _assert_matches_reference(
            out, want, scheme_name,
            f"{backend} diverged from Engine.forward_features for "
            f"{scheme_name} on {model_key}",
        )
        outs[backend] = out
        traces[backend] = trace
    # Whatever the scheme, the three backends run the same compiled
    # split/compute/stitch and must agree bit-for-bit with each other.
    assert np.array_equal(outs["inproc"], outs["sim"])
    assert np.array_equal(outs["inproc"], outs["served"])
    # The wall-clock and virtual backends emit the *same* canonical
    # sequence (the trace-smoke contract); the server walks the same
    # plan so its event count must agree too.
    assert traces["inproc"] == traces["sim"]
    assert len(traces["served"]) == len(traces["inproc"])


def _check_in_flight_cell(model_key, scheme_name, n_frames=3):
    """The same plan with ``n_frames`` concurrently in flight."""
    model = _model(model_key)
    plan = _plan(model_key, scheme_name)
    frames = [_frame(model_key, seed=100 + i) for i in range(n_frames)]
    engine = _engine(model_key)
    want = [engine.forward_features(f) for f in frames]
    config = ServerConfig(queue_capacity=n_frames + 1, policy="block")
    per_frame_counts = {}
    outs = {}
    for backend in ("inproc", "sim"):
        if backend == "inproc":
            transport = InProcTransport(_engine(model_key))
        else:
            transport = SimTransport(_engine(model_key), NETWORK,
                                     compute=True)
        server = PipelineServer.from_plan(
            model, plan, transport, config=config, tracer=True
        )
        result = server.serve(frames, arrivals=[0.0] * n_frames)
        server.close()
        assert len(result.completed) == n_frames
        assert not result.failed and not result.shed
        for i, w in enumerate(want):
            _assert_matches_reference(
                result.outputs[i], w, scheme_name,
                f"{backend} frame {i} diverged with {n_frames} in flight "
                f"({scheme_name} on {model_key})",
            )
        outs[backend] = result.outputs
        per_frame_counts[backend] = Counter(
            e[0] for e in canonical_trace(result.trace)
        )
    for i in range(n_frames):
        assert np.array_equal(outs["inproc"][i], outs["sim"][i])
    # Interleaving may reorder events across stages, but each frame must
    # pass through exactly the same canonical steps on both backends.
    assert per_frame_counts["inproc"] == per_frame_counts["sim"]


@pytest.mark.parametrize(
    "model_key, scheme_name",
    [
        pytest.param(m, s, id=f"{m}-{s}")
        for m in ("toy", "vggish") for s in available_schemes()
    ] + [("vgg16", "pico")],
)
def test_single_frame_matrix(model_key, scheme_name):
    _check_matrix_cell(model_key, scheme_name)


@pytest.mark.parametrize("scheme_name", available_schemes())
@pytest.mark.parametrize("model_key", ["toy", "vggish"])
def test_frames_in_flight_matrix(model_key, scheme_name):
    _check_in_flight_cell(model_key, scheme_name)


def _check_shm_cell(model_key, scheme_name):
    """The shared-memory transport against the in-process reference.

    Separate from the main matrix because every cell forks real worker
    processes; the agreement contract is the same — bit-identical
    outputs and identical canonical traces.
    """
    frame = _frame(model_key)
    want, want_trace = _run_backend("inproc", model_key, scheme_name, frame)
    out, trace = _run_backend("shm", model_key, scheme_name, frame)
    assert np.array_equal(out, want), (
        f"shm diverged from inproc for {scheme_name} on {model_key}"
    )
    assert trace == want_trace, (
        f"shm canonical trace differs for {scheme_name} on {model_key}"
    )


@pytest.mark.parametrize(
    "model_key, scheme_name",
    [pytest.param("toy", s, id=s) for s in available_schemes()]
    + [("vgg16", "pico")],
)
def test_single_frame_matrix_shm(model_key, scheme_name):
    _check_shm_cell(model_key, scheme_name)


def test_frames_in_flight_shm():
    """Multiple frames through the threaded server over shm workers."""
    model_key, scheme_name, n_frames = "toy", "pico", 3
    model = _model(model_key)
    plan = _plan(model_key, scheme_name)
    frames = [_frame(model_key, seed=100 + i) for i in range(n_frames)]
    engine = _engine(model_key)
    want = [engine.forward_features(f) for f in frames]
    config = ServerConfig(queue_capacity=n_frames + 1, policy="block")
    transport = ShmTransport(model, _weights(model_key))
    server = PipelineServer.from_plan(model, plan, transport, config=config)
    try:
        result = server.serve(frames, arrivals=[0.0] * n_frames)
    finally:
        server.close()
    assert len(result.completed) == n_frames
    assert not result.failed and not result.shed
    for i, w in enumerate(want):
        assert np.array_equal(result.outputs[i], w), (
            f"shm frame {i} diverged with {n_frames} in flight"
        )


@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", available_schemes())
@pytest.mark.parametrize("model_key", ["vggish", "resnetish"])
def test_single_frame_matrix_shm_large(model_key, scheme_name):
    _check_shm_cell(model_key, scheme_name)


@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", available_schemes())
def test_single_frame_matrix_resnetish(scheme_name):
    _check_matrix_cell("resnetish", scheme_name)


@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", available_schemes())
def test_frames_in_flight_matrix_resnetish(scheme_name):
    _check_in_flight_cell("resnetish", scheme_name, n_frames=2)


def test_local_executor_sequential_frames_match_engine():
    """Frame-at-a-time through one in-process server, several calls in
    a row — no state leaks between frames."""
    engine = _engine("toy")
    with PipelineServer.from_plan(
        _model("toy"), _plan("toy", "pico"), InProcTransport(engine)
    ) as server:
        for i in range(3):
            frame = _frame("toy", seed=200 + i)
            assert np.array_equal(
                server.serve([frame]).outputs[0],
                engine.forward_features(frame),
            )


# ---------------------------------------------------------------------------
# Cross-frame batching: a stacked (C, B, H, W) batch through the same
# compiled programs must be bit-identical to the per-frame loop.
# ---------------------------------------------------------------------------


def _run_backend_batched(backend, model_key, scheme_name, frames):
    """A stacked batch through one backend; returns per-frame outputs."""
    model = _model(model_key)
    plan = _plan(model_key, scheme_name)
    if backend == "inproc":
        transport = InProcTransport(_engine(model_key))
    else:
        transport = SimTransport(_engine(model_key), NETWORK, compute=True)
    session = PipelineSession.from_plan(model, plan, transport)
    try:
        return session.run_stacked(frames)
    finally:
        transport.close()


def _check_batched_cell(model_key, scheme_name, batch):
    frames = [_frame(model_key, seed=300 + i) for i in range(batch)]
    # The per-frame loop is the oracle: batched execution must be
    # BIT-identical to it, on top of matching the engine reference
    # within the scheme's exactness class.
    per_frame = [
        _run_backend("inproc", model_key, scheme_name, f)[0] for f in frames
    ]
    engine = _engine(model_key)
    for backend in ("inproc", "sim"):
        outs = _run_backend_batched(backend, model_key, scheme_name, frames)
        assert len(outs) == batch
        for i, (out, want) in enumerate(zip(outs, per_frame)):
            assert np.array_equal(out, want), (
                f"{backend} batched frame {i} is not bit-identical to the "
                f"per-frame loop ({scheme_name} on {model_key}, B={batch})"
            )
            _assert_matches_reference(
                out, engine.forward_features(frames[i]), scheme_name,
                f"{backend} batched frame {i} diverged from the engine "
                f"({scheme_name} on {model_key}, B={batch})",
            )


@pytest.mark.parametrize("batch", [2, 4])
@pytest.mark.parametrize("scheme_name", available_schemes())
def test_batched_matrix_toy(scheme_name, batch):
    _check_batched_cell("toy", scheme_name, batch)


@pytest.mark.slow
@pytest.mark.parametrize("batch", [2, 4])
@pytest.mark.parametrize("scheme_name", available_schemes())
@pytest.mark.parametrize("model_key", ["vggish", "resnetish"])
def test_batched_matrix_large(model_key, scheme_name, batch):
    _check_batched_cell(model_key, scheme_name, batch)


@pytest.mark.parametrize("scheme_name", available_schemes())
def test_batched_serving_matches_per_frame_serving(scheme_name):
    """The served batched outputs and completion set equal the per-frame
    server's, on both the threaded and the analytic path."""
    model_key = "toy"
    model = _model(model_key)
    plan = _plan(model_key, scheme_name)
    n_frames = 6
    frames = [_frame(model_key, seed=400 + i) for i in range(n_frames)]
    baseline_cfg = ServerConfig(queue_capacity=n_frames + 1, policy="block")
    batched_cfg = ServerConfig(
        queue_capacity=n_frames + 1, policy="block", max_batch=3
    )
    results = {}
    for label, backend, config in (
        ("base", "sim", baseline_cfg),
        ("sim", "sim", batched_cfg),
        ("inproc", "inproc", batched_cfg),
    ):
        if backend == "inproc":
            transport = InProcTransport(_engine(model_key))
        else:
            transport = SimTransport(_engine(model_key), NETWORK,
                                     compute=True)
        server = PipelineServer.from_plan(
            model, plan, transport, config=config
        )
        try:
            results[label] = server.serve(frames, arrivals=[0.0] * n_frames)
        finally:
            server.close()
    base = results["base"]
    assert len(base.completed) == n_frames
    for label in ("sim", "inproc"):
        result = results[label]
        assert {r.frame for r in result.completed} == {
            r.frame for r in base.completed
        }
        assert not result.shed and not result.failed
        for i in range(n_frames):
            assert np.array_equal(result.outputs[i], base.outputs[i]), (
                f"{label} batched serving diverged on frame {i} "
                f"({scheme_name})"
            )
    # The analytic path must actually form batches for this workload.
    assert results["sim"].mean_batch > 1.0


@pytest.mark.parametrize(
    "transport_class, options",
    [(TcpTransport, {}), (ShmTransport, {}), (ShmTransport, {"slot_frames": 3})],
    ids=["tcp", "shm-inline", "shm-slots"],
)
def test_batched_serving_over_worker_transports(transport_class, options):
    """Stacked batches through forked workers, as the end-to-end
    benchmark serves them: every frame arrives at t=0 and each worker
    splits its batches over a two-thread pool (twice as many threads
    as workers, so each worker's share is two).  Outputs equal the
    per-frame in-process run bit for bit, and ``close()`` leaves no
    child and no ``/dev/shm`` residue.  ``slot_frames=3`` lets a batch
    ride the shm slots; at the default it rides inline frames."""
    model_key, scheme_name, n_frames = "toy", "pico", 6
    model, plan = _model(model_key), _plan(model_key, scheme_name)
    frames = [_frame(model_key, seed=400 + i) for i in range(n_frames)]
    want = [_run_backend("inproc", model_key, scheme_name, f)[0] for f in frames]
    transport = transport_class(model, _weights(model_key), **options)
    config = ServerConfig(
        queue_capacity=n_frames + 1, policy="block", max_batch=3
    )
    n_workers = sum(len(stage.tasks) for stage in compile_plan(model, plan).stages)
    parallel.set_threads(2 * n_workers)  # the workers' share is two each
    try:
        server = PipelineServer.from_plan(model, plan, transport, config=config)
        try:
            assert transport.worker_threads == 2
            workers = [h.process for h in transport.all_handles()]
            result = server.serve(frames, arrivals=[0.0] * n_frames)
        finally:
            server.close()
    finally:
        parallel.set_threads(None)
    assert len(result.completed) == n_frames
    assert not result.shed and not result.failed
    assert result.mean_batch > 1.0
    for i, w in enumerate(want):
        assert np.array_equal(result.outputs[i], w), (
            f"{transport.name} batched frame {i} is not bit-identical to "
            "the per-frame loop"
        )
    assert workers and not any(p.is_alive() for p in workers)
    assert not mp.active_children()
    assert not own_shm_segments()


# ---------------------------------------------------------------------------
# Property: run_segment over a stacked batch == per-tile runs, for any
# batch size, seed, pool width and compiled segment of the toy chain and
# of two block models.
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.nn.tiles import run_segment  # noqa: E402
from repro.runtime.program import (  # noqa: E402
    compile_plan,
    split_stage,
    stack_frames,
    stitch_stage,
    unstack_frames,
)


#: Pool widths every stacked tile runs at: serial, a split into frame
#: groups, and more threads than some batches have frames.
POOL_WIDTHS = (1, 2, 3)
SCHEMES = st.sampled_from(("pico", "efl", "ofl", "lw", "iop"))


def _check_stacked_run_segment(model_key, scheme_name, batch, seed):
    """For every stage task of a compiled plan: running the stacked
    (C, B, H, W) tile at every pool width equals stacking the per-frame
    runs of the serial loop, bitwise."""
    engine = _engine(model_key)
    program = compile_plan(_model(model_key), _plan(model_key, scheme_name))
    rng = np.random.default_rng(seed)
    frames = [
        rng.standard_normal(_model(model_key).input_shape).astype(np.float32)
        for _ in range(batch)
    ]
    stacked = stack_frames(frames)
    try:
        for stage in program.stages:
            tiles_b = split_stage(stage.tasks, stacked)
            tiles_f = [split_stage(stage.tasks, f) for f in frames]
            outs_b = []
            for t_index, (task, tile_b) in enumerate(zip(stage.tasks, tiles_b)):
                parallel.set_threads(1)
                want = stack_frames([
                    run_segment(engine, task.program, tiles_f[b][t_index])
                    for b in range(batch)
                ])
                for threads in POOL_WIDTHS:
                    parallel.set_threads(threads)
                    out_b = run_segment(engine, task.program, tile_b)
                    assert np.array_equal(out_b, want), (
                        f"stage {stage.index} task {t_index} ({scheme_name} "
                        f"on {model_key}, B={batch}, seed={seed}, "
                        f"{threads} threads)"
                    )
                outs_b.append(want)
            stacked = stitch_stage(stage, stage.tasks, outs_b)
            frames = unstack_frames(stacked)
    finally:
        parallel.set_threads(None)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    scheme_name=SCHEMES,
)
def test_property_stacked_run_segment_equals_per_tile(batch, seed, scheme_name):
    """The toy chain, every scheme, at every pool width."""
    _check_stacked_run_segment("toy", scheme_name, batch, seed)


@pytest.mark.parametrize("model_key", ["resnetish", "branchy"])
@settings(max_examples=8, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    scheme_name=SCHEMES,
)
def test_property_stacked_run_segment_block_units(
    model_key, batch, seed, scheme_name
):
    """Residual ``add`` blocks (resnet34) and a ``concat`` block: the
    split runs each frame group's block paths serially inside its pool
    thread, and the frames still equal the per-frame loop bitwise."""
    _check_stacked_run_segment(model_key, scheme_name, batch, seed)
