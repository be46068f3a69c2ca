"""A compiled tile plan computes exactly what the per-call ops compute.

``run_segment`` lowers each program once per tile shape onto buffers it
keeps (``repro.nn.tiles._build_plan``) and runs every later frame on
them.  These tests hold the plan to the op-by-op path over the same
program (:func:`repro.testing.run_segment_reference`: ``run_layer`` per
step, the block merge spelled out), bit for bit, over random chain and
block models, tile grids with asymmetric virtual pads, padded max pools,
channel slices and stacked batches; and they check what a plan must never do: hand out its own
buffers, share them between threads, or outlive the weights or the
program it was built from.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import ConvSpec, PoolSpec
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn import executor, ops, parallel
from repro.nn.executor import Engine
from repro.nn.tiles import (
    compile_channel_slice,
    compile_segment,
    extract_tile,
    run_segment,
)
from repro.nn.weights import init_weights
from repro.partition.regions import Region
from repro.runtime.messages import (
    Hello,
    Reconfigure,
    Shutdown,
    TileResult,
    TileTask,
)
from repro.runtime.transport import Channel
from repro.runtime.worker import worker_main
from repro.testing import run_segment_reference, run_unit
from tests.test_program_properties import cut_lists

ACTIVATIONS = ("relu", "leaky_relu", "relu6", "linear")


def idle_plans(pool) -> list:
    """An engine's (or a pool's) idle plans, least recently used first."""
    pool = getattr(pool, "_plans", pool)
    return [plan for idle in pool._idle.values() for plan in idle]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


# ----------------------------------------------------------------------
# Random models: chains of convs and (padded) max pools, with residual
# add blocks and concat blocks (identity paths included) between them.
# ----------------------------------------------------------------------
@st.composite
def conv_specs(draw, name: str, cin: int, stride: bool = True) -> ConvSpec:
    k = draw(st.sampled_from([1, 3, 5]))
    return ConvSpec(
        name, cin, draw(st.integers(1, 5)),
        kernel_size=k,
        stride=draw(st.sampled_from([1, 2])) if stride else 1,
        padding=draw(st.integers(0, k // 2)),
        activation=draw(st.sampled_from(ACTIVATIONS)),
        bias=draw(st.booleans()),
    )


@st.composite
def random_models(draw) -> Model:
    cin = draw(st.integers(1, 3))
    hw = draw(st.integers(12, 22))
    units, c = [], cin
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["conv", "pool", "add", "concat"]))
        if kind == "conv":
            layer = draw(conv_specs(f"c{i}", c))
            units.append(LayerUnit(layer))
            c = layer.out_channels
        elif kind == "pool":
            k = draw(st.sampled_from([2, 3]))
            units.append(LayerUnit(PoolSpec(
                f"p{i}", c, kernel_size=k, stride=draw(st.sampled_from([1, 2])),
                padding=draw(st.integers(0, k // 2)),
            )))
        elif kind == "add":
            cout = draw(st.integers(1, 4))
            main = (
                ConvSpec(f"a{i}.0", c, cout, kernel_size=3, padding=1),
                ConvSpec(f"a{i}.1", cout, cout, kernel_size=3, padding=1,
                         activation="linear"),
            )
            extra = [
                () if cout == c and draw(st.booleans()) else (
                    ConvSpec(f"a{i}.s{j}", c, cout, kernel_size=1, activation="linear"),
                )
                for j in range(draw(st.integers(1, 2)))
            ]
            units.append(BlockUnit(
                f"a{i}", (main, *extra), merge="add",
                post_activation=draw(st.sampled_from(["relu", "linear"])),
            ))
            c = cout
        else:
            paths = [()] if draw(st.booleans()) else []
            for j in range(draw(st.integers(1, 3))):
                k = draw(st.sampled_from([1, 3, 5]))
                paths.append((ConvSpec(
                    f"b{i}.{j}", c, draw(st.integers(1, 3)), kernel_size=k,
                    padding=k // 2, activation=draw(st.sampled_from(ACTIVATIONS)),
                ),))
            units.append(BlockUnit(f"b{i}", tuple(paths), merge="concat"))
            c = sum(p[0].out_channels if p else c for p in paths)
    try:
        return Model("rand", (cin, hw, hw), tuple(units))
    except ValueError:  # a stride or kernel that leaves no map behind
        reject()


@st.composite
def grid_tasks(draw, model: Model):
    """A segment of ``model`` and one tile of a random grid over its
    output map (``cut_lists`` picks the cuts), so the virtual pads come
    out asymmetric wherever a tile meets the border on one side."""
    start = draw(st.integers(0, model.n_units - 1))
    end = draw(st.integers(start + 1, model.n_units))
    _, h, w = model.out_shape(end - 1)
    rows = [0] + sorted(draw(cut_lists(h))) + [h] if h > 1 else [0, h]
    cols = [0] + sorted(draw(cut_lists(w))) + [w] if w > 1 else [0, w]
    r = draw(st.integers(0, len(rows) - 2))
    c = draw(st.integers(0, len(cols) - 2))
    region = Region.from_bounds(rows[r], rows[r + 1], cols[c], cols[c + 1])
    return start, compile_segment(model, start, end, region)


def unit_input(engine: Engine, start: int, x: np.ndarray) -> np.ndarray:
    for unit in engine.model.units[:start]:
        x = run_unit(engine, unit, x)
    return x


def stacked(rng, shape, batch):
    """One frame map, or a (C, B, H, W) stack of ``batch`` frames."""
    if batch is None:
        return rng.standard_normal(shape).astype(np.float32)
    return rng.standard_normal((shape[0], batch, *shape[1:])).astype(np.float32)


BATCHES = st.sampled_from([None, 1, 2, 3])


class TestPlanEqualsPerCallOps:
    @given(data=st.data(), batch=BATCHES, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_random_models_on_grid_tiles(self, data, batch, seed):
        model = data.draw(random_models())
        start, program = data.draw(grid_tasks(model))
        engine = Engine(model, init_weights(model, seed))
        rng = np.random.default_rng(seed)
        frames = stacked(rng, model.input_shape, batch)
        if batch is None:
            x = unit_input(engine, start, frames)
        else:
            x = np.stack(
                [unit_input(engine, start, frames[:, b]) for b in range(batch)],
                axis=1,
            )
        tile = extract_tile(x, program.input_region)
        want = run_segment_reference(engine, program, tile)
        for _ in range(2):  # the build frame and a steady-state frame
            assert_same_bits(run_segment(engine, program, tile), want)

    @given(
        data=st.data(), batch=BATCHES, pad=st.integers(0, 1),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_channel_sliced_steps(self, data, batch, pad, seed):
        """IOP programs: a conv's packed-row slice, a padded pool's
        input-channel slice."""
        conv = data.draw(st.booleans())
        layer = (
            ConvSpec("c", 4, 6, kernel_size=3, padding=pad)
            if conv else PoolSpec("p", 4, kernel_size=3, stride=2, padding=pad)
        )
        model = Model("iop", (4, 11, 11), (LayerUnit(layer),))
        lo = data.draw(st.integers(0, layer.out_channels - 1))
        hi = data.draw(st.integers(lo + 1, layer.out_channels))
        program = compile_channel_slice(model, 0, lo, hi)
        engine = Engine(model, init_weights(model, seed))
        tile = stacked(np.random.default_rng(seed), model.input_shape, batch)
        want = run_segment_reference(engine, program, tile)
        for _ in range(2):
            assert_same_bits(run_segment(engine, program, tile), want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_resnet_blocks_stacked(self, threads):
        """resnet34's residual blocks (batch norm folded), B = 3 split
        into frame groups, against the per-call ops on the whole stack."""
        model = get_model("resnet34", input_hw=32)
        engine = Engine(model, init_weights(model, 0))
        _, h, w = model.out_shape(5)
        program = compile_segment(model, 1, 6, Region.from_bounds(0, h // 2 + 1, 0, w))
        rng = np.random.default_rng(7)
        frames = stacked(rng, model.input_shape, 3)
        x = np.stack([unit_input(engine, 1, frames[:, b]) for b in range(3)], axis=1)
        tile = extract_tile(x, program.input_region)
        want = run_segment_reference(engine, program, tile)
        parallel.set_threads(threads)
        try:
            assert_same_bits(run_segment(engine, program, tile), want)
            assert_same_bits(run_segment(engine, program, tile), want)
        finally:
            parallel.set_threads(None)

    @pytest.mark.parametrize("cout, hw", [(1, 3), (1, 5), (2, 3), (4, 3)])
    def test_one_row_packs_and_one_column_frames(self, cout, hw):
        """A batched conv whose pack has one row, or whose frames have
        one output column, equals the single-frame conv bit for bit —
        the geometries where a GEMM over a strided column block of the
        stacked panel rounds differently from the single-frame call."""
        rng = np.random.default_rng(cout * 100 + hw)
        x = rng.standard_normal((6, 3, hw, hw)).astype(np.float32)
        w = rng.standard_normal((cout, 6, 3, 3)).astype(np.float32)
        packed = ops.pack_conv_weight(w)
        pads = (0, 0, 0, 0) if hw == 3 else (1, 1, 1, 1)
        batched = ops.conv2d_packed(x, packed, None, (3, 3), (1, 1), pads)
        for b in range(3):
            single = ops.conv2d_packed(
                np.ascontiguousarray(x[:, b]), packed, None, (3, 3), (1, 1), pads
            )
            assert_same_bits(np.ascontiguousarray(batched[:, b]), single)

    def test_forward_features_is_the_per_call_forward(self):
        model = get_model("resnet34", input_hw=32)
        engine = Engine(model, init_weights(model, 0))
        x = np.random.default_rng(3).standard_normal(model.input_shape).astype(np.float32)
        want = unit_input(engine, model.n_units, x)
        assert_same_bits(engine.forward_features(x), want)
        assert_same_bits(engine.forward_features(x), want)


# ----------------------------------------------------------------------
# What a plan must never do.
# ----------------------------------------------------------------------
MODEL = toy_chain(4, 1, input_hw=20, in_channels=3, base_channels=4)


def _strip_program(model: Model, r0: int, r1: int):
    _, h, w = model.out_shape(model.n_units - 1)
    return compile_segment(model, 0, model.n_units, Region.from_bounds(r0, r1, 0, w))


class TestPlanBuffers:
    def test_result_never_aliases_the_plan(self):
        engine = Engine(MODEL, init_weights(MODEL, 0))
        program = _strip_program(MODEL, 0, 5)
        rng = np.random.default_rng(0)
        a, b = (
            extract_tile(stacked(rng, MODEL.input_shape, None), program.input_region)
            for _ in range(2)
        )
        first = run_segment(engine, program, a)
        kept = first.copy()
        second = run_segment(engine, program, b)
        assert_same_bits(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.array_equal(first, second)

    def test_two_threads_one_program(self):
        """Each concurrent run checks out a plan of its own: frames of
        one program on one engine never see each other's buffers."""
        engine = Engine(MODEL, init_weights(MODEL, 0))
        program = _strip_program(MODEL, 2, 9)
        rng = np.random.default_rng(1)
        tiles_ = [
            extract_tile(stacked(rng, MODEL.input_shape, None), program.input_region)
            for _ in range(2)
        ]
        want = [run_segment_reference(engine, program, t) for t in tiles_]
        barrier = threading.Barrier(2)
        bad = []

        def spin(i):
            barrier.wait()
            for _ in range(200):
                if not np.array_equal(run_segment(engine, program, tiles_[i]), want[i]):
                    bad.append(i)

        threads = [threading.Thread(target=spin, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert bad == []
        # The engine pools the plans: one per concurrent run, not per thread.
        assert 1 <= len(idle_plans(engine)) <= 2

    def test_one_frame_stack_runs_the_single_frame_plan(self):
        engine = Engine(MODEL, init_weights(MODEL, 0))
        program = _strip_program(MODEL, 2, 9)
        tile = extract_tile(
            stacked(np.random.default_rng(5), MODEL.input_shape, None),
            program.input_region,
        )
        single = run_segment(engine, program, tile)
        stack = run_segment(engine, program, tile[:, None])
        assert stack.shape == (single.shape[0], 1, *single.shape[1:])
        assert stack.flags.c_contiguous
        assert_same_bits(stack[:, 0], single)
        assert len(idle_plans(engine)) == 1


class TestStalePlans:
    def test_plan_cache_is_bounded(self, monkeypatch):
        engine = Engine(MODEL, init_weights(MODEL, 0))
        # Freshly compiled programs are distinct objects: one plan each.
        programs = [_strip_program(MODEL, 0, 5) for _ in range(8)]
        tile = np.zeros((3, programs[0].input_region.height, 20), np.float32)
        run_segment(engine, programs[0], tile)
        (plan,) = idle_plans(engine)
        monkeypatch.setattr(executor, "PLAN_POOL_BYTES", 3 * plan.nbytes)
        for program in programs[1:]:
            run_segment(engine, program, tile)
        assert engine._plans.nbytes == 3 * plan.nbytes
        assert [p.program for p in idle_plans(engine)] == programs[-3:]

    def test_pool_evicts_around_plans_in_use(self, monkeypatch):
        """A plan out on a run is not in the pool: giving another plan
        back evicts only idle ones, whatever keys are out."""
        plan = lambda n: type("Plan", (), {"nbytes": n})()  # noqa: E731
        pool = executor._PlanPool()
        monkeypatch.setattr(executor, "PLAN_POOL_BYTES", 10)
        a, b, c = plan(4), plan(4), plan(8)
        pool.give("a", a)
        pool.give("b", b)
        assert pool.take("a") is a and pool.take("a") is None
        pool.give("c", c)  # over the bound: b goes, a is out
        assert idle_plans(pool) == [c] and pool.nbytes == 8
        pool.give("a", a)  # over again: the older c goes
        assert idle_plans(pool) == [a] and pool.nbytes == 4

    def test_plan_over_the_bound_is_kept_alone(self, monkeypatch):
        """A plan larger than the whole bound still serves the next
        frame of its program: it only displaces the others."""
        engine = Engine(MODEL, init_weights(MODEL, 0))
        monkeypatch.setattr(executor, "PLAN_POOL_BYTES", 1)
        programs = [_strip_program(MODEL, 0, 5) for _ in range(2)]
        tile = np.zeros((3, programs[0].input_region.height, 20), np.float32)
        for program in programs:
            run_segment(engine, program, tile)
            (plan,) = idle_plans(engine)
            assert plan.program is program
        run_segment(engine, programs[1], tile)
        assert idle_plans(engine) == [plan]

    def test_worker_reconfigure_runs_the_new_program(self):
        """A worker keeps its plans across a Reconfigure; the new program
        (same tile shape, other virtual pads) must run, not the plan of
        the old one."""
        weights = init_weights(MODEL, 0)
        _, h, _ = MODEL.out_shape(MODEL.n_units - 1)
        top, bottom = _strip_program(MODEL, 0, 3), _strip_program(MODEL, h - 3, h)
        assert top.input_region.height == bottom.input_region.height
        assert top.units[0].steps[0].pads != bottom.units[0].steps[0].pads
        frame = stacked(np.random.default_rng(4), MODEL.input_shape, None)
        oracle = Engine(MODEL, weights)
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        # The worker runs on a thread of this process: it sets this
        # process's width, which the finally clause gives back.
        worker = threading.Thread(
            target=worker_main, args=("127.0.0.1", port, 0, MODEL, top, weights, 1)
        )
        worker.start()
        conn, _ = listener.accept()
        channel = Channel(conn)
        try:
            assert isinstance(channel.recv(), Hello)
            outs = []
            for i, program in enumerate((top, bottom)):
                if i:
                    channel.send(Reconfigure(program))
                channel.send(TileTask(i, extract_tile(frame, program.input_region)))
                result = channel.recv()
                assert isinstance(result, TileResult)
                want = run_segment(oracle, program, extract_tile(frame, program.input_region))
                assert_same_bits(result.tile, want)
                outs.append(result.tile)
            assert not np.array_equal(outs[0], outs[1])
            channel.send(Shutdown())
        finally:
            worker.join(timeout=30)
            channel.close()
            listener.close()
            parallel.set_threads(None)
        assert not worker.is_alive()
