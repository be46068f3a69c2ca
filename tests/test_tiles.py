"""Region-restricted execution must be bit-exact with full-map slicing.

This is the correctness heart of the whole system: a pipeline stage
executing its tile program must produce exactly the values the full
model would, or distributed inference would silently change outputs.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.graph import BlockUnit, Model, chain_model
from repro.models.layers import ConvSpec, PoolSpec, conv1x1, conv3x3, maxpool2
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.nn import parallel, tiles
from repro.nn.executor import Engine
from repro.nn.tiles import compile_segment, extract_tile, run_segment
from repro.partition.regions import Region
from repro.partition.strips import equal_partition
from repro.testing import run_unit


def unit_outputs(engine, x):
    outs = [x]
    for unit in engine.model.units:
        outs.append(run_unit(engine, unit, outs[-1]))
    return outs


def assert_tiles_match(model, start, end, parts, seed=0, atol=1e-4):
    engine = Engine(model, seed=seed)
    rng = np.random.default_rng(seed + 99)
    x = rng.standard_normal(model.input_shape).astype(np.float32)
    outs = unit_outputs(engine, x)
    _, h, w = model.out_shape(end - 1)
    for iv in equal_partition(h, parts):
        if iv.empty:
            continue
        region = Region.from_bounds(iv.start, iv.end, 0, w)
        program = compile_segment(model, start, end, region)
        tile = extract_tile(outs[start], program.input_region)
        got = run_segment(engine, program, tile)
        want = extract_tile(outs[end], region)
        np.testing.assert_allclose(got, want, atol=atol, rtol=1e-4)


class TestChainSegments:
    def test_whole_model_two_strips(self, small_model):
        assert_tiles_match(small_model, 0, small_model.n_units, 2)

    def test_whole_model_three_strips(self, small_model):
        assert_tiles_match(small_model, 0, small_model.n_units, 3)

    def test_prefix_segment(self, medium_model):
        assert_tiles_match(medium_model, 0, 3, 2)

    def test_suffix_segment(self, medium_model):
        n = medium_model.n_units
        assert_tiles_match(medium_model, n - 3, n, 2)

    def test_middle_segment(self, medium_model):
        assert_tiles_match(medium_model, 2, 5, 3)

    def test_more_strips_than_rows(self):
        model = toy_chain(2, 2, input_hw=16, in_channels=1)
        # Final map is 4x4; 6 strips leaves some devices empty.
        assert_tiles_match(model, 0, model.n_units, 6)

    def test_single_row_strips(self, small_model):
        _, h, _ = small_model.final_shape
        assert_tiles_match(small_model, 0, small_model.n_units, h)


class TestBlockSegments:
    def test_residual_identity_block(self):
        model = Model(
            "m", (4, 16, 16),
            (basic_block("b1", 4, 4), basic_block("b2", 4, 4)),
        )
        assert_tiles_match(model, 0, 2, 3)

    def test_residual_downsample_block(self):
        model = Model(
            "m", (4, 16, 16),
            (basic_block("b1", 4, 8, stride=2), basic_block("b2", 8, 8)),
        )
        assert_tiles_match(model, 0, 2, 2)

    def test_inception_style_block(self):
        paths = (
            (conv1x1("a", 4, 2),),
            (ConvSpec("b", 4, 3, kernel_size=5, padding=2),),
            (
                PoolSpec("pool", 4, kernel_size=3, stride=1, padding=1, kind_="avg"),
                conv1x1("proj", 4, 2),
            ),
        )
        model = Model("m", (4, 12, 12), (BlockUnit("inc", paths, merge="concat"),))
        assert_tiles_match(model, 0, 1, 3)

    def test_reduction_style_block(self):
        paths = (
            (ConvSpec("a", 4, 4, kernel_size=3, stride=2),),
            (PoolSpec("pool", 4, kernel_size=3, stride=2),),
        )
        model = Model("m", (4, 13, 13), (BlockUnit("red", paths, merge="concat"),))
        assert_tiles_match(model, 0, 1, 2)

    def test_non_square_kernels(self):
        layers = [
            ConvSpec("h", 3, 4, kernel_size=(1, 7), padding=(0, 3)),
            ConvSpec("v", 4, 4, kernel_size=(7, 1), padding=(3, 0)),
        ]
        model = chain_model("m", (3, 14, 14), layers)
        assert_tiles_match(model, 0, 2, 2)


class TestProgramValidation:
    def test_bad_segment_rejected(self, small_model):
        with pytest.raises(ValueError):
            compile_segment(small_model, 2, 2, Region.full(4, 4))

    def test_empty_region_rejected(self, small_model):
        with pytest.raises(ValueError):
            compile_segment(small_model, 0, 1, Region.from_bounds(2, 2, 0, 4))

    def test_wrong_tile_shape_rejected(self, small_model):
        engine = Engine(small_model, seed=0)
        _, h, w = small_model.out_shape(0)
        program = compile_segment(
            small_model, 0, 1, Region.from_bounds(0, 2, 0, w)
        )
        with pytest.raises(ValueError):
            run_segment(engine, program, np.zeros((3, 1, 1), dtype=np.float32))


class TestFrameGroupSplit:
    """``run_segment`` cuts a stacked batch into one contiguous frame
    group per pool thread — and touches the pool only when that can
    help: more than one thread, more than one frame, and a caller that
    is not already a pool worker."""

    @pytest.fixture
    def setup(self, small_model):
        engine = Engine(small_model, seed=0)
        _, h, w = small_model.out_shape(small_model.n_units - 1)
        program = compile_segment(
            small_model, 0, small_model.n_units, Region.full(h, w)
        )
        rng = np.random.default_rng(3)
        frames = rng.standard_normal(
            (small_model.input_shape[0], 4, *small_model.input_shape[1:])
        ).astype(np.float32)
        yield engine, program, frames
        parallel.set_threads(None)

    @pytest.fixture
    def spy(self, monkeypatch):
        """Records the thunk count of every ``run_parallel`` call and
        the frame count of every tile the program body runs on."""
        seen = {"fanouts": [], "groups": []}
        real_fanout, real_body = parallel.run_parallel, tiles._run_program

        def run_parallel(thunks):
            seen["fanouts"].append(len(thunks))
            return real_fanout(thunks)

        def run_program(engine, program, tile):
            seen["groups"].append(tile.shape[1] if tile.ndim == 4 else None)
            return real_body(engine, program, tile)

        monkeypatch.setattr(parallel, "run_parallel", run_parallel)
        monkeypatch.setattr(tiles, "_run_program", run_program)
        return seen, real_fanout

    @pytest.mark.parametrize(
        "threads, batch, want",
        [(2, 4, [2, 2]), (3, 4, [1, 1, 2]), (3, 2, [1, 1])],
        ids=["2threads-B4", "3threads-B4", "3threads-B2"],
    )
    def test_one_group_per_thread(self, setup, spy, threads, batch, want):
        engine, program, frames = setup
        seen, _ = spy
        tile = frames[:, :batch]
        parallel.set_threads(1)
        serial = run_segment(engine, program, tile)
        parallel.set_threads(threads)
        got = run_segment(engine, program, tile)
        assert seen == {"fanouts": [len(want)], "groups": [batch] + want}
        assert np.array_equal(got, serial)
        assert got.flags.c_contiguous and not np.shares_memory(got, tile)

    def test_pool_untouched_at_one_thread(self, setup, spy):
        engine, program, frames = setup
        parallel.set_threads(1)
        run_segment(engine, program, frames)
        assert spy[0] == {"fanouts": [], "groups": [4]}

    def test_pool_untouched_for_one_frame(self, setup, spy):
        engine, program, frames = setup
        parallel.set_threads(2)
        run_segment(engine, program, frames[:, :1])
        run_segment(engine, program, np.ascontiguousarray(frames[:, 0]))
        assert spy[0] == {"fanouts": [], "groups": [1, None]}

    def test_pool_untouched_inside_a_pool_worker(self, setup, spy):
        engine, program, frames = setup
        seen, real_fanout = spy
        parallel.set_threads(2)
        # The real fan-out, so that only run_segment's calls are seen.
        outs = real_fanout(
            [lambda: run_segment(engine, program, frames), lambda: None]
        )
        assert outs[0].shape[1] == 4
        assert seen == {"fanouts": [], "groups": [4]}

    def test_stress_more_threads_than_cores(self, setup):
        """Frame groups share one engine (its packed-weight cache is
        filled on first use; arenas are per thread): with more pool
        threads than cores, a cold cache and a short switch interval,
        every run still equals the serial one bitwise."""
        engine, program, frames = setup
        tile = np.concatenate([frames, frames[:, ::-1]], axis=1)  # B = 8
        parallel.set_threads(1)
        serial = run_segment(engine, program, tile)
        cold = Engine(engine.model, engine.weights)
        interval = sys.getswitchinterval()
        parallel.set_threads(2 * (os.cpu_count() or 1) + 1)
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert np.array_equal(run_segment(cold, program, tile), serial)
        finally:
            sys.setswitchinterval(interval)


@st.composite
def random_chain_config(draw):
    """A random small chain + segment + strip split."""
    n_layers = draw(st.integers(1, 4))
    layers = []
    cin = draw(st.integers(1, 3))
    first_cin = cin
    hw = draw(st.integers(10, 20))
    cur_hw = hw
    for i in range(n_layers):
        kind = draw(st.sampled_from(["conv", "pool"]))
        if kind == "pool" and cur_hw >= 4:
            layers.append(maxpool2(f"p{i}", cin))
            cur_hw //= 2
        else:
            k = draw(st.sampled_from([1, 3, 5]))
            cout = draw(st.integers(1, 4))
            layers.append(
                ConvSpec(f"c{i}", cin, cout, kernel_size=k, padding=k // 2)
            )
            cin = cout
    parts = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 50))
    return first_cin, hw, layers, parts, seed


class TestPropertyRandomChains:
    @given(config=random_chain_config())
    @settings(max_examples=25, deadline=None)
    def test_random_chain_tiles_bit_exact(self, config):
        cin, hw, layers, parts, seed = config
        model = chain_model("rand", (cin, hw, hw), layers)
        assert_tiles_match(model, 0, model.n_units, parts, seed=seed)
