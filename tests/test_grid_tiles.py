"""Grid-tile execution: region-restricted inference with both axes cut.

The strip tests exercise row clipping only; DeepThings-style 2-D grids
also clip columns, so the horizontal halo/padding arithmetic gets real
coverage here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.graph import Model, chain_model
from repro.models.layers import ConvSpec, conv3x3, maxpool2
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.tiles import compile_segment, extract_tile, run_segment
from repro.partition.grid import grid_partition
from repro.testing import run_unit


def assert_grid_tiles_match(model, start, end, rows, cols, seed=0):
    engine = Engine(model, seed=seed)
    rng = np.random.default_rng(seed + 77)
    x = rng.standard_normal(model.input_shape).astype(np.float32)
    outs = [x]
    for unit in model.units:
        outs.append(run_unit(engine, unit, outs[-1]))
    _, h, w = model.out_shape(end - 1)
    for region in grid_partition(h, w, rows, cols):
        if region.empty:
            continue
        program = compile_segment(model, start, end, region)
        tile = extract_tile(outs[start], program.input_region)
        got = run_segment(engine, program, tile)
        want = outs[end][
            :,
            region.rows.start : region.rows.end,
            region.cols.start : region.cols.end,
        ]
        np.testing.assert_allclose(got, want, atol=1e-4, rtol=1e-4)


class TestGridTiles:
    def test_2x2_grid_chain(self):
        model = toy_chain(4, 1, input_hw=32, in_channels=3, base_channels=8)
        assert_grid_tiles_match(model, 0, model.n_units, 2, 2)

    def test_2x4_grid_chain(self):
        model = toy_chain(3, 0, input_hw=24, in_channels=2, base_channels=8)
        assert_grid_tiles_match(model, 0, model.n_units, 2, 4)

    def test_grid_on_residual_blocks(self):
        model = Model(
            "m", (4, 16, 16),
            (basic_block("b1", 4, 8, stride=2), basic_block("b2", 8, 8)),
        )
        assert_grid_tiles_match(model, 0, 2, 2, 2)

    def test_grid_with_non_square_kernels(self):
        layers = [
            ConvSpec("h", 3, 4, kernel_size=(1, 5), padding=(0, 2)),
            ConvSpec("v", 4, 4, kernel_size=(5, 1), padding=(2, 0)),
            maxpool2("p", 4),
        ]
        model = chain_model("ns", (3, 16, 16), layers)
        assert_grid_tiles_match(model, 0, 3, 2, 2)

    def test_single_cell_tiles(self):
        model = toy_chain(2, 1, input_hw=16, in_channels=1, base_channels=4)
        _, h, w = model.final_shape
        assert_grid_tiles_match(model, 0, model.n_units, h, w)

    @given(
        rows=st.integers(1, 3),
        cols=st.integers(1, 3),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_random_grids(self, rows, cols, seed):
        model = toy_chain(3, 1, input_hw=20, in_channels=2, base_channels=4)
        assert_grid_tiles_match(model, 0, model.n_units, rows, cols, seed=seed)


def test_interior_tile_has_no_virtual_padding():
    """An interior grid tile's program should need zero virtual padding
    at the first layer (all halo comes from real data)."""
    model = toy_chain(2, 0, input_hw=32, in_channels=1, base_channels=4)
    from repro.partition.regions import Region

    region = Region.from_bounds(10, 20, 10, 20)
    program = compile_segment(model, 0, 1, region)
    step = program.units[0].steps[0]
    assert step.pads == (0, 0, 0, 0)
    assert program.input_region == Region.from_bounds(9, 21, 9, 21)
