"""Tests for fused-segment region propagation (chain & block back-prop)."""

from __future__ import annotations

import pytest

from repro.models.graph import BlockUnit, LayerUnit
from repro.models.layers import ConvSpec, conv1x1, conv3x3, maxpool2
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.partition.fused import (
    chain_backprop,
    chain_forward_hw,
    segment_input_region,
    unit_input_region,
    unit_owned_input,
)
from repro.partition.regions import Interval, Region
from repro.testing.regions import segment_owned_region


class TestChainForward:
    def test_sizes(self):
        chain = (conv3x3("c1", 3, 8), maxpool2("p1", 8), conv3x3("c2", 8, 8))
        sizes = chain_forward_hw(chain, (32, 32))
        assert sizes == [(32, 32), (32, 32), (16, 16), (16, 16)]


class TestChainBackprop:
    def test_single_conv_same(self):
        chain = (conv3x3("c", 3, 8),)
        tiles = chain_backprop(chain, (16, 16), Region.from_bounds(4, 8, 0, 16))
        assert tiles.input.region == Region.from_bounds(3, 9, 0, 16)
        assert tiles.input.cols.pad_lo == 1 and tiles.input.cols.pad_hi == 1

    def test_halo_grows_per_layer(self):
        chain = (conv3x3("c1", 3, 8), conv3x3("c2", 8, 8), conv3x3("c3", 8, 8))
        out = Region.from_bounds(8, 10, 0, 32)
        tiles = chain_backprop(chain, (32, 32), out)
        assert tiles.input.region.rows == Interval(5, 13)  # +3 halo each side

    def test_pool_doubles(self):
        chain = (maxpool2("p", 8), conv3x3("c", 8, 8))
        out = Region.from_bounds(2, 4, 0, 16)
        tiles = chain_backprop(chain, (32, 32), out)
        # conv needs rows [1,5), pool projects to [2,10)
        assert tiles.input.region.rows == Interval(2, 10)

    def test_output_regions_chain(self):
        chain = (conv3x3("c1", 3, 8), conv3x3("c2", 8, 8))
        out = Region.from_bounds(4, 6, 2, 8)
        tiles = chain_backprop(chain, (16, 16), out)
        # Each layer's output region is the next layer's clipped input.
        assert tiles.tiles[0].output == tiles.tiles[1].input.region
        assert tiles.tiles[-1].output == out

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_backprop((), (8, 8), Region.full(8, 8))


class TestUnitInputRegion:
    def test_layer_unit(self):
        unit = LayerUnit(conv3x3("c", 3, 8))
        got = unit_input_region(unit, (16, 16), Region.from_bounds(4, 8, 4, 8))
        assert got == Region.from_bounds(3, 9, 3, 9)

    def test_residual_block_union_includes_identity(self):
        block = basic_block("b", 8, 8, stride=1)
        out = Region.from_bounds(4, 8, 0, 16)
        got = unit_input_region(block, (16, 16), out)
        # The two 3x3 convs need a 2-row halo; identity needs out itself.
        assert got == Region.from_bounds(2, 10, 0, 16)

    def test_downsample_block(self):
        block = basic_block("b", 8, 16, stride=2)
        out = Region.from_bounds(0, 4, 0, 8)
        got = unit_input_region(block, (16, 16), out)
        # main path: conv2 needs rows [0,5) of mid; conv1 (stride2, pad1)
        # needs rows [0,10) of input; shortcut conv1x1 stride2 needs [0,7).
        assert got.rows == Interval(0, 10)

    def test_inception_like_union_is_hull(self):
        paths = (
            (conv1x1("a", 8, 4),),
            (ConvSpec("b", 8, 4, kernel_size=5, padding=2),),
        )
        block = BlockUnit("inc", paths, merge="concat")
        out = Region.from_bounds(6, 8, 0, 16)
        got = unit_input_region(block, (16, 16), out)
        assert got.rows == Interval(4, 10)  # 5x5 halo dominates


class TestSegmentRegions:
    def test_whole_model_full_region_is_input(self):
        model = toy_chain(3, 1, input_hw=32)
        _, h, w = model.final_shape
        got = segment_input_region(model, 0, model.n_units, Region.full(h, w))
        assert got == Region.full(32, 32)

    def test_bad_segment_rejected(self):
        model = toy_chain(3, 0, input_hw=16)
        with pytest.raises(ValueError):
            segment_input_region(model, 2, 2, Region.full(16, 16))
        with pytest.raises(ValueError):
            segment_input_region(model, 0, 99, Region.full(16, 16))

    def test_owned_region_has_no_halo(self):
        model = toy_chain(4, 1, input_hw=32)
        out = Region.from_bounds(0, 8, 0, 16)  # after 1 pool: 16x16 map
        owned = segment_owned_region(model, 0, model.n_units, out)
        actual = segment_input_region(model, 0, model.n_units, out)
        assert actual.contains(owned)
        assert owned.rows == Interval(0, 16)  # stride-2 projection only

    def test_owned_partition_disjoint(self):
        model = toy_chain(4, 1, input_hw=32)
        _, h, w = model.final_shape
        cut = h // 2
        top = segment_owned_region(
            model, 0, model.n_units, Region.from_bounds(0, cut, 0, w)
        )
        bottom = segment_owned_region(
            model, 0, model.n_units, Region.from_bounds(cut, h, 0, w)
        )
        assert top.rows.overlap(bottom.rows) == 0
        assert top.rows.end == bottom.rows.start


class TestUnitOwned:
    def test_layer_unit_stride(self):
        unit = LayerUnit(maxpool2("p", 8))
        got = unit_owned_input(unit, (16, 16), Region.from_bounds(2, 4, 0, 8))
        assert got.rows == Interval(4, 8)

    def test_block_stride(self):
        block = basic_block("b", 8, 16, stride=2)
        got = unit_owned_input(block, (16, 16), Region.from_bounds(1, 3, 0, 8))
        assert got.rows == Interval(2, 6)
