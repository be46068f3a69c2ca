"""Tests for FLOP accounting (paper Eq. 2–4) and redundancy maths."""

from __future__ import annotations

import pytest

from repro.cost.flops import (
    CostOptions,
    full_unit_flops,
    head_flops,
    layer_flops,
    layer_profiles,
    model_flops,
    segment_flops,
    segment_owned_flops,
    unit_flops,
)
from repro.models.graph import Model, chain_model
from repro.models.layers import ConvSpec, DenseSpec, conv3x3, maxpool2
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.partition.regions import Region
from repro.partition.strips import equal_partition, strip_regions


class TestLayerFlops:
    def test_eq2_exact(self):
        # f = k^2 * c_in * w * h * c_out
        conv = ConvSpec("c", 16, 32, kernel_size=3)
        region = Region.full(10, 12)
        assert layer_flops(conv, region) == 9 * 16 * 120 * 32

    def test_non_square_kernel(self):
        conv = ConvSpec("c", 4, 8, kernel_size=(1, 7))
        assert layer_flops(conv, Region.full(5, 5)) == 7 * 4 * 25 * 8

    def test_pool_ignored_by_default(self):
        pool = maxpool2("p", 16)
        assert layer_flops(pool, Region.full(8, 8)) == 0.0

    def test_pool_counted_when_enabled(self):
        pool = maxpool2("p", 16)
        opts = CostOptions(include_pool=True)
        assert layer_flops(pool, Region.full(8, 8), opts) == 4 * 16 * 64

    def test_empty_region_zero(self):
        conv = conv3x3("c", 4, 4)
        assert layer_flops(conv, Region.from_bounds(3, 3, 0, 8)) == 0.0


class TestUnitFlops:
    def test_block_sums_paths(self):
        block = basic_block("b", 8, 8)
        got = unit_flops(block, (8, 8), Region.full(8, 8))
        # Two 3x3 8->8 convs over the full 8x8 map.
        assert got == 2 * (9 * 8 * 64 * 8)

    def test_block_halo_inside_paths(self):
        block = basic_block("b", 8, 8)
        half = unit_flops(block, (8, 8), Region.from_bounds(0, 4, 0, 8))
        # conv2 computes 4 rows, conv1 computes 5 (one halo row).
        assert half == 9 * 8 * 8 * 8 * (4 + 5)


class TestSegmentFlops:
    def test_full_region_equals_sum_of_units(self):
        model = toy_chain(3, 1, input_hw=16)
        _, h, w = model.final_shape
        got = segment_flops(model, 0, model.n_units, Region.full(h, w))
        want = sum(full_unit_flops(model, i) for i in range(model.n_units))
        assert got == want

    def test_halo_makes_strips_cost_more_than_share(self):
        model = toy_chain(3, 0, input_hw=16)
        _, h, w = model.final_shape
        full = segment_flops(model, 0, model.n_units, Region.full(h, w))
        halves = [
            segment_flops(model, 0, model.n_units, Region.from_bounds(a, b, 0, w))
            for a, b in [(0, h // 2), (h // 2, h)]
        ]
        assert sum(halves) > full
        assert all(x > full / 2 for x in halves)

    def test_bad_segment_rejected(self):
        model = toy_chain(2, 0, input_hw=8)
        with pytest.raises(ValueError):
            segment_flops(model, 1, 1, Region.full(8, 8))


class TestOwnedFlops:
    @pytest.mark.parametrize("parts", [2, 3, 5])
    def test_owned_partitions_sum_to_full(self, parts):
        """Owned shares of a disjoint partition must sum to the full
        model FLOPs — the invariant behind the redundancy ratios."""
        model = toy_chain(4, 1, input_hw=32)
        _, h, w = model.final_shape
        full = sum(full_unit_flops(model, i) for i in range(model.n_units))
        total_owned = sum(
            segment_owned_flops(model, 0, model.n_units, region)
            for region in strip_regions(h, w, equal_partition(h, parts))
        )
        assert total_owned == pytest.approx(full, rel=1e-9)

    def test_owned_not_more_than_actual(self):
        model = toy_chain(4, 1, input_hw=32)
        _, h, w = model.final_shape
        region = Region.from_bounds(0, h // 2, 0, w)
        actual = segment_flops(model, 0, model.n_units, region)
        owned = segment_owned_flops(model, 0, model.n_units, region)
        assert owned <= actual

    def test_single_layer_segments_have_zero_redundancy(self):
        model = toy_chain(3, 0, input_hw=16)
        _, h, w = model.out_shape(0)
        region = Region.from_bounds(0, h // 2, 0, w)
        actual = segment_flops(model, 0, 1, region)
        owned = segment_owned_flops(model, 0, 1, region)
        assert actual == pytest.approx(owned)


class TestModelFlops:
    def test_head_included_by_default(self):
        model = chain_model(
            "m", (3, 8, 8), [conv3x3("c", 3, 4)],
            head=[DenseSpec("fc", 256, 10)],
        )
        assert model_flops(model) == full_unit_flops(model, 0) + 2560

    def test_head_flops(self):
        model = chain_model(
            "m", (3, 8, 8), [conv3x3("c", 3, 4)],
            head=[DenseSpec("fc1", 256, 10), DenseSpec("fc2", 10, 2)],
        )
        assert head_flops(model) == 2560 + 20


class TestLayerProfiles:
    def test_covers_block_internals(self):
        model = Model("m", (4, 8, 8), (basic_block("b", 4, 4),))
        profiles = layer_profiles(model)
        assert [p.name for p in profiles] == ["b.conv1", "b.conv2"]

    def test_output_bytes(self):
        model = chain_model("m", (3, 8, 8), [conv3x3("c", 3, 4)])
        (profile,) = layer_profiles(model)
        assert profile.output_bytes == 4 * 8 * 8 * 4
