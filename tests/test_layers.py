"""Tests for layer specifications."""

from __future__ import annotations

import pytest

from repro.models.layers import (
    ConvSpec,
    DenseSpec,
    PoolSpec,
    conv1x1,
    conv3x3,
    maxpool2,
)


class TestConvSpec:
    def test_int_params_normalised_to_pairs(self):
        conv = ConvSpec("c", 3, 8, kernel_size=3, stride=2, padding=1)
        assert conv.kernel_size == (3, 3)
        assert conv.stride == (2, 2)
        assert conv.padding == (1, 1)

    def test_non_square_kernel(self):
        conv = ConvSpec("c", 8, 8, kernel_size=(1, 7), padding=(0, 3))
        assert conv.kernel_size == (1, 7)
        assert conv.out_spatial((17, 17)) == (17, 17)

    def test_out_spatial_same(self):
        assert conv3x3("c", 3, 8).out_spatial((32, 32)) == (32, 32)

    def test_out_spatial_stride2(self):
        conv = ConvSpec("c", 3, 8, kernel_size=3, stride=2, padding=1)
        assert conv.out_spatial((224, 224)) == (112, 112)

    def test_weight_count(self):
        conv = ConvSpec("c", 3, 8, kernel_size=3)
        assert conv.weight_count == 8 * 3 * 9 + 8

    def test_weight_count_bn_no_bias(self):
        """Batch norm is held folded: conv weights plus one bias vector,
        with or without a bias of its own."""
        conv = ConvSpec("c", 3, 8, kernel_size=3, batch_norm=True, bias=False)
        assert conv.weight_count == 8 * 3 * 9 + 8
        both = ConvSpec("c", 3, 8, kernel_size=3, batch_norm=True, bias=True)
        assert both.weight_count == 8 * 3 * 9 + 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(in_channels=0, out_channels=8),
            dict(in_channels=3, out_channels=-1),
            dict(in_channels=3, out_channels=8, kernel_size=0),
            dict(in_channels=3, out_channels=8, stride=0),
            dict(in_channels=3, out_channels=8, padding=-1),
            dict(in_channels=3, out_channels=8, activation="gelu"),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(name="c", kernel_size=3)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ConvSpec(**base)

    def test_kind(self):
        assert conv1x1("c", 4, 4).kind == "conv"


class TestPoolSpec:
    def test_maxpool2_shorthand(self):
        pool = maxpool2("p", 16)
        assert pool.kernel_size == (2, 2) and pool.stride == (2, 2)
        assert pool.in_channels == pool.out_channels == 16

    def test_out_spatial(self):
        assert maxpool2("p", 8).out_spatial((14, 14)) == (7, 7)

    def test_avg_kind(self):
        pool = PoolSpec("p", 8, kernel_size=7, stride=1, kind_="avg")
        assert pool.out_spatial((7, 7)) == (1, 1)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            PoolSpec("p", 8, kind_="median")

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            PoolSpec("p", 0)


class TestDenseSpec:
    def test_weight_count(self):
        assert DenseSpec("fc", 100, 10).weight_count == 1010

    def test_invalid_features(self):
        with pytest.raises(ValueError):
            DenseSpec("fc", 0, 10)

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            DenseSpec("fc", 10, 10, activation="tanh")
