"""Tests for model graphs (units, blocks, shape inference)."""

from __future__ import annotations

import pytest

from repro.models.graph import BlockUnit, LayerUnit, Model, chain_model
from repro.models.layers import ConvSpec, DenseSpec, conv1x1, conv3x3, maxpool2
from repro.models.resnet import basic_block
from repro.testing.models import conv_layer_count, pool_layer_count


class TestLayerUnit:
    def test_delegation(self):
        unit = LayerUnit(conv3x3("c", 3, 16))
        assert unit.name == "c"
        assert unit.kind == "conv"
        assert unit.in_channels == 3
        assert unit.out_channels(3) == 16
        assert unit.out_spatial((10, 10)) == (10, 10)
        assert unit.total_stride(3, (10, 10)) == (1, 1)
        assert unit.paths() == ((unit.layer,),)
        assert unit.merge is None


class TestBlockUnit:
    def test_residual_identity(self):
        block = basic_block("b", 16, 16)
        assert block.in_channels == 16
        assert block.out_channels(16) == 16
        assert block.out_spatial((8, 8)) == (8, 8)
        assert block.total_stride(16, (8, 8)) == (1, 1)

    def test_residual_downsample(self):
        block = basic_block("b", 16, 32, stride=2)
        assert block.out_channels(16) == 32
        assert block.out_spatial((8, 8)) == (4, 4)
        assert block.total_stride(16, (8, 8)) == (2, 2)

    def test_concat_channels_sum(self):
        block = BlockUnit(
            "inc",
            ((conv1x1("a", 8, 4),), (conv3x3("b", 8, 6),)),
            merge="concat",
        )
        assert block.out_channels(8) == 10

    def test_add_channel_mismatch_rejected(self):
        block = BlockUnit(
            "bad",
            ((conv1x1("a", 8, 4),), (conv1x1("b", 8, 6),)),
            merge="add",
        )
        with pytest.raises(ValueError):
            block.out_channels(8)

    def test_spatial_mismatch_rejected(self):
        block = BlockUnit(
            "bad",
            (
                (conv3x3("a", 8, 8),),
                (ConvSpec("b", 8, 8, kernel_size=3, stride=2, padding=1),),
            ),
            merge="add",
        )
        with pytest.raises(ValueError):
            block.out_spatial((8, 8))

    def test_all_identity_rejected(self):
        with pytest.raises(ValueError):
            BlockUnit("bad", ((), ()), merge="add")

    def test_unknown_merge_rejected(self):
        with pytest.raises(ValueError):
            BlockUnit("bad", ((conv1x1("a", 4, 4),),), merge="mul")

    def test_unknown_post_activation_rejected(self):
        with pytest.raises(ValueError):
            BlockUnit(
                "bad", ((conv1x1("a", 4, 4),),), merge="add", post_activation="swish"
            )


class TestModel:
    def test_shape_inference(self):
        model = chain_model(
            "m", (3, 16, 16), [conv3x3("c1", 3, 8), maxpool2("p", 8), conv3x3("c2", 8, 4)]
        )
        assert model.in_shape(0) == (3, 16, 16)
        assert model.out_shape(0) == (8, 16, 16)
        assert model.out_shape(1) == (8, 8, 8)
        assert model.final_shape == (4, 8, 8)
        assert model.n_units == 3

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chain_model("m", (3, 16, 16), [conv3x3("c1", 4, 8)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Model("m", (3, 8, 8), ())

    def test_head_feature_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chain_model(
                "m", (3, 8, 8), [conv3x3("c", 3, 4)],
                head=[DenseSpec("fc", 100, 10)],
            )

    def test_head_chain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chain_model(
                "m", (3, 8, 8), [conv3x3("c", 3, 4)],
                head=[DenseSpec("fc1", 4 * 64, 10), DenseSpec("fc2", 20, 5)],
            )

    def test_iter_layers_flattens_blocks(self):
        model = Model(
            "m", (3, 8, 8),
            (LayerUnit(conv3x3("stem", 3, 16)), basic_block("b1", 16, 16)),
        )
        names = [info.layer.name for info in model.iter_layers()]
        assert names == ["stem", "b1.conv1", "b1.conv2"]
        infos = list(model.iter_layers())
        assert infos[0].path_index is None
        assert infos[1].path_index == 0
        assert infos[1].in_shape == (16, 8, 8)

    def test_layer_counts(self):
        model = chain_model(
            "m", (3, 16, 16), [conv3x3("c1", 3, 8), maxpool2("p", 8)]
        )
        assert conv_layer_count(model) == 1
        assert pool_layer_count(model) == 1

    def test_describe_mentions_every_unit(self):
        model = chain_model("m", (3, 8, 8), [conv3x3("c1", 3, 4), maxpool2("p", 4)])
        text = model.describe()
        assert "c1" in text and "p" in text
