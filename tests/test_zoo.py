"""Tests pinning the model zoo against published architecture facts."""

from __future__ import annotations

import pytest

from repro.cost.flops import model_flops
from repro.models.zoo import available_models, get_model
from repro.testing.models import conv_layer_count, pool_layer_count


class TestVGG16:
    def test_layer_counts_match_paper_table1(self):
        model = get_model("vgg16")
        assert conv_layer_count(model) == 13
        assert pool_layer_count(model) == 5
        assert len(model.head) == 3

    def test_final_shape(self):
        assert get_model("vgg16").final_shape == (512, 7, 7)

    def test_flops_match_published(self):
        # VGG16 is ~15.5 GMACs at 224x224.
        gmacs = model_flops(get_model("vgg16")) / 1e9
        assert 15.0 < gmacs < 16.0


class TestYOLOv2:
    def test_layer_counts_match_paper_table1(self):
        model = get_model("yolov2")
        assert conv_layer_count(model) == 23
        assert pool_layer_count(model) == 5
        assert not model.head  # 1x1 conv replaces the FC layer

    def test_input_448(self):
        assert get_model("yolov2").input_shape == (3, 448, 448)

    def test_deeper_than_vgg(self):
        # The paper: "nearly twice of VGG-16".
        yolo = get_model("yolov2")
        vgg = get_model("vgg16")
        assert yolo.n_units > 1.5 * vgg.n_units

    def test_detection_output_channels(self):
        model = get_model("yolov2")
        assert model.final_shape[0] == 5 * (5 + 80)


class TestResNet34:
    def test_block_structure(self):
        model = get_model("resnet34")
        blocks = [u for u in model.units if u.kind == "block"]
        assert len(blocks) == 16  # 3 + 4 + 6 + 3

    def test_conv_count(self):
        # 1 stem + 32 block convs + 3 downsample projections = 36.
        assert conv_layer_count(get_model("resnet34")) == 36

    def test_flops_match_published(self):
        gmacs = model_flops(get_model("resnet34")) / 1e9
        assert 3.3 < gmacs < 4.0

    def test_final_shape(self):
        assert get_model("resnet34").final_shape == (512, 1, 1)


class TestInceptionV3:
    def test_block_structure(self):
        model = get_model("inception_v3")
        blocks = [u for u in model.units if u.kind == "block"]
        assert len(blocks) == 11  # 3 A + redA + 4 B + redB + 2 C

    def test_more_layers_per_block_than_resnet(self):
        # The paper's Fig. 12 explanation.
        inception = get_model("inception_v3")
        resnet = get_model("resnet34")
        inc_blocks = [u for u in inception.units if u.kind == "block"]
        res_blocks = [u for u in resnet.units if u.kind == "block"]
        inc_layers = sum(len(p) for b in inc_blocks for p in b.paths) / len(inc_blocks)
        res_layers = sum(len(p) for b in res_blocks for p in b.paths) / len(res_blocks)
        assert inc_layers > 2 * res_layers

    def test_final_channels(self):
        assert get_model("inception_v3").final_shape == (2048, 1, 1)

    def test_flops_ballpark(self):
        gmacs = model_flops(get_model("inception_v3")) / 1e9
        assert 5.0 < gmacs < 7.0  # ~5.7 published; flattened C adds a little


class TestToy:
    def test_fig13_model(self):
        model = get_model("fig13_toy")
        assert conv_layer_count(model) == 8
        assert pool_layer_count(model) == 2
        assert model.input_shape == (1, 64, 64)


class TestZoo:
    def test_available(self):
        names = available_models()
        assert {"vgg16", "yolov2", "resnet34", "inception_v3"} <= set(names)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_model("alexnet")

    def test_kwargs_forwarded(self):
        model = get_model("vgg16", input_hw=128)
        assert model.input_shape == (3, 128, 128)

    @pytest.mark.parametrize("name", ["vgg16", "yolov2", "resnet34", "inception_v3"])
    def test_shapes_consistent(self, name):
        model = get_model(name)
        # Shape inference must produce monotone non-increasing spatial dims.
        heights = [s[1] for s in model.shapes]
        assert all(a >= b for a, b in zip(heights, heights[1:]))
