"""Tests for the full-map numpy engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.graph import Model
from repro.models.layers import DenseSpec, conv3x3, maxpool2
from repro.models.graph import LayerUnit
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights


@pytest.fixture
def chain_engine():
    model = toy_chain(3, 1, input_hw=16, in_channels=3, base_channels=4)
    return Engine(model, seed=0)


class TestEngine:
    def test_forward_shapes(self, chain_engine, rng):
        x = rng.standard_normal(chain_engine.model.input_shape).astype(np.float32)
        out = chain_engine.forward_features(x)
        assert out.shape == chain_engine.model.final_shape

    def test_deterministic(self, chain_engine, rng):
        x = rng.standard_normal(chain_engine.model.input_shape).astype(np.float32)
        a = chain_engine.forward_features(x)
        b = chain_engine.forward_features(x)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_weights(self, rng):
        model = toy_chain(2, 0, input_hw=8, in_channels=1, base_channels=4)
        x = rng.standard_normal(model.input_shape).astype(np.float32)
        a = Engine(model, seed=7).forward_features(x)
        b = Engine(model, seed=7).forward_features(x)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_weights(self, rng):
        model = toy_chain(2, 0, input_hw=8, in_channels=1, base_channels=4)
        x = rng.standard_normal(model.input_shape).astype(np.float32)
        a = Engine(model, seed=1).forward_features(x)
        b = Engine(model, seed=2).forward_features(x)
        assert not np.allclose(a, b)

    def test_bad_input_shape_rejected(self, chain_engine):
        with pytest.raises(ValueError):
            chain_engine.forward_features(np.zeros((3, 8, 8), dtype=np.float32))

    def test_relu_applied(self, chain_engine, rng):
        x = rng.standard_normal(chain_engine.model.input_shape).astype(np.float32)
        out = chain_engine.forward_features(x)
        assert out.min() >= 0.0  # every layer ends in relu


class TestBlocks:
    def test_residual_add_and_post_relu(self, rng):
        model = Model(
            "m", (4, 8, 8), (basic_block("b", 4, 4),)
        )
        engine = Engine(model, seed=0)
        x = rng.standard_normal((4, 8, 8)).astype(np.float32)
        out = engine.forward_features(x)
        assert out.shape == (4, 8, 8)
        assert out.min() >= 0.0  # post-activation relu

    def test_identity_shortcut_contributes(self, rng):
        """Zeroing the main path must leave the (relu'd) input."""
        model = Model("m", (4, 8, 8), (basic_block("b", 4, 4),))
        weights = init_weights(model, seed=0)
        for name in ("b.conv1", "b.conv2"):
            weights[name]["weight"][:] = 0.0
            weights[name]["gamma"][:] = 0.0
            weights[name]["beta"][:] = 0.0
        engine = Engine(model, weights)
        x = rng.standard_normal((4, 8, 8)).astype(np.float32)
        out = engine.forward_features(x)
        np.testing.assert_allclose(out, np.maximum(x, 0.0), atol=1e-6)

    def test_concat_channel_order(self, rng):
        from repro.models.graph import BlockUnit
        from repro.models.layers import conv1x1

        block = BlockUnit(
            "inc", ((conv1x1("a", 2, 3),), (conv1x1("b", 2, 5),)), merge="concat"
        )
        model = Model("m", (2, 4, 4), (block,))
        engine = Engine(model, seed=0)
        x = rng.standard_normal((2, 4, 4)).astype(np.float32)
        out = engine.forward_features(x)
        assert out.shape == (8, 4, 4)
        # First 3 channels must equal running path a alone.
        a_only = engine.run_layer(block.paths[0][0], x, (0, 0, 0, 0))
        np.testing.assert_allclose(out[:3], a_only, atol=1e-6)


class TestHead:
    def test_head_applied(self, rng):
        model = Model(
            "m",
            (3, 8, 8),
            (LayerUnit(conv3x3("c", 3, 4)), LayerUnit(maxpool2("p", 4))),
            head=(DenseSpec("fc", 4 * 4 * 4, 10, activation="softmax"),),
        )
        engine = Engine(model, seed=0)
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        out = engine.run(x)
        assert out.shape == (10,)
        assert np.isclose(out.sum(), 1.0, atol=1e-5)

    def test_headless_run_flattens(self, chain_engine, rng):
        x = rng.standard_normal(chain_engine.model.input_shape).astype(np.float32)
        out = chain_engine.run(x)
        assert out.ndim == 1


class TestZooExecution:
    @pytest.mark.parametrize(
        "name,hw", [("vgg16", 64), ("resnet34", 64)]
    )
    def test_small_resolution_forward(self, name, hw, rng):
        from repro.models.zoo import get_model

        model = get_model(name, input_hw=hw)
        engine = Engine(model, seed=0)
        x = rng.standard_normal(model.input_shape).astype(np.float32)
        out = engine.forward_features(x)
        assert out.shape == model.final_shape


class TestBatchedEngine:
    """Cross-frame ``(C, B, H, W)`` maps through the layer dispatch."""

    def _stacked(self, rng, b=3, hw=16, c=3):
        frames = [
            rng.standard_normal((c, hw, hw)).astype(np.float32)
            for _ in range(b)
        ]
        return frames, np.ascontiguousarray(np.stack(frames, axis=1))

    def test_batched_conv_exact_equals_per_frame(self, chain_engine, rng):
        layer = chain_engine.model.units[0].layer
        frames, stacked = self._stacked(rng)
        ph, pw = layer.padding
        pads = (ph, ph, pw, pw)
        got = chain_engine.run_layer(layer, stacked, pads)
        for b, frame in enumerate(frames):
            single = chain_engine.run_layer(layer, frame, pads)
            np.testing.assert_array_equal(got[:, b], single)
