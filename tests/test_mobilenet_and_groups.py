"""Tests for grouped/depthwise convolution and MobileNetV2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.flops import layer_flops, model_flops
from repro.models.graph import chain_model
from repro.models.layers import ConvSpec
from repro.models.mobilenet import inverted_residual, mobilenet_v2
from repro.models.zoo import get_model
from repro.nn import Engine, compile_segment, extract_tile, run_segment
from repro.partition.regions import Region
from repro.testing import run_unit
from repro.testing.kernels import conv2d, relu6


class TestGroupedConv:
    def test_depthwise_matches_per_channel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        got = conv2d(x, w, None, (1, 1), (1, 1, 1, 1), groups=4)
        for c in range(4):
            want = conv2d(x[c : c + 1], w[c : c + 1], None, (1, 1), (1, 1, 1, 1))
            np.testing.assert_allclose(got[c : c + 1], want, atol=1e-5)

    def test_groups_one_equals_dense(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            conv2d(x, w, None, groups=1), conv2d(x, w, None)
        )

    def test_two_groups_match_blockwise(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((6, 2, 3, 3)).astype(np.float32)
        got = conv2d(x, w, None, groups=2)
        top = conv2d(x[:2], w[:3], None)
        bottom = conv2d(x[2:], w[3:], None)
        np.testing.assert_allclose(got, np.concatenate([top, bottom]), atol=1e-5)

    def test_invalid_groups_rejected(self):
        x = np.zeros((4, 5, 5), dtype=np.float32)
        w = np.zeros((6, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            conv2d(x, w, None, groups=3)  # 4 % 3 != 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ConvSpec("c", 4, 6, kernel_size=3, groups=5)
        with pytest.raises(ValueError):
            ConvSpec("c", 4, 6, kernel_size=3, groups=0)

    def test_depthwise_flops_eq2_per_group(self):
        conv = ConvSpec("dw", 32, 32, kernel_size=3, padding=1, groups=32)
        # k^2 * (cin/groups) * area * cout
        assert layer_flops(conv, Region.full(10, 10)) == 9 * 1 * 100 * 32

    def test_weight_count_grouped(self):
        conv = ConvSpec("g", 8, 8, kernel_size=3, groups=4, bias=False)
        assert conv.weight_count == 8 * 2 * 9

    def test_relu6_clips(self):
        x = np.array([-1.0, 3.0, 100.0], dtype=np.float32)
        np.testing.assert_array_equal(relu6(x), [0.0, 3.0, 6.0])


class TestMobileNetV2:
    def test_published_flops(self):
        gmacs = model_flops(get_model("mobilenet_v2")) / 1e9
        assert 0.25 < gmacs < 0.35  # published ~0.30 GMACs

    def test_structure(self):
        model = get_model("mobilenet_v2")
        assert model.final_shape == (1280, 1, 1)
        blocks = [u for u in model.units if u.kind == "block"]
        assert len(blocks) == 17  # 1+2+3+4+3+3+1 bottlenecks

    def test_inverted_residual_shortcut_rule(self):
        with_shortcut = inverted_residual("a", 32, 32, stride=1, expand=6)
        without = inverted_residual("b", 32, 64, stride=2, expand=6)
        assert any(len(p) == 0 for p in with_shortcut.paths)
        assert all(len(p) > 0 for p in without.paths)

    def test_tiled_execution_bit_exact(self):
        model = get_model("mobilenet_v2", input_hw=32)
        engine = Engine(model, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(model.input_shape).astype(np.float32)
        outs = [x]
        for unit in model.units:
            outs.append(run_unit(engine, unit, outs[-1]))
        end = 6
        _, h, w = model.out_shape(end - 1)
        for bounds in [(0, h // 2), (h // 2, h)]:
            region = Region.from_bounds(bounds[0], bounds[1], 0, w)
            program = compile_segment(model, 0, end, region)
            tile = extract_tile(outs[0], program.input_region)
            got = run_segment(engine, program, tile)
            want = extract_tile(outs[end], region)
            np.testing.assert_allclose(got, want, atol=1e-4, rtol=1e-4)

    def test_plannable(self):
        from repro.cluster.device import pi_cluster
        from repro.core.plan import plan_cost
        from repro.cost.comm import NetworkModel
        from repro.schemes.pico import PicoScheme

        model = get_model("mobilenet_v2")
        net = NetworkModel.from_mbps(50.0)
        plan = PicoScheme().plan(model, pi_cluster(4, 600), net)
        cost = plan_cost(model, plan, net)
        assert cost.period > 0


def test_grouped_conv_chain_tiled():
    """Tiled execution through a depthwise layer inside a chain."""
    layers = [
        ConvSpec("pw", 3, 8, kernel_size=1),
        ConvSpec("dw", 8, 8, kernel_size=3, padding=1, groups=8),
        ConvSpec("proj", 8, 4, kernel_size=1, activation="linear"),
    ]
    model = chain_model("dwchain", (3, 12, 12), layers)
    engine = Engine(model, seed=0)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(model.input_shape).astype(np.float32)
    full = engine.forward_features(x)
    region = Region.from_bounds(3, 9, 0, 12)
    program = compile_segment(model, 0, 3, region)
    got = run_segment(engine, program, extract_tile(x, program.input_region))
    np.testing.assert_allclose(got, extract_tile(full, region), atol=1e-5)
