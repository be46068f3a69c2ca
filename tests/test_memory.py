"""Tests for per-device memory accounting."""

from __future__ import annotations

import pytest

from repro.cluster.device import pi_cluster
from repro.cost.comm import NetworkModel
from repro.cost.memory import (
    MemoryError_,
    check_memory,
    plan_memory,
    segment_activation_bytes,
    segment_weight_bytes,
)
from repro.models.graph import Model, chain_model
from repro.models.layers import ConvSpec, DenseSpec, conv3x3
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn.weights import init_weights
from repro.partition.regions import Region
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.pico import PicoScheme

NET = NetworkModel.from_mbps(50.0)


class TestWeightBytes:
    def test_counts_conv_params(self):
        model = chain_model("m", (3, 8, 8), [conv3x3("c", 3, 4)])
        # 4*3*9 weights + 4 biases, float32.
        assert segment_weight_bytes(model, 0, 1) == (108 + 4) * 4

    def test_head_charged_to_no_segment(self):
        """The coordinator runs the dense head (``Engine.run_head``), so
        no stage device holds it, the last one included."""
        model = chain_model(
            "m", (3, 8, 8), [conv3x3("c1", 3, 4), conv3x3("c2", 4, 4)],
            head=[DenseSpec("fc", 256, 10)],
        )
        first = segment_weight_bytes(model, 0, 1)
        last = segment_weight_bytes(model, 1, 2)
        assert last == (4 * 4 * 9 + 4) * 4
        assert first == (4 * 3 * 9 + 4) * 4

    @pytest.mark.parametrize("name", ["resnet34", "mobilenet_v2", "yolov2"])
    def test_counts_what_the_build_holds(self, name):
        """Batch norm counts as the engine holds it, folded: the whole
        model's segment is its conv parameters' bytes, no head."""
        model = get_model(name, input_hw=64)
        head = {dense.name for dense in model.head}
        held = sum(
            array.nbytes
            for layer, params in init_weights(model).items() if layer not in head
            for array in params.values()
        )
        assert segment_weight_bytes(model, 0, model.n_units) == held

    def test_block_internals_counted(self):
        model = Model("m", (4, 8, 8), (basic_block("b", 4, 4),))
        got = segment_weight_bytes(model, 0, 1)
        expected_params = sum(
            info.layer.weight_count for info in model.iter_layers()
        )
        assert got == expected_params * 4

    def test_pools_free(self):
        model = toy_chain(1, 1, input_hw=16)
        conv_only = segment_weight_bytes(model, 0, 1)
        with_pool = segment_weight_bytes(model, 0, 2)
        assert conv_only == with_pool


class TestActivationBytes:
    def test_single_conv(self):
        model = chain_model("m", (3, 8, 8), [conv3x3("c", 3, 4)])
        got = segment_activation_bytes(model, 0, 1, Region.full(8, 8))
        assert got == (3 * 64 + 4 * 64) * 4

    def test_smaller_region_less_memory(self):
        model = toy_chain(3, 1, input_hw=32)
        _, h, w = model.final_shape
        full = segment_activation_bytes(model, 0, model.n_units, Region.full(h, w))
        half = segment_activation_bytes(
            model, 0, model.n_units, Region.from_bounds(0, h // 2, 0, w)
        )
        assert half < full

    def test_empty_region_zero(self):
        model = toy_chain(2, 0, input_hw=16)
        assert segment_activation_bytes(
            model, 0, 1, Region.from_bounds(3, 3, 0, 16)
        ) == 0

    def test_block_holds_union_plus_paths(self):
        model = Model("m", (4, 8, 8), (basic_block("b", 4, 4),))
        got = segment_activation_bytes(model, 0, 1, Region.full(8, 8))
        # At merge time: union input (4x8x8 + halo -> full map) plus two
        # path outputs of 4x8x8 each.
        assert got >= (4 * 64 + 2 * 4 * 64) * 4


class TestPlanMemory:
    def test_fused_depth_raises_per_device_weights(self):
        """Fusing more layers means each device stores more weights —
        DeepThings' memory argument, inverted."""
        model = get_model("vgg16")
        cluster = pi_cluster(4, 600)
        shallow = EarlyFusedScheme(n_fused=4).plan(model, cluster, NET)
        deep = EarlyFusedScheme(n_fused=10).plan(model, cluster, NET)
        shallow_mem = {m.device_name: m for m in plan_memory(model, shallow)}
        deep_mem = {m.device_name: m for m in plan_memory(model, deep)}
        # The parallel-prefix devices hold strictly more weights when
        # the fused prefix deepens.
        name = shallow.stages[0].assignments[1][0].name
        assert deep_mem[name].weight_bytes > shallow_mem[name].weight_bytes

    def test_pipeline_splits_weights(self):
        """PICO's stages split the model: no device holds all weights."""
        model = get_model("vgg16")
        cluster = pi_cluster(8, 600)
        plan = PicoScheme().plan(model, cluster, NET)
        total_weights = segment_weight_bytes(model, 0, model.n_units)
        for entry in plan_memory(model, plan):
            assert entry.weight_bytes < total_weights

    def test_report_covers_all_devices(self):
        model = toy_chain(4, 1, input_hw=32, in_channels=3)
        cluster = pi_cluster(3, 800)
        plan = PicoScheme().plan(model, cluster, NET)
        report = plan_memory(model, plan)
        assert {m.device_name for m in report} == {
            d.name for d in plan.all_devices
        }


class TestCheckMemory:
    def test_passes_with_big_budget(self):
        model = toy_chain(4, 1, input_hw=32, in_channels=3)
        plan = PicoScheme().plan(model, pi_cluster(3, 800), NET)
        report = check_memory(model, plan, budget_bytes=1 << 30)
        assert report

    def test_rejects_tiny_budget(self):
        model = toy_chain(4, 1, input_hw=32, in_channels=3)
        plan = PicoScheme().plan(model, pi_cluster(3, 800), NET)
        with pytest.raises(MemoryError_):
            check_memory(model, plan, budget_bytes=16)

    def test_per_device_budgets(self):
        model = toy_chain(4, 1, input_hw=32, in_channels=3)
        plan = PicoScheme().plan(model, pi_cluster(3, 800), NET)
        report = plan_memory(model, plan)
        budgets = {m.device_name: m.total_bytes for m in report}
        assert check_memory(model, plan, budgets)  # exact budgets pass
        victim = report[0].device_name
        budgets[victim] -= 1
        with pytest.raises(MemoryError_, match=victim.replace("@", ".")):
            check_memory(model, plan, budgets)

    def test_unlisted_devices_unchecked(self):
        model = toy_chain(4, 1, input_hw=32, in_channels=3)
        plan = PicoScheme().plan(model, pi_cluster(3, 800), NET)
        assert check_memory(model, plan, budget_bytes={"nonexistent": 1})
