"""Tests for stage timing (paper Eq. 5–9)."""

from __future__ import annotations

import pytest

from repro.cluster.device import Device, pi_cluster, raspberry_pi
from repro.cost.comm import NetworkModel, region_bytes
from repro.cost.flops import CostOptions, head_flops, segment_flops
from repro.cost.stage_cost import single_device_time, stage_time
from repro.models.graph import chain_model
from repro.models.layers import DenseSpec, conv3x3
from repro.models.toy import toy_chain
from repro.partition.fused import segment_input_region
from repro.partition.regions import Region
from repro.testing.planner import homogeneous_stage_time


@pytest.fixture
def model():
    return toy_chain(3, 1, input_hw=16, in_channels=3, base_channels=8)


@pytest.fixture
def net():
    return NetworkModel.from_mbps(50.0)


class TestStageTime:
    def test_eq9_hand_computed(self, model, net):
        device = Device("d", capacity=1e6, alpha=1.0)
        _, h, w = model.final_shape
        region = Region.full(h, w)
        cost = stage_time(model, 0, model.n_units, [(device, region)], net)
        flops = segment_flops(model, 0, model.n_units, region)
        in_region = segment_input_region(model, 0, model.n_units, region)
        nbytes = region_bytes(3, in_region) + region_bytes(
            model.final_shape[0], region
        )
        assert cost.t_comp == pytest.approx(flops / 1e6)
        assert cost.t_comm == pytest.approx(net.transfer_time(nbytes))
        assert cost.total == pytest.approx(cost.t_comp + cost.t_comm)

    def test_comp_is_max_comm_is_sum(self, model, net):
        fast = Device("fast", capacity=2e6)
        slow = Device("slow", capacity=1e6)
        _, h, w = model.final_shape
        top = Region.from_bounds(0, h // 2, 0, w)
        bottom = Region.from_bounds(h // 2, h, 0, w)
        cost = stage_time(model, 0, model.n_units, [(fast, top), (slow, bottom)], net)
        assert cost.t_comp == pytest.approx(max(dc.t_comp for dc in cost.devices))
        assert cost.t_comm == pytest.approx(sum(dc.t_comm for dc in cost.devices))

    def test_empty_region_free(self, model, net):
        device = Device("d", capacity=1e6)
        _, h, w = model.final_shape
        cost = stage_time(
            model, 0, 1,
            [(device, Region.full(16, 16)), (device, Region.from_bounds(0, 0, 0, 16))],
            net,
        )
        assert cost.devices[1].t_comp == 0.0
        assert cost.devices[1].t_comm == 0.0

    def test_no_assignments_rejected(self, model, net):
        with pytest.raises(ValueError):
            stage_time(model, 0, 1, [], net)

    def test_head_billed_to_fastest(self, net):
        model = chain_model(
            "m", (3, 8, 8), [conv3x3("c", 3, 4)],
            head=[DenseSpec("fc", 256, 10)],
        )
        fast = Device("fast", capacity=2e6)
        slow = Device("slow", capacity=1e6)
        cost = stage_time(
            model, 0, 1,
            [(slow, Region.from_bounds(0, 4, 0, 8)), (fast, Region.from_bounds(4, 8, 0, 8))],
            net,
            with_head=True,
        )
        assert cost.t_head == pytest.approx(head_flops(model) / 2e6)

    def test_head_skipped_without_flag(self, net):
        model = chain_model(
            "m", (3, 8, 8), [conv3x3("c", 3, 4)],
            head=[DenseSpec("fc", 256, 10)],
        )
        device = Device("d", capacity=1e6)
        cost = stage_time(model, 0, 1, [(device, Region.full(8, 8))], net)
        assert cost.t_head == 0.0

    def test_head_skipped_when_option_disabled(self, net):
        model = chain_model(
            "m", (3, 8, 8), [conv3x3("c", 3, 4)],
            head=[DenseSpec("fc", 256, 10)],
        )
        device = Device("d", capacity=1e6)
        cost = stage_time(
            model, 0, 1, [(device, Region.full(8, 8))], net,
            options=CostOptions(include_head=False), with_head=True,
        )
        assert cost.t_head == 0.0


class TestHomogeneousStageTime:
    def test_matches_manual_equal_split(self, model, net):
        device = raspberry_pi("avg", 1000)
        cost = homogeneous_stage_time(model, 0, model.n_units, 2, device, net)
        assert len(cost.devices) == 2
        _, h, w = model.final_shape
        halves = [dc.out_region.height for dc in cost.devices]
        assert sum(halves) == h

    def test_more_devices_lower_compute(self, model, net):
        device = raspberry_pi("avg", 1000)
        one = homogeneous_stage_time(model, 0, model.n_units, 1, device, net)
        four = homogeneous_stage_time(model, 0, model.n_units, 4, device, net)
        assert four.t_comp < one.t_comp
        assert four.t_comm > one.t_comm  # halo + per-device transfers


class TestSingleDeviceTime:
    def test_equals_full_flops_over_capacity(self, model):
        device = Device("d", capacity=1e6)
        got = single_device_time(model, device)
        _, h, w = model.final_shape
        want = sum(
            segment_flops(
                model, i, i + 1,
                Region.full(model.out_shape(i)[1], model.out_shape(i)[2]),
            )
            for i in range(model.n_units)
        ) / 1e6
        assert got == pytest.approx(want)

    def test_scales_inversely_with_capacity(self, model):
        slow = single_device_time(model, Device("s", 1e6))
        fast = single_device_time(model, Device("f", 2e6))
        assert slow == pytest.approx(2 * fast)

    def test_cluster_parallel_beats_single(self, model, net):
        cluster = pi_cluster(4, 1000)
        single = single_device_time(model, cluster.devices[0])
        stage = homogeneous_stage_time(
            model, 0, model.n_units, 4, cluster.devices[0], net
        )
        assert stage.t_comp < single
