"""Tests for intra-block (branch-parallel) partitioning — the paper's
future-work extension."""

from __future__ import annotations

import pytest

from repro.cluster.device import Device, pi_cluster
from repro.core.dp_planner import plan_homogeneous
from repro.core.heterogeneous import adapt_to_cluster
from repro.core.plan import PipelinePlan, StagePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import full_unit_flops
from repro.cost.stage_cost import branch_stage_time
from repro.testing.planner import homogeneous_stage_time
from repro.models.graph import Model
from repro.models.inception import inception_v3
from repro.models.resnet import basic_block
from repro.models.zoo import get_model
from repro.partition.branches import (
    assign_paths_lpt,
    is_branchable,
    path_flops,
    path_input_region,
    path_out_channels,
)
from repro.partition.regions import Region
from repro.schemes.pico import PicoScheme

NET = NetworkModel.from_mbps(50.0)


@pytest.fixture(scope="module")
def inception():
    return inception_v3()


def first_branchable(model):
    for idx, unit in enumerate(model.units):
        if is_branchable(unit):
            return idx
    raise AssertionError("no branchable unit")


class TestBranchable:
    def test_concat_blocks_qualify(self, inception):
        assert any(is_branchable(u) for u in inception.units)

    def test_add_blocks_do_not(self):
        assert not is_branchable(basic_block("b", 8, 8))

    def test_plain_layers_do_not(self, inception):
        assert not is_branchable(inception.units[0])


class TestPathAccounting:
    def test_path_flops_sum_to_unit(self, inception):
        idx = first_branchable(inception)
        assert sum(path_flops(inception, idx)) == pytest.approx(
            full_unit_flops(inception, idx)
        )

    def test_path_channels_sum_to_out(self, inception):
        idx = first_branchable(inception)
        assert sum(path_out_channels(inception, idx)) == (
            inception.out_shape(idx)[0]
        )

    def test_input_region_union(self, inception):
        idx = first_branchable(inception)
        unit = inception.units[idx]
        all_paths = tuple(range(len(unit.paths)))
        union = path_input_region(inception, idx, all_paths)
        for i in all_paths:
            single = path_input_region(inception, idx, (i,))
            assert union.contains(single)

    def test_non_branchable_rejected(self, inception):
        with pytest.raises(ValueError):
            path_flops(inception, 0)

    def test_empty_selection_rejected(self, inception):
        idx = first_branchable(inception)
        with pytest.raises(ValueError):
            path_input_region(inception, idx, ())


class TestLPT:
    def test_heaviest_to_fastest_first(self):
        groups = assign_paths_lpt([10.0, 1.0], [1.0, 5.0])
        # Heaviest path lands on the faster device.
        assert 0 in groups[1]

    def test_all_paths_assigned_once(self):
        groups = assign_paths_lpt([3.0, 1.0, 4.0, 1.0, 5.0], [1.0, 1.0, 1.0])
        flat = sorted(i for g in groups for i in g)
        assert flat == [0, 1, 2, 3, 4]

    def test_more_devices_than_paths(self):
        groups = assign_paths_lpt([1.0, 2.0], [1.0] * 4)
        assert sum(len(g) for g in groups) == 2

    def test_balances_normalised_load(self):
        groups = assign_paths_lpt([4.0, 4.0, 4.0, 4.0], [1.0, 1.0])
        loads = [sum(4.0 for _ in g) for g in groups]
        assert loads == [8.0, 8.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_paths_lpt([], [1.0])
        with pytest.raises(ValueError):
            assign_paths_lpt([1.0], [])
        with pytest.raises(ValueError):
            assign_paths_lpt([1.0], [0.0])


class TestBranchStageTime:
    def test_zero_redundancy(self, inception):
        idx = first_branchable(inception)
        unit = inception.units[idx]
        dev = Device("d", 1e9)
        groups = assign_paths_lpt(
            path_flops(inception, idx), [dev.capacity] * 2
        )
        cost = branch_stage_time(
            inception, idx, tuple((dev, g) for g in groups), NET
        )
        for dc in cost.devices:
            assert dc.flops - dc.owned_flops == pytest.approx(0.0)
        assert len(unit.paths) >= 2

    def test_total_flops_conserved(self, inception):
        idx = first_branchable(inception)
        dev = Device("d", 1e9)
        groups = assign_paths_lpt(path_flops(inception, idx), [dev.capacity] * 3)
        cost = branch_stage_time(
            inception, idx, tuple((dev, g) for g in groups), NET
        )
        assert sum(dc.flops for dc in cost.devices) == pytest.approx(
            full_unit_flops(inception, idx)
        )

    def test_incomplete_coverage_rejected(self, inception):
        idx = first_branchable(inception)
        dev = Device("d", 1e9)
        with pytest.raises(ValueError):
            branch_stage_time(inception, idx, ((dev, (0,)),), NET)

    def test_branch_beats_strips_on_factorised_blocks(self, inception):
        """The 17x17 blocks with 7x1/1x7 kernels have tall halos; whole-
        path assignment must win at 8 devices (the measured motivation
        for this extension)."""
        dev = pi_cluster(8, 600).devices[0]
        wins = 0
        for idx, unit in enumerate(inception.units):
            if not is_branchable(unit):
                continue
            if inception.out_shape(idx)[1] != 17:
                continue
            strip = homogeneous_stage_time(inception, idx, idx + 1, 8, dev, NET).total
            groups = assign_paths_lpt(
                path_flops(inception, idx), [dev.capacity] * 8
            )
            branch = branch_stage_time(
                inception, idx, tuple((dev, g) for g in groups), NET
            ).total
            if branch < strip:
                wins += 1
        assert wins >= 3


class TestBranchPlans:
    def test_stageplan_validation(self):
        dev_a, dev_b = Device("a", 1.0), Device("b", 1.0)
        region = Region.full(8, 8)
        with pytest.raises(ValueError):  # multi-unit branch stage
            StagePlan(0, 2, ((dev_a, region),), path_groups=((0,),))
        with pytest.raises(ValueError):  # group/assignment mismatch
            StagePlan(0, 1, ((dev_a, region),), path_groups=((0,), (1,)))
        with pytest.raises(ValueError):  # duplicate path
            StagePlan(
                0, 1, ((dev_a, region), (dev_b, region)),
                path_groups=((0,), (0,)),
            )

    def test_allow_branch_never_worse(self):
        model = get_model("inception_v3")
        cluster = pi_cluster(8, 600)
        base = plan_homogeneous(model, cluster, NET)
        branchy = plan_homogeneous(model, cluster, NET, allow_branch=True)
        assert branchy.period <= base.period + 1e-12

    def test_adapted_branch_plan_costs_match(self):
        """If the homogeneous plan uses branch stages, adaptation must
        produce a valid plan whose cost evaluation succeeds."""
        model = get_model("inception_v3")
        cluster = pi_cluster(16, 600)
        net = NetworkModel.from_mbps(300.0)
        homo = plan_homogeneous(model, cluster, net, allow_branch=True)
        plan = adapt_to_cluster(model, homo, cluster)
        cost = plan_cost(model, plan, net)
        assert cost.period == pytest.approx(homo.period, rel=1e-6)

    def test_scheme_flag(self):
        scheme = PicoScheme(branch_parallel=True)
        assert scheme.name == "PICO+B"
