"""Tests for the four parallelization schemes and their paper-expected
ordering."""

from __future__ import annotations

import pytest

from repro.cluster.device import pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.schemes.base import PlanningError
from repro.schemes.early_fused import EarlyFusedScheme, default_fuse_count
from repro.schemes.layer_wise import LayerWiseScheme
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme


@pytest.fixture
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(6, 2, input_hw=64, in_channels=3)


@pytest.fixture
def cluster():
    return pi_cluster(4, 800)


class TestLayerWise:
    def test_one_phase_per_unit(self, model, cluster, net):
        plan = LayerWiseScheme().plan(model, cluster, net)
        assert plan.mode == "exclusive"
        assert plan.n_stages == model.n_units
        assert all(len(s.assignments) == len(cluster) for s in plan.stages)

    def test_cost_well_defined(self, model, cluster, net):
        plan = LayerWiseScheme().plan(model, cluster, net)
        cost = plan_cost(model, plan, net)
        assert cost.period == pytest.approx(cost.latency)
        assert cost.period > 0


class TestEarlyFused:
    def test_default_policy_fuses_early_units(self, model):
        k = default_fuse_count(model)
        assert 1 <= k < model.n_units

    def test_two_stages(self, model, cluster, net):
        plan = EarlyFusedScheme().plan(model, cluster, net)
        assert plan.mode == "exclusive"
        assert plan.n_stages == 2
        # First stage parallel, second on one (the fastest) device.
        assert len(plan.stages[0].assignments) == len(cluster)
        assert len(plan.stages[1].assignments) == 1

    def test_explicit_fuse_count(self, model, cluster, net):
        plan = EarlyFusedScheme(n_fused=3).plan(model, cluster, net)
        assert plan.stages[0].end == 3

    def test_fuse_everything(self, model, cluster, net):
        plan = EarlyFusedScheme(n_fused=model.n_units).plan(model, cluster, net)
        assert plan.n_stages == 1

    def test_overlong_fuse_rejected(self, model, cluster, net):
        with pytest.raises(PlanningError):
            EarlyFusedScheme(n_fused=model.n_units + 1).plan(model, cluster, net)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            EarlyFusedScheme(n_fused=0)


class TestOptimalFused:
    def test_exclusive_contiguous(self, model, cluster, net):
        plan = OptimalFusedScheme().plan(model, cluster, net)
        assert plan.mode == "exclusive"
        assert plan.stages[0].start == 0
        assert plan.stages[-1].end == model.n_units

    def test_not_worse_than_efl_or_lw(self, model, cluster, net):
        """OFL optimises over all fusion configurations including EFL's
        and (near) LW's, so its single-task time must be the best."""
        ofl = plan_cost(model, OptimalFusedScheme().plan(model, cluster, net), net)
        efl = plan_cost(model, EarlyFusedScheme().plan(model, cluster, net), net)
        lw = plan_cost(model, LayerWiseScheme().plan(model, cluster, net), net)
        assert ofl.latency <= efl.latency + 1e-9
        assert ofl.latency <= lw.latency + 1e-9

    def test_serial_groups_use_fastest(self, net):
        from repro.cluster.device import heterogeneous_cluster

        model = toy_chain(6, 2, input_hw=64, in_channels=3)
        cluster = heterogeneous_cluster([1200, 600, 600, 600])
        plan = OptimalFusedScheme().plan(model, cluster, net)
        for stage in plan.stages:
            if len(stage.assignments) == 1:
                assert stage.assignments[0][0].name == cluster.fastest.name


class TestPico:
    def test_pipelined_plan(self, model, cluster, net):
        plan = PicoScheme().plan(model, cluster, net)
        assert plan.mode == "pipelined"
        assert plan.stages[-1].end == model.n_units

    def test_infeasible_latency_raises(self, model, cluster, net):
        with pytest.raises(PlanningError):
            PicoScheme(t_lim=1e-12).plan(model, cluster, net)

    def test_invalid_t_lim_rejected(self):
        with pytest.raises(ValueError):
            PicoScheme(t_lim=0)

    def test_pareto_variant_at_least_as_good(self, model, cluster, net):
        from repro.core.heterogeneous import adapt_to_cluster
        from repro.core.pareto import plan_pareto

        dp = plan_cost(model, PicoScheme().plan(model, cluster, net), net)
        homo = plan_pareto(model, cluster, net)
        pareto = plan_cost(model, adapt_to_cluster(model, homo, cluster), net)
        assert pareto.period <= dp.period + 1e-9


class TestPaperOrdering:
    """The shape the paper's Figs. 8–9 report, as invariants."""

    @pytest.mark.parametrize("model_name", ["vgg16", "yolov2"])
    def test_scheme_period_ordering(self, model_name, net):
        model = get_model(model_name)
        cluster = pi_cluster(8, 600)
        periods = {}
        for scheme in (
            LayerWiseScheme(), EarlyFusedScheme(), OptimalFusedScheme(), PicoScheme()
        ):
            plan = scheme.plan(model, cluster, net)
            periods[scheme.name] = plan_cost(model, plan, net).period
        assert periods["PICO"] < periods["OFL"] <= periods["EFL"] < periods["LW"]

    def test_pico_speedup_in_paper_band(self, net):
        """Throughput gain over EFL: 1.8–6.2x in the paper."""
        model = get_model("vgg16")
        cluster = pi_cluster(8, 600)
        efl = plan_cost(model, EarlyFusedScheme().plan(model, cluster, net), net)
        pico = plan_cost(model, PicoScheme().plan(model, cluster, net), net)
        gain = efl.period / pico.period
        assert 1.5 < gain < 8.0
