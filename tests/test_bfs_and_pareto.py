"""Tests for the paper's "BFS" exhaustive optimum — ``plan_exact``, the
package's one exhaustive search — and the Pareto-frontier DP."""

from __future__ import annotations

import math
import time

import pytest

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.dp_planner import plan_homogeneous
from repro.core.exact import plan_exact, realize_exact
from repro.core.heterogeneous import adapt_to_cluster
from repro.core.pareto import plan_pareto
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.schemes import PlanningError


@pytest.fixture
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(4, 1, input_hw=32)


class TestBFS:
    def test_not_worse_than_pico(self, model, net):
        cluster = heterogeneous_cluster([1200, 800, 600])
        result = plan_exact(model, cluster, net)
        assert result.optimal
        homo = plan_homogeneous(model, cluster, net)
        pico = plan_cost(model, adapt_to_cluster(model, homo, cluster), net)
        assert result.period <= pico.period + 1e-9

    def test_plan_valid(self, model, net):
        cluster = pi_cluster(3, 800)
        result = plan_exact(model, cluster, net)
        plan = realize_exact(model, result)
        assert plan.stages[0].start == 0
        assert plan.stages[-1].end == model.n_units
        cost = plan_cost(model, plan, net)
        assert cost.period == pytest.approx(result.period)

    def test_deadline_returns_incumbent(self, net):
        model = toy_chain(8, 2, input_hw=64)
        cluster = heterogeneous_cluster([1200, 1000, 800, 800, 600, 600])
        started = time.perf_counter()
        result = plan_exact(model, cluster, net, deadline_s=0.05)
        elapsed = time.perf_counter() - started
        # Either it got lucky and finished, or it reports non-optimal —
        # and then still hands back a complete plan no worse than greedy.
        if not result.optimal:
            assert elapsed >= 0.05
        assert result.stages[-1].end == model.n_units
        assert result.period <= result.incumbent_period

    def test_latency_budget_respected(self, model, net):
        cluster = pi_cluster(3, 800)
        free = plan_exact(model, cluster, net)
        with pytest.raises(PlanningError, match="no plan"):
            plan_exact(model, cluster, net, t_lim=0.0)
        budget = free.latency * 0.9
        try:
            constrained = plan_exact(model, cluster, net, t_lim=budget)
        except PlanningError:
            return
        assert constrained.latency <= budget + 1e-9
        assert constrained.period >= free.period

    def test_max_stages_cap(self, model, net):
        cluster = pi_cluster(4, 800)
        result = plan_exact(model, cluster, net, max_stages=1)
        assert result.n_stages == 1
        assert realize_exact(model, result).n_stages == 1

    def test_single_device(self, net):
        model = toy_chain(3, 0, input_hw=16)
        cluster = pi_cluster(1, 600)
        result = plan_exact(model, cluster, net)
        assert result.n_stages == 1

    def test_device_classes_collapse_search(self, model, net):
        """Homogeneous 4 devices must explore far fewer nodes than 4
        distinct capacity classes."""
        homo = plan_exact(model, pi_cluster(4, 800), net)
        hetero = plan_exact(
            model, heterogeneous_cluster([1200, 1000, 800, 600]), net
        )
        assert homo.nodes < hetero.nodes


class TestPareto:
    def test_matches_dp_unconstrained(self, model, net):
        """With t_lim = inf the DP is exact, so Pareto must agree."""
        cluster = pi_cluster(4, 800)
        dp = plan_homogeneous(model, cluster, net)
        pareto = plan_pareto(model, cluster, net)
        assert pareto.period == pytest.approx(dp.period)

    def test_never_worse_than_dp_under_budget(self, net):
        model = toy_chain(6, 1, input_hw=32)
        cluster = pi_cluster(5, 800)
        free = plan_pareto(model, cluster, net)
        for factor in (0.95, 0.8, 0.65):
            t_lim = free.latency * factor if free.latency > 0 else math.inf
            dp = plan_homogeneous(model, cluster, net, t_lim=t_lim)
            pareto = plan_pareto(model, cluster, net, t_lim=t_lim)
            if pareto is None:
                assert dp is None
                continue
            assert pareto.latency <= t_lim + 1e-12
            if dp is not None:
                assert pareto.period <= dp.period + 1e-12

    def test_infeasible_returns_none(self, model, net):
        assert plan_pareto(model, pi_cluster(2, 600), net, t_lim=1e-9) is None

    def test_stages_contiguous(self, model, net):
        plan = plan_pareto(model, pi_cluster(4, 800), net)
        assert plan.stages[0].start == 0
        assert plan.stages[-1].end == model.n_units
        for a, b in zip(plan.stages, plan.stages[1:]):
            assert a.end == b.start
