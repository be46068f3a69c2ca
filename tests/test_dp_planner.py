"""Tests for Algorithm 1 (DP planner) including brute-force optimality."""

from __future__ import annotations

import itertools
import math

import pytest

from repro.cluster.device import pi_cluster
from repro.core.dp_planner import plan_homogeneous
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.testing import StageTimeTable


@pytest.fixture
def net():
    return NetworkModel.from_mbps(50.0)


def brute_force_best(model, cluster, net, t_lim=math.inf):
    """Enumerate every contiguous split + device-count composition."""
    homo = cluster.homogenized()
    device = homo.devices[0]
    ts = StageTimeTable(model, device, net)
    n, d = model.n_units, len(cluster)
    best = None
    for k in range(1, min(n, d) + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            segs = list(zip(bounds, bounds[1:]))
            for counts in itertools.product(range(1, d + 1), repeat=k):
                if sum(counts) > d:
                    continue
                costs = [ts(s, e, p) for (s, e), p in zip(segs, counts)]
                latency = sum(costs)
                if latency > t_lim:
                    continue
                period = max(costs)
                if best is None or (period, latency) < best:
                    best = (period, latency)
    return best


class TestPlanHomogeneous:
    def test_matches_bruteforce_small(self, net):
        model = toy_chain(5, 1, input_hw=32)
        cluster = pi_cluster(3, 800)
        plan = plan_homogeneous(model, cluster, net)
        best = brute_force_best(model, cluster, net)
        assert plan is not None and best is not None
        assert plan.period == pytest.approx(best[0])

    def test_matches_bruteforce_other_shape(self, net):
        model = toy_chain(4, 0, input_hw=24, in_channels=3)
        cluster = pi_cluster(4, 600)
        plan = plan_homogeneous(model, cluster, net)
        best = brute_force_best(model, cluster, net)
        assert plan.period == pytest.approx(best[0])

    def test_stages_contiguous_and_within_budget(self, net):
        model = toy_chain(6, 1, input_hw=32)
        cluster = pi_cluster(4, 800)
        plan = plan_homogeneous(model, cluster, net)
        assert plan.stages[0].start == 0
        assert plan.stages[-1].end == model.n_units
        for a, b in zip(plan.stages, plan.stages[1:]):
            assert a.end == b.start
        assert plan.devices_used <= len(cluster)

    def test_single_device_single_stage(self, net):
        model = toy_chain(3, 0, input_hw=16)
        cluster = pi_cluster(1, 600)
        plan = plan_homogeneous(model, cluster, net)
        assert plan.n_stages == 1
        assert plan.period == pytest.approx(plan.latency)

    def test_latency_limit_enforced(self, net):
        # Large enough that the unconstrained optimum is a multi-stage
        # pipeline, so a latency budget can actually bind.
        model = toy_chain(8, 2, input_hw=64)
        cluster = pi_cluster(6, 800)
        free = plan_homogeneous(model, cluster, net)
        assert free.n_stages > 1
        # Find the minimum achievable latency by brute force, then pick
        # a budget strictly between it and the unconstrained optimum's
        # latency — guaranteed feasible yet actually binding.
        homo = cluster.homogenized()
        ts = StageTimeTable(model, homo.devices[0], net)
        min_latency = min(
            ts(0, model.n_units, p) for p in range(1, len(cluster) + 1)
        )
        assert min_latency < free.latency  # the constraint can bind
        t_lim = (min_latency + free.latency) / 2
        limited = plan_homogeneous(model, cluster, net, t_lim=t_lim)
        assert limited is not None
        assert limited.latency <= t_lim
        assert limited.period >= free.period

    def test_infeasible_limit_returns_none(self, net):
        model = toy_chain(4, 0, input_hw=16)
        cluster = pi_cluster(2, 600)
        assert plan_homogeneous(model, cluster, net, t_lim=1e-9) is None

    def test_period_never_worse_than_single_stage(self, net):
        model = toy_chain(6, 2, input_hw=32)
        cluster = pi_cluster(6, 600)
        homo = cluster.homogenized()
        ts = StageTimeTable(model, homo.devices[0], net)
        single = ts(0, model.n_units, len(cluster))
        plan = plan_homogeneous(model, cluster, net)
        assert plan.period <= single + 1e-12

    def test_more_devices_never_hurt(self, net):
        model = toy_chain(5, 1, input_hw=32)
        p4 = plan_homogeneous(model, pi_cluster(4, 800), net)
        p8 = plan_homogeneous(model, pi_cluster(8, 800), net)
        assert p8.period <= p4.period + 1e-12


class FakeTable:
    """A Ts provider with hand-injected stage costs (default 10.0)."""

    def __init__(self, costs):
        self.costs = costs

    def __call__(self, start, end, p):
        return self.costs.get((start, end, p), 10.0)

    def best(self, start, end, p):
        return (self(start, end, p), False)

    def is_branch(self, start, end, p):
        return False


class TestStageCountTieBreak:
    def test_ties_break_towards_fewer_stages(self, net):
        """Two plans tie at (period 2.0, latency 3.0) with 3 devices:
        a 3-stage split and a 2-stage split.  The DP must return the
        2-stage one — fewer stages means less inter-stage traffic for
        equal analytic cost."""
        model = toy_chain(4, 0, input_hw=16)  # 4 units
        cluster = pi_cluster(3, 600)
        table = FakeTable({
            (0, 1, 1): 0.5,
            (1, 2, 1): 0.5,
            (2, 4, 1): 2.0,  # 3-stage plan: periods (.5, .5, 2.0)
            (0, 3, 2): 2.0,
            (3, 4, 1): 1.0,  # 2-stage plan: periods (2.0, 1.0)
        })
        plan = plan_homogeneous(model, cluster, net, table=table)
        assert plan is not None
        assert plan.period == 2.0
        assert plan.latency == 3.0
        assert plan.n_stages == 2
        assert [(s.start, s.end, s.n_devices) for s in plan.stages] == [
            (0, 3, 2),
            (3, 4, 1),
        ]


class TestStageTimeTable:
    def test_caches(self, net):
        model = toy_chain(3, 0, input_hw=16)
        device = pi_cluster(2, 600).devices[0]
        ts = StageTimeTable(model, device, net)
        first = ts(0, 2, 1)
        assert ts(0, 2, 1) == first
        assert (0, 2, 1) in ts._cache
