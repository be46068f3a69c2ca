"""Tests for event-level WLAN contention in the simulator."""

from __future__ import annotations

import pytest

from repro.cluster.device import pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions
from repro.models.toy import toy_chain
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme
from repro.sim import Topology, simulate_scenario
from repro.workload.arrivals import saturation_arrivals


@pytest.fixture
def model():
    return toy_chain(6, 1, input_hw=48, in_channels=3, base_channels=8)


def measured_period(sim, warmup=5):
    trimmed = sim.steady_state(warmup)
    return 1.0 / trimmed.throughput if trimmed.throughput > 0 else float("inf")


class TestContention:
    def test_throughput_bounded_by_analytic_shared_medium(self, model):
        """With a slow WLAN, contention must push the measured period up
        to (at least) the analytic total-communication bound."""
        net = NetworkModel.from_mbps(5.0)  # comm-dominated
        cluster = pi_cluster(4, 1000)
        plan = PicoScheme().plan(model, cluster, net)
        if plan.n_stages < 2:
            pytest.skip("needs a multi-stage pipeline")
        bound = plan_cost(
            model, plan, net, CostOptions(shared_medium=True)
        ).period
        sim = simulate_scenario(
            model, plan, network=net, arrivals=saturation_arrivals(60),
            topology=Topology.bus(net, contended=True),
        )
        assert measured_period(sim) >= bound * 0.98

    def test_contention_never_faster_than_free_network(self, model):
        net = NetworkModel.from_mbps(10.0)
        cluster = pi_cluster(4, 1000)
        plan = PicoScheme().plan(model, cluster, net)
        free = simulate_scenario(
            model, plan, network=net,
            arrivals=saturation_arrivals(40),
        )
        contended = simulate_scenario(
            model, plan, network=net, arrivals=saturation_arrivals(40),
            topology=Topology.bus(net, contended=True),
        )
        assert contended.throughput <= free.throughput * 1.001

    def test_negligible_comm_no_effect(self, model):
        """On a near-infinite network the token never binds."""
        net = NetworkModel.from_mbps(100000.0)
        cluster = pi_cluster(4, 1000)
        plan = PicoScheme().plan(model, cluster, net)
        free = simulate_scenario(
            model, plan, network=net,
            arrivals=saturation_arrivals(40),
        )
        contended = simulate_scenario(
            model, plan, network=net, arrivals=saturation_arrivals(40),
            topology=Topology.bus(net, contended=True),
        )
        assert contended.throughput == pytest.approx(free.throughput, rel=0.02)

    def test_exclusive_plans_unchanged(self, model):
        """One-stage schemes hold the whole cluster anyway — serialising
        the network cannot change their task gap."""
        net = NetworkModel.from_mbps(20.0)
        cluster = pi_cluster(3, 800)
        plan = OptimalFusedScheme().plan(model, cluster, net)
        free = simulate_scenario(
            model, plan, network=net,
            arrivals=saturation_arrivals(20),
        )
        contended = simulate_scenario(
            model, plan, network=net, arrivals=saturation_arrivals(20),
            topology=Topology.bus(net, contended=True),
        )
        assert contended.throughput == pytest.approx(free.throughput, rel=1e-6)

    def test_all_tasks_complete(self, model):
        net = NetworkModel.from_mbps(10.0)
        cluster = pi_cluster(4, 1000)
        plan = PicoScheme().plan(model, cluster, net)
        sim = simulate_scenario(
            model, plan, network=net, arrivals=saturation_arrivals(25),
            topology=Topology.bus(net, contended=True),
        )
        assert sim.completed == 25
        completions = [t.completion for t in sim.tasks]
        assert completions == sorted(completions)
