"""Tests for the discrete-event cluster simulator."""

from __future__ import annotations

import pytest

from repro.adaptive.switcher import AdaptiveSwitcher, CandidatePlan
from repro.cluster.device import Device, pi_cluster
from repro.core.plan import PipelinePlan, StagePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.partition.regions import Region
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme
from repro.sim import simulate_scenario
from repro.workload.arrivals import saturation_arrivals, uniform_arrivals


@pytest.fixture
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(6, 1, input_hw=32, in_channels=3)


def simple_two_stage(model):
    d1, d2 = Device("a", 1e9), Device("b", 1e9)
    _, h2, w2 = model.out_shape(2)
    _, h, w = model.final_shape
    return PipelinePlan(
        model.name,
        (
            StagePlan(0, 3, ((d1, Region.full(h2, w2)),)),
            StagePlan(3, model.n_units, ((d2, Region.full(h, w)),)),
        ),
    )


class TestPipelinedSimulation:
    def test_single_task_latency_equals_plan_latency(self, model, net):
        plan = simple_two_stage(model)
        cost = plan_cost(model, plan, net)
        sim = simulate_scenario(model, plan, network=net, arrivals=[0.0])
        assert sim.completed == 1
        assert sim.tasks[0].latency == pytest.approx(cost.latency)

    def test_saturated_throughput_approaches_inverse_period(self, model, net):
        plan = simple_two_stage(model)
        cost = plan_cost(model, plan, net)
        n = 200
        sim = simulate_scenario(
            model, plan, network=net,
            arrivals=saturation_arrivals(n),
        )
        assert sim.throughput == pytest.approx(1.0 / cost.period, rel=0.05)

    def test_tasks_complete_in_fifo_order(self, model, net):
        plan = simple_two_stage(model)
        sim = simulate_scenario(
            model, plan, network=net,
            arrivals=uniform_arrivals(5.0, 3.0),
        )
        completions = [t.completion for t in sim.tasks]
        assert completions == sorted(completions)

    def test_light_load_no_waiting(self, model, net):
        plan = simple_two_stage(model)
        cost = plan_cost(model, plan, net)
        slow_rate = 0.1 / cost.period
        sim = simulate_scenario(
            model, plan, network=net,
            arrivals=uniform_arrivals(slow_rate, 60 * cost.period),
        )
        assert all(
            t.started - t.arrival == pytest.approx(0.0, abs=1e-9)
            for t in sim.tasks
        )
        assert sim.avg_latency == pytest.approx(cost.latency, rel=1e-6)

    def test_overload_queue_grows(self, model, net):
        plan = simple_two_stage(model)
        cost = plan_cost(model, plan, net)
        rate = 2.0 / cost.period  # 200% load
        sim = simulate_scenario(
            model, plan, network=net,
            arrivals=uniform_arrivals(rate, 100 * cost.period),
        )
        lat = [t.latency for t in sim.tasks]
        assert lat[-1] > lat[0] * 2  # latency keeps climbing

    def test_device_busy_accounted(self, model, net):
        """Busy time per task = compute + the device's own transfers
        (single-core CPU usage, as measured in the paper's Table I)."""
        plan = simple_two_stage(model)
        cost = plan_cost(model, plan, net)
        sim = simulate_scenario(model, plan, network=net, arrivals=[0.0])
        for sc in cost.stage_costs:
            for dc in sc.devices:
                assert sim.device_busy[dc.device.name] == pytest.approx(
                    dc.t_comp + dc.t_comm
                )


class TestExclusiveSimulation:
    def test_period_equals_latency_service(self, model, net):
        plan = OptimalFusedScheme().plan(model, pi_cluster(3, 800), net)
        cost = plan_cost(model, plan, net)
        sim = simulate_scenario(model, plan, network=net, arrivals=[0.0, 0.0])
        # Second task waits for the first: completion gap = latency.
        gap = sim.tasks[1].completion - sim.tasks[0].completion
        assert gap == pytest.approx(cost.latency, rel=1e-6)


class TestSimResultStats:
    def test_percentiles(self, model, net):
        plan = simple_two_stage(model)
        sim = simulate_scenario(
            model, plan, network=net,
            arrivals=saturation_arrivals(50),
        )
        assert sim.percentile_latency(0) <= sim.percentile_latency(50)
        assert sim.percentile_latency(50) <= sim.percentile_latency(100)
        assert sim.percentile_latency(100) == pytest.approx(sim.max_latency)

    def test_percentile_validation(self, model, net):
        plan = simple_two_stage(model)
        sim = simulate_scenario(model, plan, network=net, arrivals=[0.0])
        with pytest.raises(ValueError):
            sim.percentile_latency(101)

    def test_empty_sim(self, model, net):
        plan = simple_two_stage(model)
        sim = simulate_scenario(model, plan, network=net, arrivals=[])
        assert sim.completed == 0
        assert sim.avg_latency == 0.0
        assert sim.throughput == 0.0

    def test_utilization_bounded(self, model, net):
        plan = simple_two_stage(model)
        sim = simulate_scenario(
            model, plan, network=net,
            arrivals=saturation_arrivals(100),
        )
        for name in sim.device_busy:
            assert 0.0 <= sim.utilization(name) <= 1.0 + 1e-9


class TestAdaptiveSimulation:
    def test_switches_when_load_grows(self, net):
        """On VGG16 (where the one-stage OFL plan has the lower single-
        task latency), APICO must run OFL under light load and switch
        to the PICO pipeline once arrivals exceed OFL's capacity —
        the paper's Figs. 10/11 behaviour."""
        from repro.adaptive.switcher import build_apico_switcher
        from repro.models.vgg import vgg16

        model = vgg16()
        cluster = pi_cluster(8, 600)
        switcher = build_apico_switcher(model, cluster, net)
        ofl = next(c for c in switcher.candidates if c.name == "OFL")
        pico = next(c for c in switcher.candidates if c.name == "PICO")
        assert ofl.latency < pico.latency  # precondition for a crossover

        light = uniform_arrivals(0.2 / ofl.period, 40 * ofl.period)
        sim_light = simulate_scenario(model, switcher, network=net, arrivals=light)
        assert sim_light.plan_usage.get("OFL", 0) > sim_light.plan_usage.get(
            "PICO", 0
        )

        switcher2 = build_apico_switcher(model, cluster, net)
        heavy = uniform_arrivals(1.5 / ofl.period, 100 * ofl.period)
        sim_heavy = simulate_scenario(model, switcher2, network=net, arrivals=heavy)
        assert sim_heavy.plan_usage.get("PICO", 0) > sim_heavy.plan_usage.get(
            "OFL", 0
        )

    def test_single_candidate_never_switches(self, model, net):
        plan = simple_two_stage(model)
        cost = plan_cost(model, plan, net)
        switcher = AdaptiveSwitcher(
            (CandidatePlan("ONLY", plan, cost.period, cost.latency),)
        )
        sim = simulate_scenario(
            model, switcher, network=net,
            arrivals=saturation_arrivals(10),
        )
        assert sim.plan_usage == {"ONLY": 10}
