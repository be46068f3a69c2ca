"""Tests for the steady-state (warm-up trimmed) simulation view."""

from __future__ import annotations

import pytest

from repro.cluster.device import Device
from repro.core.plan import PipelinePlan, StagePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.partition.regions import Region
from repro.sim import simulate_scenario
from repro.workload.arrivals import saturation_arrivals

NET = NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(4, 0, input_hw=24, in_channels=3)


@pytest.fixture
def plan(model):
    d1, d2 = Device("a", 1e9), Device("b", 1e9)
    _, h1, w1 = model.out_shape(1)
    _, h2, w2 = model.final_shape
    return PipelinePlan(
        model.name,
        (
            StagePlan(0, 2, ((d1, Region.full(h1, w1)),)),
            StagePlan(2, 4, ((d2, Region.full(h2, w2)),)),
        ),
    )


def test_trim_improves_throughput_estimate(model, plan):
    """With few tasks, whole-run throughput under-counts the filled
    pipeline; the trimmed estimate approaches 1/period faster."""
    cost = plan_cost(model, plan, NET)
    sim = simulate_scenario(model, plan, network=NET, arrivals=saturation_arrivals(10))
    raw_err = abs(sim.throughput - 1 / cost.period)
    trimmed = sim.steady_state(3)
    trimmed_err = abs(trimmed.throughput - 1 / cost.period)
    assert trimmed_err <= raw_err
    assert trimmed.throughput == pytest.approx(1 / cost.period, rel=0.01)


def test_trim_drops_earliest_completions(model, plan):
    sim = simulate_scenario(model, plan, network=NET, arrivals=saturation_arrivals(8))
    trimmed = sim.steady_state(3)
    assert trimmed.completed == 5
    earliest_kept = min(t.completion for t in trimmed.tasks)
    dropped = [t for t in sim.tasks if t not in trimmed.tasks]
    assert all(t.completion <= earliest_kept for t in dropped)


def test_zero_warmup_is_identity(model, plan):
    sim = simulate_scenario(model, plan, network=NET, arrivals=saturation_arrivals(5))
    assert sim.steady_state(0) is sim


def test_overtrim_returns_self(model, plan):
    sim = simulate_scenario(model, plan, network=NET, arrivals=saturation_arrivals(3))
    assert sim.steady_state(10) is sim


def test_negative_rejected(model, plan):
    sim = simulate_scenario(model, plan, network=NET, arrivals=saturation_arrivals(3))
    with pytest.raises(ValueError):
        sim.steady_state(-1)
