"""Tests for utilisation / redundancy metrics (Table I machinery)."""

from __future__ import annotations

import pytest

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.cluster.metrics import utilization_table
from repro.cost.comm import NetworkModel
from repro.cost.flops import model_flops
from repro.models.toy import toy_chain
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.layer_wise import LayerWiseScheme
from repro.schemes.pico import PicoScheme
from repro.sim import simulate_scenario
from repro.workload.arrivals import saturation_arrivals


@pytest.fixture
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(8, 2, input_hw=64, in_channels=1)


def test_total_flops_conserved(model, net):
    """Across all devices, owned FLOPs must equal one model inference;
    actual FLOPs exceed it by the redundancy."""
    cluster = heterogeneous_cluster([1200, 800, 600, 600])
    plan = PicoScheme().plan(model, cluster, net)
    table = utilization_table(model, plan, net, scheme_name="PICO")
    owned_total = sum(d.owned_flops_per_task for d in table.devices)
    actual_total = sum(d.flops_per_task for d in table.devices)
    assert owned_total == pytest.approx(model_flops(model), rel=1e-9)
    assert actual_total >= owned_total


def test_layer_wise_zero_redundancy(model, net):
    """Single-layer phases have disjoint outputs: no duplicated FLOPs
    (the paper's LW rows show the minimum redundancy)."""
    cluster = pi_cluster(4, 800)
    plan = LayerWiseScheme().plan(model, cluster, net)
    table = utilization_table(model, plan, net, scheme_name="LW")
    assert table.average_redundancy == pytest.approx(0.0, abs=1e-9)


def test_efl_more_redundant_than_pico(model, net):
    cluster = heterogeneous_cluster([1200, 800, 600, 600, 600, 600])
    efl = utilization_table(
        model, EarlyFusedScheme().plan(model, cluster, net), net, scheme_name="EFL"
    )
    pico = utilization_table(
        model, PicoScheme().plan(model, cluster, net), net, scheme_name="PICO"
    )
    assert efl.average_redundancy > pico.average_redundancy


def test_measured_utilization_used_when_sim_given(model, net):
    cluster = pi_cluster(4, 800)
    plan = PicoScheme().plan(model, cluster, net)
    sim = simulate_scenario(model, plan, network=net, arrivals=saturation_arrivals(50))
    table = utilization_table(model, plan, net, sim, scheme_name="PICO")
    for report in table.devices:
        assert report.utilization == pytest.approx(
            min(1.0, sim.utilization(report.name)), abs=1e-9
        )


def test_analytic_utilization_without_sim(model, net):
    cluster = pi_cluster(4, 800)
    plan = PicoScheme().plan(model, cluster, net)
    table = utilization_table(model, plan, net, scheme_name="PICO")
    for report in table.devices:
        assert 0.0 <= report.utilization <= 1.0


def test_redundancy_ratio_bounds(model, net):
    cluster = heterogeneous_cluster([1200, 600])
    plan = EarlyFusedScheme().plan(model, cluster, net)
    table = utilization_table(model, plan, net, scheme_name="EFL")
    for report in table.devices:
        assert 0.0 <= report.redundancy_ratio < 1.0


def test_reports_sorted_fastest_first(model, net):
    cluster = heterogeneous_cluster([600, 1200, 800, 800])
    plan = PicoScheme().plan(model, cluster, net)
    table = utilization_table(model, plan, net, scheme_name="PICO")
    caps = [d.capacity for d in table.devices]
    assert caps == sorted(caps, reverse=True)
