"""Tests for plan serialisation, the report renderer and the shared-medium
cost option."""

from __future__ import annotations

import json

import pytest

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.plan import plan_cost
from repro.core.serialize import dump_plan, load_plan, plan_from_dict, plan_to_dict
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions
from repro.models.toy import toy_chain
from repro.report import render_plan, render_timeline, stage_schedule
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme


NET = NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(6, 1, input_hw=48, in_channels=3)


@pytest.fixture
def plan(model):
    return PicoScheme().plan(model, heterogeneous_cluster([1200, 800, 600, 600]), NET)


class TestSerialize:
    def test_roundtrip_equality(self, plan):
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_roundtrip_exclusive(self, model):
        excl = OptimalFusedScheme().plan(model, pi_cluster(3, 800), NET)
        assert plan_from_dict(plan_to_dict(excl)) == excl

    def test_json_serialisable(self, plan):
        text = json.dumps(plan_to_dict(plan))
        assert plan_from_dict(json.loads(text)) == plan

    def test_file_roundtrip(self, plan, tmp_path):
        path = tmp_path / "plan.json"
        dump_plan(plan, str(path))
        assert load_plan(str(path)) == plan

    def test_version_checked(self, plan):
        data = plan_to_dict(plan)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            plan_from_dict(data)

    def test_cost_preserved(self, model, plan):
        loaded = plan_from_dict(plan_to_dict(plan))
        assert plan_cost(model, loaded, NET).period == pytest.approx(
            plan_cost(model, plan, NET).period
        )


class TestStageSchedule:
    def test_pipelined_steady_state(self):
        schedule = stage_schedule([1.0, 2.0], n_tasks=3)
        # Stage 1 is the bottleneck: tasks finish 2s apart.
        ends = [end for (_, _, end) in schedule[1]]
        assert ends == pytest.approx([3.0, 5.0, 7.0])
        # Stage 0 starts task k as soon as it is free.
        starts = [start for (_, start, _) in schedule[0]]
        assert starts == pytest.approx([0.0, 1.0, 2.0])

    def test_exclusive_back_to_back(self):
        schedule = stage_schedule([1.0, 2.0], n_tasks=2, mode="exclusive")
        assert schedule[0][1][1] == pytest.approx(3.0)  # task 1 starts after task 0

    def test_invalid_tasks(self):
        with pytest.raises(ValueError):
            stage_schedule([1.0], n_tasks=0)


class TestReport:
    def test_render_plan_mentions_stages_and_period(self, model, plan):
        text = render_plan(model, plan, NET)
        assert "period" in text and "stage" in text
        assert f"{plan.n_stages - 1:>5d}" in text or str(plan.n_stages - 1) in text

    def test_render_timeline_shape(self, model, plan):
        text = render_timeline(model, plan, NET, n_tasks=4)
        lines = text.splitlines()
        assert len(lines) == plan.n_stages + 1
        # Each task digit appears somewhere.
        body = "\n".join(lines[:-1])
        for digit in "0123":
            assert digit in body

    def test_render_timeline_exclusive_single_row(self, model):
        excl = OptimalFusedScheme().plan(model, pi_cluster(3, 800), NET)
        text = render_timeline(model, excl, NET, n_tasks=3)
        assert len(text.splitlines()) == 2  # one server row + axis


class TestSharedMedium:
    def test_period_accounts_total_comm(self, model, plan):
        base = plan_cost(model, plan, NET)
        shared = plan_cost(model, plan, NET, CostOptions(shared_medium=True))
        total_comm = sum(sc.t_comm for sc in base.stage_costs)
        assert shared.period == pytest.approx(max(base.period, total_comm))
        assert shared.period >= base.period

    def test_exclusive_unchanged(self, model):
        excl = OptimalFusedScheme().plan(model, pi_cluster(3, 800), NET)
        base = plan_cost(model, excl, NET)
        shared = plan_cost(model, excl, NET, CostOptions(shared_medium=True))
        assert shared.period == pytest.approx(base.period)
