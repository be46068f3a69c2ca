"""Tests for the top-level convenience API."""

from __future__ import annotations

import pytest

import repro
from repro.models.toy import toy_chain


def test_plan_defaults_to_pico_and_wifi():
    model = toy_chain(4, 1, input_hw=32, in_channels=3)
    cluster = repro.pi_cluster(4, 800)
    plan = repro.plan(model, cluster)
    assert plan.mode == "pipelined"
    assert plan.stages[-1].end == model.n_units


def test_evaluate_returns_cost():
    model = toy_chain(4, 1, input_hw=32, in_channels=3)
    cluster = repro.pi_cluster(4, 800)
    plan = repro.plan(model, cluster)
    cost = repro.evaluate(model, plan)
    assert cost.period > 0
    assert cost.latency >= cost.period


def test_plan_kwargs_forwarded():
    model = toy_chain(4, 1, input_hw=32, in_channels=3)
    cluster = repro.pi_cluster(4, 800)
    with pytest.raises(repro.schemes.PlanningError):
        repro.plan(model, cluster, t_lim=1e-12)


def test_version():
    assert repro.__version__


def test_get_model_exposed():
    assert repro.get_model("vgg16").name == "vgg16"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


class TestSimulateBatched:
    def _setup(self):
        model = toy_chain(4, 1, input_hw=32, in_channels=3)
        cluster = repro.pi_cluster(4, 800)
        return model, cluster

    def test_batched_simulate_completes_everything(self):
        model, cluster = self._setup()
        sim = repro.simulate(
            model, "pico", cluster, arrivals=[0.0] * 8, max_batch=4,
        )
        assert sim.completed == 8
        assert sim.shed == ()

    def test_batching_beats_per_frame_on_exclusive_plan(self):
        # An exclusive (one-stage-at-a-time) plan cannot pipeline, so
        # back-to-back frames pay full latency each; batching amortises
        # the compute share and must finish the burst sooner.
        model, cluster = self._setup()
        arrivals = [0.0] * 8
        base = repro.simulate(model, "efl", cluster, arrivals=list(arrivals))
        batched = repro.simulate(
            model, "efl", cluster, arrivals=list(arrivals), max_batch=8,
        )
        assert batched.completed == base.completed == 8
        last = max(t.completion for t in batched.tasks)
        base_last = max(t.completion for t in base.tasks)
        assert last < base_last

    def test_batched_replay_builds_no_weights(self, monkeypatch):
        # compute=False replays the timing tables; materialising the
        # model's weights first cost seconds and a gigabyte on vgg16.
        def boom(*args, **kwargs):
            raise AssertionError("the batched replay built weights")

        monkeypatch.setattr(repro, "init_weights", boom)
        model, cluster = self._setup()
        sim = repro.simulate(
            model, "pico", cluster, arrivals=[0.0] * 4, max_batch=2
        )
        assert sim.completed == 4

    def test_max_batch_guards(self):
        model, cluster = self._setup()
        from repro.runtime.core import FaultSchedule

        with pytest.raises(ValueError, match="shared_medium"):
            repro.simulate(
                model, "pico", cluster, arrivals=[0.0], max_batch=2,
                shared_medium=True,
            )
        with pytest.raises(ValueError, match="faults"):
            repro.simulate(
                model, "pico", cluster, arrivals=[0.0], max_batch=2,
                faults=FaultSchedule().crash("pi0", at_frame=0),
            )
        with pytest.raises(ValueError, match="measured_services"):
            repro.simulate(
                model, "pico", cluster, arrivals=[0.0], max_batch=2,
                measured_services=[0.1],
            )

    def test_max_batch_with_queue_capacity_sheds(self):
        model, cluster = self._setup()
        sim = repro.simulate(
            model, "pico", cluster, arrivals=[0.0] * 10, max_batch=2,
            queue_capacity=4,
        )
        assert sim.submitted == 10
        assert len(sim.shed) > 0
        assert sim.completed + len(sim.shed) == 10
