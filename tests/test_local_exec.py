"""LocalPlanExecutor: staged tile execution inside one process, and the
measured-services bridge into the event simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.device import pi_cluster
from repro.core.plan import PipelinePlan, StagePlan
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn.executor import Engine
from repro.partition.regions import Region
from repro.schemes import LocalPlanExecutor
from repro.schemes.pico import PicoScheme
from repro.sim import simulate_scenario


@pytest.fixture(scope="module")
def net():
    return NetworkModel.from_mbps(50.0)


def _input(model, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(model.input_shape).astype(np.float32)


class TestExactness:
    def test_pico_plan_matches_engine(self, net):
        model = get_model("resnet34", input_hw=32)
        plan = PicoScheme().plan(model, pi_cluster(4, 800), net)
        engine = Engine(model, seed=0)
        executor = LocalPlanExecutor(engine, plan)
        x = _input(model)
        np.testing.assert_array_equal(
            executor.forward_features(x), engine.forward_features(x)
        )
        np.testing.assert_array_equal(executor.run(x), engine.run(x))

    def test_toy_chain_multi_frame(self, net):
        model = toy_chain(6, 2, input_hw=64, in_channels=3)
        plan = PicoScheme().plan(model, pi_cluster(4, 800), net)
        engine = Engine(model, seed=1)
        executor = LocalPlanExecutor(engine, plan)
        for seed in range(3):
            x = _input(model, seed)
            np.testing.assert_array_equal(
                executor.forward_features(x), engine.forward_features(x)
            )

    def test_branch_parallel_stage(self):
        from tests.test_branch_runtime import branch_plan, inception_like_model

        model = inception_like_model()
        plan = branch_plan(model, pi_cluster(4, 1000))
        engine = Engine(model, seed=11)
        executor = LocalPlanExecutor(engine, plan)
        x = _input(model)
        np.testing.assert_allclose(
            executor.forward_features(x),
            engine.forward_features(x),
            rtol=1e-5,
            atol=1e-5,
        )


class TestValidation:
    def test_model_name_mismatch(self, net):
        model = toy_chain(4, 0, input_hw=32)
        other = toy_chain(5, 0, input_hw=32)
        plan = PicoScheme().plan(model, pi_cluster(2, 800), net)
        with pytest.raises(ValueError, match="plan is for"):
            LocalPlanExecutor(Engine(other, seed=0), plan)

    def test_partial_coverage_rejected(self, net):
        model = toy_chain(4, 0, input_hw=32)
        _, h, w = model.out_shape(1)
        devices = pi_cluster(2, 800).devices
        partial = PipelinePlan(
            model.name,
            (StagePlan(0, 2, ((devices[0], Region.full(h, w)),)),),
        )
        with pytest.raises(ValueError, match="covers units"):
            LocalPlanExecutor(Engine(model, seed=0), partial)


class TestMeasuredServices:
    def test_measure_feeds_simulator(self, net):
        model = toy_chain(6, 1, input_hw=32, in_channels=1)
        plan = PicoScheme().plan(model, pi_cluster(3, 800), net)
        executor = LocalPlanExecutor(Engine(model, seed=2), plan)
        services = executor.measure([_input(model)], repeats=2)
        assert len(services) == plan.n_stages
        assert all(s > 0.0 for s in services)
        arrivals = [0.05 * i for i in range(20)]
        result = simulate_scenario(
            model, plan, network=net, arrivals=arrivals,
            measured_services=services,
        )
        assert result.throughput > 0

    def test_length_mismatch_rejected(self, net):
        model = toy_chain(4, 0, input_hw=32)
        plan = PicoScheme().plan(model, pi_cluster(2, 800), net)
        with pytest.raises(ValueError, match="measured_services"):
            simulate_scenario(
                model, plan, network=net, arrivals=[0.0, 0.1],
                measured_services=[0.01] * (plan.n_stages + 1),
            )

    def test_measure_validates_inputs(self, net):
        model = toy_chain(4, 0, input_hw=32)
        plan = PicoScheme().plan(model, pi_cluster(2, 800), net)
        executor = LocalPlanExecutor(Engine(model, seed=0), plan)
        with pytest.raises(ValueError):
            executor.measure([])
        with pytest.raises(ValueError):
            executor.measure([_input(model)], repeats=0)
