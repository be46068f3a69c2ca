"""A plan served in one process: ``PipelineServer`` over
``InProcTransport`` against the engine it shards, and the
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
from repro.runtime.core import InProcTransport
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer
from repro.sim import simulate_scenario


@pytest.fixture(scope="module")
def net():
    return NetworkModel.from_mbps(50.0)


def _input(model, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(model.input_shape).astype(np.float32)


def _served(engine, plan, frames):
    """Each frame's features, served one at a time in process."""
    with PipelineServer.from_plan(
        engine.model, plan, InProcTransport(engine)
    ) as server:
        result = server.serve(frames)
    assert len(result.completed) == len(frames)
    return [result.outputs[i] for i in range(len(frames))]


class TestExactness:
    def test_pico_plan_matches_engine(self, net):
        model = get_model("resnet34", input_hw=32)
        plan = PicoScheme().plan(model, pi_cluster(4, 800), net)
        engine = Engine(model, seed=0)
        x = _input(model)
        (out,) = _served(engine, plan, [x])
        np.testing.assert_array_equal(out, engine.forward_features(x))
        np.testing.assert_array_equal(engine.run_head(out), engine.run(x))

    def test_toy_chain_multi_frame(self, net):
        model = toy_chain(6, 2, input_hw=64, in_channels=3)
        plan = PicoScheme().plan(model, pi_cluster(4, 800), net)
        engine = Engine(model, seed=1)
        frames = [_input(model, seed) for seed in range(3)]
        for x, out in zip(frames, _served(engine, plan, frames)):
            np.testing.assert_array_equal(out, engine.forward_features(x))

    def test_branch_parallel_stage(self):
        from tests.test_branch_runtime import branch_plan, inception_like_model

        model = inception_like_model()
        plan = branch_plan(model, pi_cluster(4, 1000))
        engine = Engine(model, seed=11)
        x = _input(model)
        (out,) = _served(engine, plan, [x])
        np.testing.assert_allclose(
            out, engine.forward_features(x), rtol=1e-5, atol=1e-5
        )


class TestValidation:
    def test_model_name_mismatch(self, net):
        model = toy_chain(4, 0, input_hw=32)
        other = toy_chain(5, 0, input_hw=32)
        plan = PicoScheme().plan(model, pi_cluster(2, 800), net)
        with pytest.raises(ValueError, match="program is for"):
            PipelineServer.from_plan(
                model, plan, InProcTransport(Engine(other, seed=0))
            )

    def test_partial_coverage_rejected(self, net):
        model = toy_chain(4, 0, input_hw=32)
        _, h, w = model.out_shape(1)
        devices = pi_cluster(2, 800).devices
        partial = PipelinePlan(
            model.name,
            (StagePlan(0, 2, ((devices[0], Region.full(h, w)),)),),
        )
        with pytest.raises(ValueError, match="covers units"):
            PipelineServer.from_plan(
                model, partial, InProcTransport(Engine(model, seed=0))
            )


class TestMeasuredServices:
    def test_measure_feeds_simulator(self, net):
        """Per-stage services in place of the analytic ones: the
        simulated period is the slowest stage's service."""
        model = toy_chain(6, 1, input_hw=32, in_channels=1)
        plan = PicoScheme().plan(model, pi_cluster(3, 800), net)
        services = [0.02 + 0.01 * i for i in range(plan.n_stages)]
        arrivals = [0.0] * 20
        result = simulate_scenario(
            model, plan, network=net, arrivals=arrivals,
            measured_services=services,
        )
        assert result.throughput > 0
        assert result.throughput <= 1.0 / max(services) + 1e-9

    def test_length_mismatch_rejected(self, net):
        model = toy_chain(4, 0, input_hw=32)
        plan = PicoScheme().plan(model, pi_cluster(2, 800), net)
        with pytest.raises(ValueError, match="measured_services"):
            simulate_scenario(
                model, plan, network=net, arrivals=[0.0, 0.1],
                measured_services=[0.01] * (plan.n_stages + 1),
            )
