"""Integration tests: the multiprocess runtime against local inference.

These spawn real worker processes and move tensors over TCP — the
distributed output must be bit-close to single-process execution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.cost.comm import NetworkModel
from repro.models.graph import Model
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.coordinator import TcpTransport
from repro.runtime.faults import FaultSchedule, RuntimeConfig
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.interleaved import InterleavedScheme
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from tests.conftest import serve_on_workers


NET = NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(6, 1, input_hw=40, in_channels=3, base_channels=8)


@pytest.fixture
def weights(model):
    return init_weights(model, seed=5)


def reference_outputs(model, weights, xs):
    engine = Engine(model, weights)
    return [engine.forward_features(x) for x in xs]


def make_inputs(model, n, seed=9):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(model.input_shape).astype(np.float32) for _ in range(n)]


def outputs_of(served, n):
    return [served.outputs[i] for i in range(n)]


class TestPipelinedExecution:
    def test_matches_local_inference(self, model, weights):
        cluster = heterogeneous_cluster([1200, 1000, 800, 600])
        plan = PicoScheme().plan(model, cluster, NET)
        xs = make_inputs(model, 4)
        refs = reference_outputs(model, weights, xs)
        served, _ = serve_on_workers(model, plan, weights, xs)
        for out, ref in zip(outputs_of(served, 4), refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)
        assert len(served.completed) == 4
        assert served.throughput > 0

    def test_block_model_distributed(self, rng):
        model = Model(
            "resblocks", (4, 24, 24),
            (basic_block("b1", 4, 8, stride=2), basic_block("b2", 8, 8)),
        )
        weights = init_weights(model, seed=2)
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        xs = [rng.standard_normal(model.input_shape).astype(np.float32) for _ in range(2)]
        refs = reference_outputs(model, weights, xs)
        served, _ = serve_on_workers(model, plan, weights, xs)
        for out, ref in zip(outputs_of(served, 2), refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)

    def test_submit_collect_interleaved(self, model, weights):
        """One frame in the system at a time: each is admitted only
        once the one before it was delivered."""
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        xs = make_inputs(model, 3)
        refs = reference_outputs(model, weights, xs)
        with PipelineServer.from_plan(
            model, plan, TcpTransport(model, weights),
            config=ServerConfig(queue_capacity=1, policy="block"),
        ) as server:
            served = server.serve(xs)
        for out, ref in zip(outputs_of(served, 3), refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)
        records = served.records
        assert all(
            later.admitted_at >= earlier.completion
            for earlier, later in zip(records, records[1:])
        )

    def test_served_features_feed_the_head(self):
        from repro.models.vgg import vgg16

        model = vgg16(input_hw=32, num_classes=7)
        weights = init_weights(model, seed=0)
        plan = PicoScheme().plan(model, pi_cluster(2, 1500), NET)
        xs = make_inputs(model, 1)
        engine = Engine(model, weights)
        served, _ = serve_on_workers(model, plan, weights, xs)
        logits = engine.run_head(served.outputs[0])
        assert logits.shape == (7,)
        np.testing.assert_allclose(logits, engine.run(xs[0]), atol=1e-4, rtol=1e-4)

    def test_bad_input_shape_rejected(self, model, weights):
        """A frame of the wrong shape is refused before any frame of the
        call is admitted."""
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        backend = TcpTransport(model, weights)
        with PipelineServer.from_plan(model, plan, backend) as server:
            dispatched = []
            backend.dispatch = lambda *args: dispatched.append(args)
            good = np.zeros(model.input_shape, dtype=np.float32)
            with pytest.raises(ValueError, match="frame 1: input shape"):
                server.serve([good, np.zeros((1, 2, 2), dtype=np.float32)])
        assert not dispatched


class TestFailureRecovery:
    def test_worker_death_recovers_with_correct_output(self, model, weights):
        cluster = heterogeneous_cluster([1200, 1000, 800, 600])
        plan = EarlyFusedScheme(n_fused=4).plan(model, cluster, NET)
        # Kill a stage-0 worker that is NOT reused by the serial tail.
        victim = plan.stages[0].assignments[1][0].name
        xs = make_inputs(model, 4)
        refs = reference_outputs(model, weights, xs)
        served, backend = serve_on_workers(
            model, plan, weights, xs, config=RuntimeConfig(),
            faults=FaultSchedule().crash(victim, at_frame=1),
        )
        for out, ref in zip(outputs_of(served, 4), refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)
        assert backend.recoveries >= 1

    def test_channel_worker_death_recovers_with_correct_output(
        self, model, weights
    ):
        """IOP stages: the survivors' channel slices are re-split by
        ``repartition_stage`` (the same path strip and branch stages
        take) and the de-interleave still reassembles the right map."""
        cluster = heterogeneous_cluster([1200, 1000, 800, 600])
        plan = InterleavedScheme().plan(model, cluster, NET)
        assert any(s.channel_groups is not None for s in plan.stages)
        victim = cluster.devices[1].name
        xs = make_inputs(model, 3)
        refs = reference_outputs(model, weights, xs)
        served, backend = serve_on_workers(
            model, plan, weights, xs, config=RuntimeConfig(),
            faults=FaultSchedule().crash(victim, at_frame=1),
        )
        for out, ref in zip(outputs_of(served, 3), refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)
        assert backend.recoveries >= 1

    def test_without_recover_flag_failure_surfaces(self, model, weights):
        """Without a RuntimeConfig a crash is not repaired: the frames
        it takes down end ``failed``, none is lost and the run returns."""
        cluster = heterogeneous_cluster([1200, 1000, 800, 600])
        plan = EarlyFusedScheme(n_fused=4).plan(model, cluster, NET)
        victim = plan.stages[0].assignments[1][0].name
        xs = make_inputs(model, 4)
        refs = reference_outputs(model, weights, xs)
        served, backend = serve_on_workers(
            model, plan, weights, xs,
            faults=FaultSchedule().crash(victim, at_frame=1),
        )
        assert sorted(r.frame for r in served.records) == list(range(4))
        assert served.failed and not served.shed
        assert 0 in served.outputs  # finished before the worker died
        assert backend.recoveries == 0
        for record in served.completed:
            np.testing.assert_allclose(
                served.outputs[record.frame], refs[record.frame],
                atol=1e-4, rtol=1e-4,
            )
