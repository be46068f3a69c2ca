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
from repro.runtime.coordinator import DistributedPipeline, StageFailure
from repro.runtime.faults import FaultSchedule, RuntimeConfig
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.interleaved import InterleavedScheme
from repro.schemes.pico import PicoScheme


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


class TestPipelinedExecution:
    def test_matches_local_inference(self, model, weights):
        cluster = heterogeneous_cluster([1200, 1000, 800, 600])
        plan = PicoScheme().plan(model, cluster, NET)
        xs = make_inputs(model, 4)
        refs = reference_outputs(model, weights, xs)
        with DistributedPipeline(model, plan, weights=weights) as pipe:
            outs, stats = pipe.run_batch(xs)
        for out, ref in zip(outs, refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)
        assert len(stats.latencies) == 4
        assert stats.throughput > 0

    def test_block_model_distributed(self, rng):
        model = Model(
            "resblocks", (4, 24, 24),
            (basic_block("b1", 4, 8, stride=2), basic_block("b2", 8, 8)),
        )
        weights = init_weights(model, seed=2)
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        xs = [rng.standard_normal(model.input_shape).astype(np.float32) for _ in range(2)]
        refs = reference_outputs(model, weights, xs)
        with DistributedPipeline(model, plan, weights=weights) as pipe:
            outs, _ = pipe.run_batch(xs)
        for out, ref in zip(outs, refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)

    def test_submit_collect_interleaved(self, model, weights):
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        xs = make_inputs(model, 3)
        refs = reference_outputs(model, weights, xs)
        with DistributedPipeline(model, plan, weights=weights) as pipe:
            for x, ref in zip(xs, refs):
                pipe.submit(x)
                _, out = pipe.collect()
                np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)

    def test_head_applied(self):
        from repro.models.vgg import vgg16

        model = vgg16(input_hw=32, num_classes=7)
        weights = init_weights(model, seed=0)
        plan = PicoScheme().plan(model, pi_cluster(2, 1500), NET)
        xs = make_inputs(model, 1)
        engine = Engine(model, weights)
        ref = engine.run(xs[0])
        with DistributedPipeline(model, plan, weights=weights) as pipe:
            outs, _ = pipe.run_batch(xs)
        assert outs[0].shape == (7,)
        np.testing.assert_allclose(outs[0], ref, atol=1e-4, rtol=1e-4)

    def test_bad_input_shape_rejected(self, model, weights):
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        with DistributedPipeline(model, plan, weights=weights) as pipe:
            with pytest.raises(ValueError):
                pipe.submit(np.zeros((1, 2, 2), dtype=np.float32))

    def test_submit_before_start_rejected(self, model, weights):
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        pipe = DistributedPipeline(model, plan, weights=weights)
        with pytest.raises(RuntimeError):
            pipe.submit(np.zeros(model.input_shape, dtype=np.float32))


class TestFailureRecovery:
    def test_worker_death_recovers_with_correct_output(self, model, weights):
        cluster = heterogeneous_cluster([1200, 1000, 800, 600])
        plan = EarlyFusedScheme(n_fused=4).plan(model, cluster, NET)
        # Kill a stage-0 worker that is NOT reused by the serial tail.
        victim = plan.stages[0].assignments[1][0].name
        xs = make_inputs(model, 4)
        refs = reference_outputs(model, weights, xs)
        with DistributedPipeline(
            model, plan, weights=weights, config=RuntimeConfig(),
            faults=FaultSchedule().crash(victim, at_frame=1),
        ) as pipe:
            outs, stats = pipe.run_batch(xs)
        for out, ref in zip(outs, refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)
        assert stats.recoveries >= 1

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
        with DistributedPipeline(
            model, plan, weights=weights, config=RuntimeConfig(),
            faults=FaultSchedule().crash(victim, at_frame=1),
        ) as pipe:
            outs, stats = pipe.run_batch(xs)
        for out, ref in zip(outs, refs):
            np.testing.assert_allclose(out, ref, atol=1e-4, rtol=1e-4)
        assert stats.recoveries >= 1

    def test_without_recover_flag_failure_surfaces(self, model, weights):
        cluster = heterogeneous_cluster([1200, 1000, 800, 600])
        plan = EarlyFusedScheme(n_fused=4).plan(model, cluster, NET)
        victim = plan.stages[0].assignments[1][0].name
        xs = make_inputs(model, 4)
        with DistributedPipeline(
            model, plan, weights=weights,
            faults=FaultSchedule().crash(victim, at_frame=1),
        ) as pipe:
            with pytest.raises((StageFailure, RuntimeError)):
                pipe.run_batch(xs)
