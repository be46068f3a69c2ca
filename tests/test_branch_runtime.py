"""Integration tests: branch-parallel stages on the real runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.device import Device, pi_cluster
from repro.core.plan import PipelinePlan, StagePlan
from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import ConvSpec, conv1x1, conv3x3
from repro.nn.executor import Engine
from repro.nn.tiles import compile_block_paths, extract_tile, run_segment
from repro.nn.weights import init_weights
from repro.partition.branches import assign_paths_lpt, path_flops
from repro.partition.regions import Region
from repro.runtime.faults import FaultSchedule, RuntimeConfig
from repro.testing import run_unit
from tests.conftest import serve_on_workers


def inception_like_model():
    """Stem conv + 3-path concat block + tail conv."""
    paths = (
        (conv1x1("b1", 8, 4),),
        (
            conv1x1("b3r", 8, 4),
            conv3x3("b3", 4, 6),
        ),
        (ConvSpec("b5", 8, 5, kernel_size=5, padding=2),),
    )
    units = (
        LayerUnit(conv3x3("stem", 3, 8)),
        BlockUnit("mix", paths, merge="concat"),
        LayerUnit(conv1x1("tail", 15, 4)),
    )
    return Model("branchy", (3, 20, 20), units)


@pytest.fixture(scope="module")
def model():
    return inception_like_model()


@pytest.fixture(scope="module")
def weights(model):
    return init_weights(model, seed=11)


class TestCompileBlockPaths:
    def test_subset_matches_full_channels(self, model, weights):
        engine = Engine(model, weights)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(model.input_shape).astype(np.float32)
        stem_out = run_unit(engine, model.units[0], x)
        full_out = run_unit(engine, model.units[1], stem_out)
        # Path channel layout: b1 -> [0,4), b3 -> [4,10), b5 -> [10,15).
        cases = [((0,), slice(0, 4)), ((1,), slice(4, 10)), ((2,), slice(10, 15)),
                 ((0, 2), None)]
        for paths, sl in cases:
            program = compile_block_paths(model, 1, paths)
            tile = extract_tile(stem_out, program.input_region)
            got = run_segment(engine, program, tile)
            if sl is not None:
                np.testing.assert_allclose(got, full_out[sl], atol=1e-5)
            else:
                want = np.concatenate([full_out[0:4], full_out[10:15]])
                np.testing.assert_allclose(got, want, atol=1e-5)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            compile_block_paths(model, 0, (0,))  # not a block
        with pytest.raises(ValueError):
            compile_block_paths(model, 1, ())
        with pytest.raises(ValueError):
            compile_block_paths(model, 1, (7,))


def branch_plan(model, cluster):
    """3-stage plan whose middle stage is branch-parallel."""
    devices = list(cluster.devices)
    _, h0, w0 = model.out_shape(0)
    _, h1, w1 = model.out_shape(1)
    _, h2, w2 = model.out_shape(2)
    groups = assign_paths_lpt(
        path_flops(model, 1), [devices[1].capacity, devices[2].capacity]
    )
    return PipelinePlan(
        model.name,
        (
            StagePlan(0, 1, ((devices[0], Region.full(h0, w0)),)),
            StagePlan(
                1,
                2,
                (
                    (devices[1], Region.full(h1, w1)),
                    (devices[2], Region.full(h1, w1)),
                ),
                path_groups=groups,
            ),
            StagePlan(2, 3, ((devices[3], Region.full(h2, w2)),)),
        ),
    )


class TestBranchRuntime:
    def test_distributed_matches_local(self, model, weights):
        cluster = pi_cluster(4, 1000)
        plan = branch_plan(model, cluster)
        engine = Engine(model, weights)
        rng = np.random.default_rng(1)
        xs = [rng.standard_normal(model.input_shape).astype(np.float32)
              for _ in range(3)]
        refs = [engine.forward_features(x) for x in xs]
        served, _ = serve_on_workers(model, plan, weights, xs)
        for i, ref in enumerate(refs):
            np.testing.assert_allclose(
                served.outputs[i], ref, atol=1e-4, rtol=1e-4
            )
        assert served.throughput > 0

    def test_branch_worker_failure_recovers(self, model, weights):
        cluster = pi_cluster(4, 1000)
        plan = branch_plan(model, cluster)
        victim = plan.stages[1].assignments[0][0].name
        engine = Engine(model, weights)
        rng = np.random.default_rng(2)
        xs = [rng.standard_normal(model.input_shape).astype(np.float32)
              for _ in range(3)]
        refs = [engine.forward_features(x) for x in xs]
        served, backend = serve_on_workers(
            model, plan, weights, xs, config=RuntimeConfig(),
            faults=FaultSchedule().crash(victim, at_frame=1),
        )
        for i, ref in enumerate(refs):
            np.testing.assert_allclose(
                served.outputs[i], ref, atol=1e-4, rtol=1e-4
            )
        assert backend.recoveries >= 1
