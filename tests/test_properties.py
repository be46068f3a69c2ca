"""Cross-cutting property-based tests on system invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.device import Device
from repro.core.plan import PipelinePlan, StagePlan, plan_cost
from repro.core.serialize import plan_from_dict, plan_to_dict
from repro.cost.comm import NetworkModel
from repro.cost.flops import segment_flops, segment_owned_flops
from repro.models.toy import toy_chain
from repro.partition.regions import Region
from repro.partition.strips import strip_regions, weighted_partition
from repro.sim import simulate_scenario
from repro.testing.kernels import conv2d

NET = NetworkModel.from_mbps(50.0)
MODEL = toy_chain(5, 1, input_hw=32, in_channels=3)


def brute_grouped_conv(x, w, groups, pads):
    xp = np.pad(x, ((0, 0), (pads[0], pads[1]), (pads[2], pads[3])))
    cout = w.shape[0]
    kh, kw = w.shape[2:]
    oh, ow = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    cin_g = x.shape[0] // groups
    out_g = cout // groups
    out = np.zeros((cout, oh, ow), dtype=np.float64)
    for o in range(cout):
        g = o // out_g
        xs = xp[g * cin_g : (g + 1) * cin_g]
        for i in range(oh):
            for j in range(ow):
                out[o, i, j] = np.sum(xs[:, i : i + kh, j : j + kw] * w[o])
    return out.astype(np.float32)


class TestGroupedConvProperty:
    @given(
        groups=st.sampled_from([1, 2, 4]),
        cin_g=st.integers(1, 2),
        out_g=st.integers(1, 2),
        k=st.sampled_from([1, 3]),
        pad=st.integers(0, 1),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce(self, groups, cin_g, out_g, k, pad, seed):
        rng = np.random.default_rng(seed)
        cin, cout = groups * cin_g, groups * out_g
        x = rng.standard_normal((cin, 6, 6)).astype(np.float32)
        w = rng.standard_normal((cout, cin_g, k, k)).astype(np.float32)
        got = conv2d(x, w, None, (1, 1), (pad, pad, pad, pad), groups=groups)
        want = brute_grouped_conv(x, w, groups, (pad, pad, pad, pad))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


class TestRedundancyProperty:
    @given(
        cut=st.integers(1, 15),
        start=st.integers(0, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_owned_never_exceeds_actual(self, cut, start):
        end = MODEL.n_units
        if start >= end:
            return
        _, h, w = MODEL.out_shape(end - 1)
        cut = cut % h
        if cut == 0:
            return
        region = Region.from_bounds(0, cut, 0, w)
        actual = segment_flops(MODEL, start, end, region)
        owned = segment_owned_flops(MODEL, start, end, region)
        assert owned <= actual + 1e-6

    @given(weights=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_weighted_partition_owned_sums_to_full(self, weights):
        _, h, w = MODEL.final_shape
        rows = weighted_partition(h, weights)
        total_owned = sum(
            segment_owned_flops(MODEL, 0, MODEL.n_units, region)
            for region in strip_regions(h, w, rows)
            if not region.empty
        )
        full = segment_flops(MODEL, 0, MODEL.n_units, Region.full(h, w))
        assert total_owned == pytest.approx(full, rel=1e-9)


def _random_plan(n_stage_units, device_caps):
    """Build a valid pipelined plan from stage sizes and capacities."""
    stages = []
    pos = 0
    dev_idx = 0
    for units, caps in zip(n_stage_units, device_caps):
        end = pos + units
        _, h, w = MODEL.out_shape(end - 1)
        devices = [
            Device(f"d{dev_idx + i}", float(c)) for i, c in enumerate(caps)
        ]
        dev_idx += len(caps)
        rows = weighted_partition(h, [d.capacity for d in devices])
        assignments = tuple(
            (d, Region.from_bounds(iv.start, iv.end, 0, w))
            for d, iv in zip(devices, rows)
        )
        stages.append(StagePlan(pos, end, assignments))
        pos = end
    return PipelinePlan(MODEL.name, tuple(stages), mode="pipelined")


@st.composite
def random_plans(draw):
    n_units = MODEL.n_units
    n_stages = draw(st.integers(1, min(3, n_units)))
    # Random contiguous split of the units.
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, n_units - 1),
                min_size=n_stages - 1,
                max_size=n_stages - 1,
                unique=True,
            )
        )
    )
    bounds = [0] + cuts + [n_units]
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    caps = [
        draw(
            st.lists(st.floats(1e8, 1e10), min_size=1, max_size=3)
        )
        for _ in sizes
    ]
    return _random_plan(sizes, caps)


class TestPlanProperties:
    @given(plan=random_plans())
    @settings(max_examples=20, deadline=None)
    def test_serialize_roundtrip(self, plan):
        assert plan_from_dict(plan_to_dict(plan)) == plan

    @given(plan=random_plans())
    @settings(max_examples=15, deadline=None)
    def test_period_le_latency(self, plan):
        cost = plan_cost(MODEL, plan, NET)
        assert cost.period <= cost.latency + 1e-12

    @given(plan=random_plans(), n_tasks=st.integers(1, 10))
    @settings(max_examples=10, deadline=None)
    def test_simulator_conservation(self, plan, n_tasks):
        """Every arrival completes; latencies are at least the plan
        latency; completions are FIFO."""
        cost = plan_cost(MODEL, plan, NET)
        sim = simulate_scenario(
            MODEL, plan, network=NET,
            arrivals=[0.1 * i for i in range(n_tasks)],
        )
        assert sim.completed == n_tasks
        for record in sim.tasks:
            assert record.latency >= cost.latency - 1e-9
        completions = [t.completion for t in sim.tasks]
        assert completions == sorted(completions)
