"""Property tests for the IOP channel-partition algebra.

Three families, per the scheme's contracts:

* the capacity-weighted channel partition tiles ``[0, c_out)`` exactly
  and disjointly for arbitrary device counts and weights;
* de-interleaving channel slices is the exact inverse of interleaving —
  both on raw arrays and through the compiled runtime's
  ``split_stage``/``stitch_stage`` path, single-frame and batched;
* one tiling check (``partition.strips.check_tiling``) guards both the
  channel cost (``channel_stage_time``) and the stage compiler.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import Device, heterogeneous_cluster
from repro.core.plan import StagePlan
from repro.cost.comm import NetworkModel
from repro.cost.stage_cost import channel_slice_flops, channel_stage_time
from repro.models.toy import toy_chain
from repro.partition.regions import Region
from repro.partition.strips import check_tiling
from repro.runtime.program import (
    compile_plan,
    compile_stage,
    split_stage,
    stitch_stage,
)
from repro.schemes import get_scheme
from repro.schemes.interleaved import channel_partition

NETWORK = NetworkModel.from_mbps(50.0)

_weights = st.lists(
    st.floats(min_value=0.05, max_value=100.0, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=8,
)


@pytest.fixture(scope="module")
def toy_model():
    return toy_chain(4, 1, input_hw=24, in_channels=3, base_channels=8)


# ---------------------------------------------------------------------------
# Partition algebra
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(c_out=st.integers(min_value=1, max_value=512), weights=_weights)
def test_property_partition_tiles_exactly(c_out, weights):
    """The intervals cover [0, c_out) disjointly, in order, one per
    device — surplus devices get empty (lo == hi) intervals."""
    groups = channel_partition(c_out, tuple(weights))
    assert len(groups) == len(weights)
    cursor = 0
    for lo, hi in groups:
        assert lo == cursor, f"gap or overlap at channel {cursor}: {groups}"
        assert hi >= lo
        cursor = hi
    assert cursor == c_out, f"partition does not reach c_out: {groups}"


@settings(max_examples=100, deadline=None)
@given(c_out=st.integers(min_value=1, max_value=256), weights=_weights)
def test_property_partition_balanced_when_weights_equal(c_out, weights):
    """Equal weights give a balanced split: slice sizes differ by at
    most one channel.  (Skewed weights may legitimately starve a slow
    device of a small c_out — its capacity share rounds to zero.)"""
    equal = tuple(1.0 for _ in weights)
    sizes = [hi - lo for lo, hi in channel_partition(c_out, equal)]
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# Interleave ∘ de-interleave == identity
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=64),
    h=st.integers(min_value=1, max_value=8),
    w=st.integers(min_value=1, max_value=8),
    batch=st.integers(min_value=0, max_value=3),
    weights=_weights,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_interleave_roundtrip_identity(c, h, w, batch, weights, seed):
    """Slicing by the partition and scattering the slices back is the
    identity, bit-for-bit, for any rank (batch == 0 means (C, H, W))."""
    rng = np.random.default_rng(seed)
    shape = (c, h, w) if batch == 0 else (c, batch, h, w)
    x = rng.standard_normal(shape).astype(np.float32)
    groups = channel_partition(c, tuple(weights))
    out = np.empty_like(x)
    for lo, hi in groups:
        out[lo:hi] = x[lo:hi]
    assert np.array_equal(out, x)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_compiled_stitch_inverts_interleave(toy_model, seed):
    """Through the compiled runtime: for every channel-parallel stage of
    the IOP plan, stitching each task's slice of a map reassembles the
    map exactly, and every task's split input is the full map."""
    cluster = heterogeneous_cluster([1200, 1000, 800, 600])
    plan = get_scheme("iop").plan(toy_model, cluster, NETWORK)
    program = compile_plan(toy_model, plan)
    rng = np.random.default_rng(seed)
    checked = 0
    for stage in program.stages:
        if not stage.channel:
            continue
        y = rng.standard_normal(stage.out_shape).astype(np.float32)
        tiles = []
        for task in stage.tasks:
            (t_lo, t_hi, lo, hi), = task.channel_blocks
            assert (t_lo, t_hi) == (0, hi - lo)
            tiles.append(y[lo:hi])
        assert np.array_equal(stitch_stage(stage, stage.tasks, tiles), y)
        # The interleave scatter broadcasts the full input map.
        c_in, h_in, w_in = (
            toy_model.in_shape(stage.start)
        )
        x = rng.standard_normal((c_in, h_in, w_in)).astype(np.float32)
        for tile in split_stage(stage.tasks, x):
            assert np.array_equal(tile, x)
        checked += 1
    assert checked > 0, "IOP plan for the toy chain has no channel stages"


# ---------------------------------------------------------------------------
# One tiling check, shared by the cost model and the stage compiler
# ---------------------------------------------------------------------------


def test_channel_cost_rejects_non_tiling_intervals(toy_model):
    """The shared check — and through it the cost model and the stage
    compiler — refuses a channel layout that leaves a gap, overlaps, or
    overruns c_out."""
    device = Device("d0", 1000.0)
    c_out = toy_model.out_shape(0)[0]
    _, oh, ow = toy_model.out_shape(0)
    full = Region.full(oh, ow)
    for bad in (
        ((1, c_out),),          # gap at the front
        ((0, c_out - 1),),      # short of c_out
        ((0, c_out + 1),),      # overruns c_out
        ((0, 2), (1, c_out)),   # overlap
    ):
        with pytest.raises(ValueError):
            check_tiling(bad, c_out)
        with pytest.raises(ValueError):
            channel_stage_time(
                toy_model, 0, tuple((device, iv) for iv in bad), NETWORK
            )
        with pytest.raises(ValueError):
            # (StagePlan itself already refuses the overlapping layout.)
            compile_stage(
                toy_model,
                StagePlan(
                    0, 1, tuple((device, full) for _ in bad), channel_groups=bad
                ),
                0,
            )
    check_tiling(((0, 3), (5, 5), (3, c_out)), c_out)  # idle slices are fine


def test_channel_cost_rejects_block_units():
    """Channel costs are layer-unit only: block units raise."""
    from repro.models.zoo import get_model

    model = get_model("resnet34", input_hw=64)
    block_index = next(
        i for i in range(model.n_units)
        if type(model.units[i]).__name__ == "BlockUnit"
    )
    device = Device("d0", 1000.0)
    c_out = model.out_shape(block_index)[0]
    with pytest.raises(ValueError):
        channel_slice_flops(model, block_index, 0, c_out)
    with pytest.raises(ValueError):
        channel_stage_time(
            model, block_index, ((device, (0, c_out)),), NETWORK
        )
