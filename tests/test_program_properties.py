"""Property-based tests for tiled compilation and region algebra.

Hypothesis drives random tile grids through the same
``split_stage`` → ``run_segment`` → ``stitch_stage`` path the runtime
uses, checking the two invariants everything else rests on:

* any rectangular partition of the output map round-trips **exactly**
  (bit-identical to the full-map forward), and
* the compiled task regions tile the output: areas sum to the full map
  with zero pairwise overlap.

Plus the 1-D receptive-field algebra those guarantees reduce to.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster.device import Device
from repro.core.plan import StagePlan
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.tiles import run_segment
from repro.nn.weights import init_weights
from repro.partition.regions import (
    Interval,
    Region,
    owned_interval,
    receptive_interval,
)
from repro.runtime.program import compile_stage, split_stage, stitch_stage

MODEL = toy_chain(2, 1, input_hw=20, in_channels=3, base_channels=4)
WEIGHTS = init_weights(MODEL, seed=0)
ENGINE = Engine(MODEL, WEIGHTS)
N_UNITS = len(MODEL.units)
_, H_OUT, W_OUT = MODEL.out_shape(N_UNITS - 1)


def _grid_regions(row_cuts, col_cuts):
    """The rectangle grid induced by sorted interior cut points."""
    row_bounds = [0] + sorted(row_cuts) + [H_OUT]
    col_bounds = [0] + sorted(col_cuts) + [W_OUT]
    return [
        Region.from_bounds(r0, r1, c0, c1)
        for r0, r1 in zip(row_bounds, row_bounds[1:])
        for c0, c1 in zip(col_bounds, col_bounds[1:])
    ]


def _compile_grid(row_cuts, col_cuts):
    regions = _grid_regions(row_cuts, col_cuts)
    assignments = tuple(
        (Device(f"d{i}", 1e9), region) for i, region in enumerate(regions)
    )
    stage = StagePlan(0, N_UNITS, assignments)
    return compile_stage(MODEL, stage, 0)


cut_lists = lambda size: st.lists(
    st.integers(1, size - 1), unique=True, max_size=3
)


class TestTileGridRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        row_cuts=cut_lists(H_OUT),
        col_cuts=cut_lists(W_OUT),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_split_run_stitch_round_trips(self, row_cuts, col_cuts, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(MODEL.input_shape).astype(np.float32)
        stage = _compile_grid(row_cuts, col_cuts)

        def run_once():
            tiles = split_stage(stage.tasks, x)
            outs = [
                run_segment(ENGINE, task.program, tile)
                for task, tile in zip(stage.tasks, tiles)
            ]
            return stitch_stage(stage, stage.tasks, outs)

        stitched = run_once()
        # The tiled path itself is fully deterministic: bit-identical on
        # every run, whatever the grid.
        assert np.array_equal(stitched, run_once())
        # Against the full-map forward it is exact up to accumulation
        # order: BLAS blocks the GEMM reduction by matrix shape, so a
        # narrow tile may round the same dot product one ulp apart.
        np.testing.assert_allclose(
            stitched, ENGINE.forward_features(x), rtol=1e-5, atol=1e-6
        )

    @settings(max_examples=25, deadline=None)
    @given(row_cuts=cut_lists(H_OUT), col_cuts=cut_lists(W_OUT))
    def test_task_regions_tile_the_output(self, row_cuts, col_cuts):
        stage = _compile_grid(row_cuts, col_cuts)
        regions = [task.region for task in stage.tasks]
        assert sum(r.area for r in regions) == H_OUT * W_OUT
        full = Region.full(H_OUT, W_OUT)
        for i, a in enumerate(regions):
            assert full.contains(a)
            for b in regions[i + 1:]:
                assert a.overlap_area(b) == 0

    @settings(max_examples=25, deadline=None)
    @given(row_cuts=cut_lists(H_OUT), col_cuts=cut_lists(W_OUT))
    def test_input_tiles_cover_what_each_task_reads(self, row_cuts,
                                                    col_cuts):
        """Each task's input tile shape matches its program's region —
        the contract ``run_segment`` enforces at execution time."""
        stage = _compile_grid(row_cuts, col_cuts)
        x = np.zeros(MODEL.input_shape, dtype=np.float32)
        tiles = split_stage(stage.tasks, x)
        for task, tile in zip(stage.tasks, tiles):
            want = task.program.input_region
            assert tile.shape[1:] == (want.height, want.width)


class TestReceptiveIntervalAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.integers(0, 12),
        length=st.integers(1, 8),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        in_size=st.integers(8, 40),
    )
    def test_receptive_window_bounds(self, lo, length, kernel, stride,
                                     padding, in_size):
        out = Interval(lo, lo + length)
        padded = receptive_interval(out, kernel, stride, padding, in_size)
        # The clipped interval lies in the real map.
        assert 0 <= padded.interval.start <= padded.interval.end <= in_size
        assert padded.pad_lo >= 0 and padded.pad_hi >= 0
        # Real rows plus virtual padding reconstruct the exact window a
        # padding-free convolution needs for this output interval.
        want = (length - 1) * stride + kernel
        assert len(padded.interval) + padded.pad_lo + padded.pad_hi == want

    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.integers(0, 8),
        left=st.integers(1, 6),
        right=st.integers(1, 6),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        in_size=st.integers(16, 40),
    )
    def test_adjacent_outputs_have_adjacent_receptive_hulls(
        self, lo, left, right, kernel, stride, padding, in_size
    ):
        """Splitting an output interval splits its receptive field: the
        parts' clipped intervals hull back to the whole's interval, and
        the outer padding belongs to the outer parts.

        Holds for real convolution geometry — windows that touch
        (``stride <= kernel``), padding below the kernel extent, and an
        output interval whose window fits the input map.  (With
        ``stride > kernel`` adjacent windows leave gaps and the hull
        identity fails by design.)"""
        assume(stride <= kernel)
        assume(padding < kernel)
        assume(
            (lo + left + right - 1) * stride + kernel - padding <= in_size
        )
        whole = Interval(lo, lo + left + right)
        a = Interval(lo, lo + left)
        b = Interval(lo + left, lo + left + right)
        rw = receptive_interval(whole, kernel, stride, padding, in_size)
        ra = receptive_interval(a, kernel, stride, padding, in_size)
        rb = receptive_interval(b, kernel, stride, padding, in_size)
        assert ra.interval.union_hull(rb.interval) == rw.interval
        assert ra.pad_lo == rw.pad_lo
        assert rb.pad_hi == rw.pad_hi

    @settings(max_examples=50, deadline=None)
    @given(
        cut=st.integers(1, 15),
        size=st.integers(16, 32),
        stride=st.integers(1, 3),
    )
    def test_owned_projections_are_disjoint_and_cover(self, cut, size,
                                                      stride):
        in_size = size * stride
        a = owned_interval(Interval(0, cut), stride, in_size)
        b = owned_interval(Interval(cut, size), stride, in_size)
        assert a.overlap(b) == 0
        assert a.union_hull(b) == Interval(0, in_size)


class TestIntervalAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(
        a0=st.integers(0, 20), al=st.integers(0, 10),
        b0=st.integers(0, 20), bl=st.integers(0, 10),
    )
    def test_intersect_overlap_hull_consistency(self, a0, al, b0, bl):
        a, b = Interval(a0, a0 + al), Interval(b0, b0 + bl)
        inter = a.intersect(b)
        assert len(inter) == a.overlap(b) == b.overlap(a)
        hull = a.union_hull(b)
        assert hull.contains(a) and hull.contains(b)
        assert len(hull) <= len(a) + len(b) + max(
            0, max(a.start, b.start) - min(a.end, b.end)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        a0=st.integers(-5, 20), al=st.integers(0, 10),
        lo=st.integers(0, 10), span=st.integers(0, 15),
        offset=st.integers(-8, 8),
    )
    def test_clip_and_shift(self, a0, al, lo, span, offset):
        a = Interval(a0, a0 + al)
        clipped = a.clip(lo, lo + span)
        assert lo <= clipped.start <= clipped.end <= lo + span
        assert len(clipped) == a.overlap(Interval(lo, lo + span))
        shifted = a.shift(offset)
        assert len(shifted) == len(a)
        assert shifted.start == a.start + offset


def test_model_under_test_is_nontrivial():
    """Guard: the grid property exercises convs, ReLUs and a pool."""
    assert N_UNITS >= 3
    assert H_OUT >= 8 and W_OUT >= 8
    with pytest.raises(ValueError):
        Interval(3, 2)
