"""Tests for strip and grid partitioners."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.partition.grid import grid_partition, grid_shape_for
from repro.partition.regions import Interval
from repro.partition.strips import (
    equal_partition,
    strip_regions,
    weighted_partition,
)


def _assert_covers(intervals, length):
    pos = 0
    for iv in intervals:
        assert iv.start == pos
        pos = iv.end
    assert pos == length


class TestEqualPartition:
    def test_even(self):
        assert equal_partition(8, 4) == [
            Interval(0, 2), Interval(2, 4), Interval(4, 6), Interval(6, 8)
        ]

    def test_remainder_goes_first(self):
        parts = equal_partition(7, 3)
        assert [len(p) for p in parts] == [3, 2, 2]
        _assert_covers(parts, 7)

    def test_more_parts_than_length(self):
        parts = equal_partition(2, 5)
        assert [len(p) for p in parts] == [1, 1, 0, 0, 0]
        _assert_covers(parts, 2)

    def test_zero_length(self):
        parts = equal_partition(0, 3)
        assert all(p.empty for p in parts)

    def test_invalid(self):
        with pytest.raises(ValueError):
            equal_partition(5, 0)
        with pytest.raises(ValueError):
            equal_partition(-1, 2)

    @given(length=st.integers(0, 200), parts=st.integers(1, 20))
    def test_property_coverage_and_balance(self, length, parts):
        result = equal_partition(length, parts)
        assert len(result) == parts
        _assert_covers(result, length)
        sizes = [len(p) for p in result]
        assert max(sizes) - min(sizes) <= 1


class TestWeightedPartition:
    def test_single(self):
        assert weighted_partition(10, [3.0]) == [Interval(0, 10)]

    def test_proportionality(self):
        parts = weighted_partition(30, [2.0, 1.0])
        assert len(parts[0]) == 20 and len(parts[1]) == 10
        _assert_covers(parts, 30)

    def test_all_zero_weights_fall_back_to_equal(self):
        parts = weighted_partition(9, [0.0, 0.0, 0.0])
        assert [len(p) for p in parts] == [3, 3, 3]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_partition(10, [1.0, -1.0])

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_partition(10, [])

    @given(
        length=st.integers(0, 128),
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=10),
    )
    def test_property_contiguous_coverage(self, length, weights):
        parts = weighted_partition(length, weights)
        assert len(parts) == len(weights)
        _assert_covers(parts, length)

    @given(
        scale=st.integers(1, 8),
        weights=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    )
    def test_property_exact_when_divisible(self, scale, weights):
        """When the length is an exact multiple of the weight total,
        every strip is exactly proportional."""
        total = sum(weights)
        parts = weighted_partition(total * scale, [float(w) for w in weights])
        assert [len(p) for p in parts] == [w * scale for w in weights]


class TestStripRegions:
    def test_lift(self):
        regions = strip_regions(6, 9, equal_partition(6, 3))
        assert all(r.width == 9 for r in regions)
        assert sum(r.area for r in regions) == 54

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            strip_regions(4, 9, [Interval(0, 5)])


class TestGrid:
    def test_shape_for(self):
        assert grid_shape_for(4) == (2, 2)
        assert grid_shape_for(6) == (2, 3)
        assert grid_shape_for(7) == (1, 7)
        assert grid_shape_for(1) == (1, 1)

    def test_shape_invalid(self):
        with pytest.raises(ValueError):
            grid_shape_for(0)

    def test_partition_covers(self):
        regions = grid_partition(8, 12, 2, 3)
        assert len(regions) == 6
        assert sum(r.area for r in regions) == 96
        for a in regions:
            for b in regions:
                if a is not b:
                    assert a.overlap_area(b) == 0

    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
    )
    def test_property_grid_disjoint_cover(self, h, w, rows, cols):
        regions = grid_partition(h, w, rows, cols)
        assert sum(r.area for r in regions) == h * w
