"""2-D grid partitioner (DeepThings-style) — ablation extension.

DeepThings partitions feature maps into 2-D grids instead of strips to
reduce per-device memory; the trade-off is more overlap edges.  PICO and
our baselines default to strips (as in MoDNN/AOFL), but the grid
partitioner lets the benchmarks quantify the difference.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.partition.regions import Region
from repro.partition.strips import equal_partition

__all__ = ["grid_shape_for", "grid_partition"]


def grid_shape_for(parts: int) -> Tuple[int, int]:
    """Most-square (rows, cols) factorisation of ``parts``."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    best = (1, parts)
    for rows in range(1, int(math.isqrt(parts)) + 1):
        if parts % rows == 0:
            best = (rows, parts // rows)
    return best


def grid_partition(height: int, width: int, rows: int, cols: int) -> "List[Region]":
    """Split an ``H×W`` map into an equal ``rows × cols`` grid
    (row-major order)."""
    row_ivs = equal_partition(height, rows)
    col_ivs = equal_partition(width, cols)
    return [Region(r, c) for r in row_ivs for c in col_ivs]
