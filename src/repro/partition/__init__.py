"""Feature-map partitioning: region algebra, strips, grids, fused tiles."""

from repro.partition.fused import (
    ChainTiles,
    LayerTile,
    chain_backprop,
    chain_forward_hw,
    segment_input_region,
    unit_input_region,
    unit_owned_input,
)
from repro.partition.grid import grid_partition, grid_shape_for
from repro.partition.regions import (
    EMPTY_INTERVAL,
    Interval,
    PaddedInterval,
    PaddedRegion,
    Region,
    out_size,
    owned_interval,
    receptive_interval,
    receptive_region,
)
from repro.partition.strips import (
    check_tiling,
    equal_partition,
    strip_regions,
    weighted_partition,
    weighted_strips,
)

__all__ = [
    "ChainTiles",
    "EMPTY_INTERVAL",
    "Interval",
    "LayerTile",
    "PaddedInterval",
    "PaddedRegion",
    "Region",
    "chain_backprop",
    "chain_forward_hw",
    "check_tiling",
    "equal_partition",
    "grid_partition",
    "grid_shape_for",
    "out_size",
    "owned_interval",
    "receptive_interval",
    "receptive_region",
    "segment_input_region",
    "strip_regions",
    "unit_input_region",
    "unit_owned_input",
    "weighted_partition",
    "weighted_strips",
]
