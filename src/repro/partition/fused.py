"""Fused-segment region propagation.

When a device executes a contiguous layer segment on a tile (fused-layer
execution, DeepThings-style), the input region it needs grows
recursively with every layer — this is the redundant-computation source
the paper optimises against.  This module back-propagates output regions
through chains, blocks and whole unit segments, producing

* the exact input region (+ virtual padding) needed at every layer, and
* the *owned* (non-redundant) stride projection used for redundancy
  accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.models.graph import BlockUnit, LayerUnit, Model, PlanUnit
from repro.models.layers import SpatialLayer
from repro.partition.regions import (
    Interval,
    PaddedRegion,
    Region,
    owned_interval,
    receptive_region,
)

__all__ = [
    "LayerTile",
    "ChainTiles",
    "chain_backprop",
    "chain_forward_hw",
    "unit_input_region",
    "segment_input_region",
    "unit_owned_input",
]

_Size2 = Tuple[int, int]


@dataclass(frozen=True)
class LayerTile:
    """One layer's tile geometry inside a fused segment."""

    layer: SpatialLayer
    in_hw: _Size2
    input: PaddedRegion  # what the layer reads (clipped region + pads)
    output: Region  # what the layer produces


@dataclass(frozen=True)
class ChainTiles:
    """Tile geometry for a whole chain, outermost input first."""

    tiles: Tuple[LayerTile, ...]

    @property
    def input(self) -> PaddedRegion:
        return self.tiles[0].input

    @property
    def output(self) -> Region:
        return self.tiles[-1].output


def chain_forward_hw(chain: "Sequence[SpatialLayer]", in_hw: _Size2) -> "List[_Size2]":
    """Per-layer input spatial sizes; entry ``i`` is layer ``i``'s input,
    the final entry is the chain output size."""
    sizes = [in_hw]
    for layer in chain:
        sizes.append(layer.out_spatial(sizes[-1]))
    return sizes


def chain_backprop(
    chain: "Sequence[SpatialLayer]", in_hw: _Size2, out_region: Region
) -> ChainTiles:
    """Back-propagate ``out_region`` (a region of the chain's output map)
    through the chain, yielding each layer's tile geometry."""
    if not chain:
        raise ValueError("chain_backprop needs a non-empty chain")
    sizes = chain_forward_hw(chain, in_hw)
    tiles: "List[LayerTile]" = []
    region = out_region
    for i in range(len(chain) - 1, -1, -1):
        layer = chain[i]
        padded = receptive_region(
            region, layer.kernel_size, layer.stride, layer.padding, sizes[i]
        )
        tiles.append(LayerTile(layer, sizes[i], padded, region))
        region = padded.region
    tiles.reverse()
    return ChainTiles(tuple(tiles))


def unit_input_region(unit: PlanUnit, in_hw: _Size2, out_region: Region) -> Region:
    """Input region a plan unit needs to produce ``out_region``.

    For blocks this is the union over paths (paper §IV-B: per-path
    partitions are combined "into a bigger one").  Identity paths need
    the output region itself.
    """
    if isinstance(unit, LayerUnit):
        return chain_backprop((unit.layer,), in_hw, out_region).input.region
    assert isinstance(unit, BlockUnit)
    union: Optional[Region] = None
    for path in unit.paths:
        if path:
            need = chain_backprop(path, in_hw, out_region).input.region
        else:
            need = out_region  # identity shortcut
        union = need if union is None else union.union_hull(need)
    assert union is not None
    return union


def segment_input_region(
    model: Model, start: int, end: int, out_region: Region
) -> Region:
    """Input region needed at unit ``start``'s input to produce
    ``out_region`` of unit ``end - 1``'s output (units ``[start, end)``)."""
    if not 0 <= start < end <= model.n_units:
        raise ValueError(f"bad segment [{start}, {end}) for {model.n_units} units")
    region = out_region
    for idx in range(end - 1, start - 1, -1):
        _, h, w = model.in_shape(idx)
        region = unit_input_region(model.units[idx], (h, w), region)
    return region


def unit_owned_input(unit: PlanUnit, in_hw: _Size2, out_region: Region) -> Region:
    """Stride-only projection of ``out_region`` onto the unit's input —
    the non-redundant share (no kernel halo)."""
    _ = unit  # stride comes from the unit itself
    sv, sh = unit.total_stride(unit.in_channels, in_hw)
    return Region(
        owned_interval(out_region.rows, sv, in_hw[0]),
        owned_interval(out_region.cols, sh, in_hw[1]),
    )
