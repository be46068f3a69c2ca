"""FLOP accounting (paper Eq. 2–4).

``f(l_i; F) = k_h * k_w * c_in * h * w * c_out`` for a conv layer
producing an ``h × w`` output region (Eq. 2, generalised to non-square
kernels).  Pool layers "require far fewer FLOPs than conv layers" and
are ignored by default, exactly as the paper does; set
``CostOptions(include_pool=True)`` to count them.

Besides the *actual* FLOPs of a fused tile (with halo overlap, Eq. 4),
this module computes the *owned* FLOPs — each device's disjoint share,
obtained by stride-projecting its final output partition backwards.
``actual − owned`` is the redundant computation reported in the paper's
Table I and Fig. 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cost.comm import BYTES_PER_VALUE
from repro.models.graph import BlockUnit, LayerUnit, Model, PlanUnit
from repro.models.layers import ConvSpec, PoolSpec, SpatialLayer
from repro.partition.fused import chain_backprop, unit_input_region, unit_owned_input
from repro.partition.regions import Region

__all__ = [
    "CostOptions",
    "layer_flops",
    "unit_flops",
    "full_unit_flops",
    "segment_flops",
    "segment_owned_flops",
    "model_flops",
    "head_flops",
    "LayerProfile",
    "layer_profiles",
]


@dataclass(frozen=True)
class CostOptions:
    """Knobs of the analytic cost model."""

    include_pool: bool = False  # paper ignores pool FLOPs (Eq. 2 remark)
    include_head: bool = True  # account FC layers to the final stage
    #: Model WLAN contention across concurrent pipeline stages: all
    #: stages share one medium, so a pipelined plan's period is bounded
    #: below by the total per-period communication (extension; the
    #: paper's Eq. 10 assumes stage transfers do not collide).
    shared_medium: bool = False


DEFAULT_OPTIONS = CostOptions()


def layer_flops(
    layer: SpatialLayer, out_region: Region, options: CostOptions = DEFAULT_OPTIONS
) -> float:
    """FLOPs for one layer producing ``out_region`` (Eq. 2)."""
    if out_region.empty:
        return 0.0
    kh, kw = layer.kernel_size
    if isinstance(layer, ConvSpec):
        in_per_group = layer.in_channels // layer.groups
        return float(kh * kw * in_per_group * out_region.area * layer.out_channels)
    assert isinstance(layer, PoolSpec)
    if not options.include_pool:
        return 0.0
    return float(kh * kw * layer.channels * out_region.area)


def unit_flops(
    unit: PlanUnit,
    in_hw: "Tuple[int, int]",
    out_region: Region,
    options: CostOptions = DEFAULT_OPTIONS,
) -> float:
    """FLOPs for one plan unit producing ``out_region`` of its output.

    Block units sum over every internal layer, with regions
    back-propagated per path (halo included)."""
    if out_region.empty:
        return 0.0
    if isinstance(unit, LayerUnit):
        return layer_flops(unit.layer, out_region, options)
    assert isinstance(unit, BlockUnit)
    total = 0.0
    for path in unit.paths:
        if not path:
            continue  # identity shortcut: zero FLOPs
        tiles = chain_backprop(path, in_hw, out_region)
        for tile in tiles.tiles:
            total += layer_flops(tile.layer, tile.output, options)
    return total


def full_unit_flops(
    model: Model, unit_index: int, options: CostOptions = DEFAULT_OPTIONS
) -> float:
    """FLOPs of unit ``unit_index`` over its entire output map."""
    _, h_in, w_in = model.in_shape(unit_index)
    _, h_out, w_out = model.out_shape(unit_index)
    return unit_flops(
        model.units[unit_index], (h_in, w_in), Region.full(h_out, w_out), options
    )


def segment_flops(
    model: Model,
    start: int,
    end: int,
    out_region: Region,
    options: CostOptions = DEFAULT_OPTIONS,
) -> float:
    """Eq. (4): FLOPs a device spends producing ``out_region`` of unit
    ``end - 1`` with the fused segment ``[start, end)`` — halo included."""
    if not 0 <= start < end <= model.n_units:
        raise ValueError(f"bad segment [{start}, {end}) for {model.n_units} units")
    total = 0.0
    region = out_region
    for idx in range(end - 1, start - 1, -1):
        _, h, w = model.in_shape(idx)
        total += unit_flops(model.units[idx], (h, w), region, options)
        region = unit_input_region(model.units[idx], (h, w), region)
    return total


def segment_owned_flops(
    model: Model,
    start: int,
    end: int,
    out_region: Region,
    options: CostOptions = DEFAULT_OPTIONS,
) -> float:
    """The device's disjoint share of segment FLOPs.

    At each unit the owned output region is the stride-only projection
    of the final partition; owned FLOPs are the unit's full FLOPs scaled
    by the owned area fraction.  Summing over a stage's devices yields
    exactly the segment's full-map FLOPs, so redundancy ratios are
    well-defined."""
    if not 0 <= start < end <= model.n_units:
        raise ValueError(f"bad segment [{start}, {end}) for {model.n_units} units")
    total = 0.0
    owned = out_region
    for idx in range(end - 1, start - 1, -1):
        _, h_out, w_out = model.out_shape(idx)
        full_area = h_out * w_out
        if full_area > 0 and not owned.empty:
            total += full_unit_flops(model, idx, options) * owned.area / full_area
        _, h, w = model.in_shape(idx)
        owned = unit_owned_input(model.units[idx], (h, w), owned)
    return total


def head_flops(model: Model) -> float:
    """Multiply–accumulate count of the dense head."""
    return float(sum(d.in_features * d.out_features for d in model.head))


def model_flops(model: Model) -> float:
    """Full single-inference FLOPs of the model, dense head included."""
    total = sum(
        full_unit_flops(model, i, DEFAULT_OPTIONS) for i in range(model.n_units)
    )
    return total + head_flops(model)


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer computation and communication profile (paper Fig. 2)."""

    name: str
    kind: str
    flops: float
    output_bytes: int


def layer_profiles(
    model: Model, options: CostOptions = DEFAULT_OPTIONS
) -> "List[LayerProfile]":
    """Per-layer FLOPs and output sizes across the whole model
    (block internals flattened), reproducing Fig. 2's data."""
    profiles = []
    for info in model.iter_layers():
        c, h, w = info.out_shape
        region = Region.full(h, w)
        profiles.append(
            LayerProfile(
                info.layer.name,
                info.layer.kind,
                layer_flops(info.layer, region, options),
                c * h * w * BYTES_PER_VALUE,
            )
        )
    return profiles
