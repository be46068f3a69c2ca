"""Stage and pipeline timing (paper Eq. 5–11).

A stage executes a fused unit segment ``[start, end)`` over a set of
``(device, output-region)`` assignments.  Its cost (Eq. 9) is

    T(S) = max_k t_comp(d_k)  +  Σ_k t_comm(d_f, d_k)

— compute is parallel (Eq. 6), communication shares the medium (Eq. 8).
The pipeline *period* is the maximum stage cost (Eq. 10), its *latency*
the sum (Eq. 11).

:func:`fold_stage` is the only place that formula is written.  The three
stage geometries below (row strips, block paths, channel slices) and the
vectorized table's strip fast path (:mod:`repro.cost.tables`) only
produce per-device ``(device, t_comp, t_comm)`` rows for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.cluster.device import Device
from repro.cost.comm import BYTES_PER_VALUE, NetworkModel, region_bytes
from repro.cost.flops import (
    CostOptions,
    DEFAULT_OPTIONS,
    head_flops,
    segment_flops,
    segment_owned_flops,
)
from repro.models.graph import Model
from repro.partition.fused import segment_input_region
from repro.partition.regions import Region
from repro.partition.strips import check_tiling

__all__ = ["DeviceCost", "StageCost", "fold_stage", "stage_time",
           "branch_stage_time", "channel_stage_time", "channel_slice_flops",
           "single_device_time"]

Assignment = Tuple[Device, Region]


@dataclass(frozen=True)
class DeviceCost:
    """One device's share of a stage."""

    device: Device
    out_region: Region
    in_region: Region
    flops: float
    owned_flops: float
    t_comp: float
    t_comm: float


@dataclass(frozen=True)
class StageCost:
    """Aggregate cost of one stage (Eq. 9)."""

    start: int
    end: int
    devices: Tuple[DeviceCost, ...]
    t_comp: float  # Eq. 6: max over devices
    t_comm: float  # Eq. 8: sum over devices
    t_head: float = 0.0  # dense head, serial on the stitching device

    @property
    def total(self) -> float:
        return self.t_comp + self.t_comm + self.t_head


def fold_stage(
    model: Model,
    rows: "Sequence[Tuple[Device, float, float]]",
    options: CostOptions,
    with_head: bool,
) -> "Tuple[float, float, float]":
    """Eq. 9, written once: ``(t_comp, t_comm, t_head)`` of a stage from
    its per-device ``(device, t_comp, t_comm)`` rows, in assignment
    order (an idle device is a row of zeros — it still counts as
    assigned).

    Compute is the maximum over devices, communication the sum;
    ``with_head`` adds the dense-head compute, serial on the fastest
    assigned device — used by segments that end at the final unit.
    """
    if not rows:
        raise ValueError("stage needs at least one device assignment")
    t_comp = 0.0
    t_comm = 0.0
    for _, comp, comm in rows:
        if comp > t_comp:
            t_comp = comp
        t_comm += comm
    t_head = 0.0
    if with_head and options.include_head and model.head:
        fastest = max((row[0] for row in rows), key=lambda d: d.capacity)
        t_head = fastest.compute_time(head_flops(model))
    return t_comp, t_comm, t_head


def _stage_cost(
    model: Model,
    start: int,
    end: int,
    device_costs: "List[DeviceCost]",
    options: CostOptions,
    with_head: bool,
) -> StageCost:
    """Fold a geometry's per-device shares into the stage's cost."""
    t_comp, t_comm, t_head = fold_stage(
        model,
        [(dc.device, dc.t_comp, dc.t_comm) for dc in device_costs],
        options,
        with_head,
    )
    return StageCost(start, end, tuple(device_costs), t_comp, t_comm, t_head)


def _idle(device: Device, region: Region) -> DeviceCost:
    """An assigned device with nothing to do."""
    return DeviceCost(device, region, region, 0.0, 0.0, 0.0, 0.0)


_NO_REGION = Region.from_bounds(0, 0, 0, 0)


def stage_time(
    model: Model,
    start: int,
    end: int,
    assignments: "Sequence[Assignment]",
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    with_head: bool = False,
) -> StageCost:
    """Cost of a stage executing units ``[start, end)`` with the given
    ``(device, final-output-region)`` assignments — the *row-strip*
    geometry (any regions, grid tiles included): each device receives
    its halo-grown segment input region and returns its output region.
    """
    c_in = model.in_shape(start)[0]
    c_out = model.out_shape(end - 1)[0]
    device_costs = []
    for device, out_region in assignments:
        if out_region.empty:
            device_costs.append(_idle(device, out_region))
            continue
        in_region = segment_input_region(model, start, end, out_region)
        flops = segment_flops(model, start, end, out_region, options)
        owned = segment_owned_flops(model, start, end, out_region, options)
        t_comp = device.compute_time(flops)
        nbytes = region_bytes(c_in, in_region) + region_bytes(c_out, out_region)
        t_comm = network.transfer_time(nbytes)
        device_costs.append(
            DeviceCost(device, out_region, in_region, flops, owned, t_comp, t_comm)
        )
    return _stage_cost(model, start, end, device_costs, options, with_head)


def branch_stage_time(
    model: Model,
    unit_index: int,
    assignments: "Sequence[Tuple[Device, Tuple[int, ...]]]",
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    with_head: bool = False,
) -> StageCost:
    """Cost of a *branch-parallel* stage over one concat block.

    Each device executes whole paths of the block over the full spatial
    map: it receives the union input region its paths need and returns
    its paths' output channels.  Channel outputs are disjoint, so owned
    FLOPs equal actual FLOPs — branch partitioning has zero redundancy
    (its price is that a single path cannot be split).
    """
    from repro.partition.branches import (
        path_flops,
        path_input_region,
        path_out_channels,
    )

    flops_per_path = path_flops(model, unit_index, options)
    channels_per_path = path_out_channels(model, unit_index)
    covered = [idx for _, paths in assignments for idx in paths]
    if sorted(covered) != list(range(len(flops_per_path))):
        raise ValueError(
            f"path groups {covered} must cover every path of unit "
            f"{model.units[unit_index].name} exactly once"
        )
    c_in = model.in_shape(unit_index)[0]
    _, oh, ow = model.out_shape(unit_index)
    device_costs = []
    for device, paths in assignments:
        if not paths:
            device_costs.append(_idle(device, _NO_REGION))
            continue
        flops = sum(flops_per_path[i] for i in paths)
        in_region = path_input_region(model, unit_index, paths)
        out_channels = sum(channels_per_path[i] for i in paths)
        nbytes = region_bytes(c_in, in_region) + (
            out_channels * oh * ow * BYTES_PER_VALUE
        )
        device_costs.append(
            DeviceCost(
                device,
                Region.full(oh, ow),
                in_region,
                flops,
                flops,  # disjoint channels: nothing is redundant
                device.compute_time(flops),
                network.transfer_time(nbytes),
            )
        )
    return _stage_cost(
        model, unit_index, unit_index + 1, device_costs, options, with_head
    )


def channel_slice_flops(
    model: Model,
    unit_index: int,
    lo: int,
    hi: int,
    options: CostOptions = DEFAULT_OPTIONS,
) -> float:
    """FLOPs for producing output channels ``[lo, hi)`` of one layer
    unit over its full spatial map.

    Eq. 2 is linear in ``c_out``, so a channel slice's cost is exactly
    the channel share of the full-map cost — computed in integer
    arithmetic so the vectorized table can reproduce it bit-for-bit.
    """
    from repro.models.graph import LayerUnit
    from repro.models.layers import ConvSpec, PoolSpec

    unit = model.units[unit_index]
    if not isinstance(unit, LayerUnit):
        raise ValueError(
            f"channel-parallel stages need a layer unit, got {unit.name!r}"
        )
    if hi <= lo:
        return 0.0
    _, oh, ow = model.out_shape(unit_index)
    layer = unit.layer
    kh, kw = layer.kernel_size
    if isinstance(layer, ConvSpec):
        in_per_group = layer.in_channels // layer.groups
        return float(kh * kw * in_per_group * (hi - lo) * oh * ow)
    assert isinstance(layer, PoolSpec)
    if not options.include_pool:
        return 0.0
    return float(kh * kw * (hi - lo) * oh * ow)


def channel_stage_time(
    model: Model,
    unit_index: int,
    assignments: "Sequence[Tuple[Device, Tuple[int, int]]]",
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    with_head: bool = False,
) -> StageCost:
    """Cost of a *channel-parallel* (IOP) stage over one layer unit.

    Each device receives the unit's **full** input map (the interleave
    exchange ships every input channel because a conv output channel
    reads all of them) and returns only its own output-channel slice
    (the de-interleave gather).  Output channels are disjoint, so owned
    FLOPs equal actual FLOPs — channel partitioning pays zero halo
    redundancy; its price is the full-input broadcast per stage.
    """
    c_out, oh, ow = model.out_shape(unit_index)
    check_tiling([interval for _, interval in assignments], c_out)
    c_in, h_in, w_in = model.in_shape(unit_index)
    full_in = Region.full(h_in, w_in)
    device_costs = []
    for device, (lo, hi) in assignments:
        if hi <= lo:
            device_costs.append(_idle(device, _NO_REGION))
            continue
        flops = channel_slice_flops(model, unit_index, lo, hi, options)
        nbytes = region_bytes(c_in, full_in) + (
            (hi - lo) * oh * ow * BYTES_PER_VALUE
        )
        device_costs.append(
            DeviceCost(
                device,
                Region.full(oh, ow),
                full_in,
                flops,
                flops,  # disjoint channels: nothing is redundant
                device.compute_time(flops),
                network.transfer_time(nbytes),
            )
        )
    return _stage_cost(
        model, unit_index, unit_index + 1, device_costs, options, with_head
    )


def single_device_time(
    model: Model,
    device: Device,
    options: CostOptions = DEFAULT_OPTIONS,
) -> float:
    """Wall-clock for one device running the whole model locally
    (the paper's single-device baseline for speedup ratios, Fig. 12)."""
    total = 0.0
    for idx in range(model.n_units):
        _, h, w = model.out_shape(idx)
        total += device.compute_time(
            segment_flops(model, idx, idx + 1, Region.full(h, w), options)
        )
    if options.include_head and model.head:
        total += device.compute_time(head_flops(model))
    return total
