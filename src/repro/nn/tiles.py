"""Region-restricted (tiled) segment execution.

A :class:`SegmentProgram` compiles "produce output region R of units
[start, end)" into per-layer steps whose virtual padding and crop
offsets are fixed ahead of time — the runtime equivalent of the paper's
C++ split/stitch that "directly operates the frame tensor data in
memory".  Executing a program on the extracted input tile produces
*bit-exact* the same values as slicing R out of a full-map inference;
the property-based tests assert this across random architectures.

Steady-state pipeline frames re-execute the *same* programs every task:
:func:`compile_segment_cached` / :func:`compile_block_paths_cached`
memoise compilation by ``(model, segment, region)`` so the region
algebra runs once per configuration instead of once per frame or
worker setup.  Specs and regions are immutable/hashable, so the cache
key is the structural identity of the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import SpatialLayer
from repro.nn import parallel
from repro.nn.executor import Engine
from repro.partition.fused import chain_backprop
from repro.partition.regions import PaddedRegion, Region, receptive_region

__all__ = [
    "LayerStep",
    "PathProgram",
    "UnitProgram",
    "SegmentProgram",
    "compile_segment",
    "compile_segment_cached",
    "compile_block_paths",
    "compile_block_paths_cached",
    "compile_channel_slice",
    "compile_channel_slice_cached",
    "program_cache_info",
    "clear_program_cache",
    "extract_tile",
    "run_segment",
]

_Pad4 = Tuple[int, int, int, int]


def _pads_of(padded: PaddedRegion) -> _Pad4:
    return (
        padded.rows.pad_lo,
        padded.rows.pad_hi,
        padded.cols.pad_lo,
        padded.cols.pad_hi,
    )


@dataclass(frozen=True)
class LayerStep:
    """Execute one layer on the current tile with fixed virtual pads.

    ``channels`` restricts the step to the output-channel slice
    ``[lo, hi)`` (channel-parallel / IOP stages); ``None`` produces
    every output channel.
    """

    layer: SpatialLayer
    pads: _Pad4
    out_region: Region
    channels: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class PathProgram:
    """One block path: crop offsets into the block's union input tile
    (``(row_off, row_len, col_off, col_len)``), then layer steps.
    An empty ``steps`` tuple is the identity shortcut."""

    crop: Tuple[int, int, int, int]
    steps: Tuple[LayerStep, ...]


@dataclass(frozen=True)
class UnitProgram:
    """Program for one plan unit.

    Chain units have a single step in ``steps`` and no paths; block
    units carry one :class:`PathProgram` per path plus merge info.
    """

    unit_name: str
    input_region: Region
    out_region: Region
    steps: Tuple[LayerStep, ...] = ()
    paths: Tuple[PathProgram, ...] = ()
    merge: Optional[str] = None
    post_activation: str = "linear"


@dataclass(frozen=True)
class SegmentProgram:
    """Compiled tile program for units ``[start, end)`` of a model."""

    model_name: str
    start: int
    end: int
    input_region: Region
    out_region: Region
    units: Tuple[UnitProgram, ...]


def _crop_box(inner: Region, outer: Region) -> Tuple[int, int, int, int]:
    if not outer.contains(inner):
        raise AssertionError(f"path region {inner} escapes union {outer}")
    return (
        inner.rows.start - outer.rows.start,
        inner.height,
        inner.cols.start - outer.cols.start,
        inner.width,
    )


def compile_segment(
    model: Model, start: int, end: int, out_region: Region
) -> SegmentProgram:
    """Compile the tile program producing ``out_region`` of unit
    ``end - 1``'s output from a tile of unit ``start``'s input."""
    if not 0 <= start < end <= model.n_units:
        raise ValueError(f"bad segment [{start}, {end}) for {model.n_units} units")
    if out_region.empty:
        raise ValueError("cannot compile a program for an empty output region")
    unit_programs: "List[UnitProgram]" = []
    region = out_region
    for idx in range(end - 1, start - 1, -1):
        unit = model.units[idx]
        _, h, w = model.in_shape(idx)
        if isinstance(unit, LayerUnit):
            padded = receptive_region(
                region,
                unit.layer.kernel_size,
                unit.layer.stride,
                unit.layer.padding,
                (h, w),
            )
            unit_programs.append(
                UnitProgram(
                    unit.name,
                    padded.region,
                    region,
                    steps=(LayerStep(unit.layer, _pads_of(padded), region),),
                )
            )
            region = padded.region
        else:
            assert isinstance(unit, BlockUnit)
            path_inputs: "List[Optional[PaddedRegion]]" = []
            path_tiles = []
            union: Optional[Region] = None
            for path in unit.paths:
                if path:
                    tiles = chain_backprop(path, (h, w), region)
                    need = tiles.input.region
                    path_inputs.append(tiles.input)
                    path_tiles.append(tiles)
                else:
                    need = region
                    path_inputs.append(None)
                    path_tiles.append(None)
                union = need if union is None else union.union_hull(need)
            assert union is not None
            path_programs = []
            for path_in, tiles in zip(path_inputs, path_tiles):
                if tiles is None:  # identity shortcut
                    path_programs.append(
                        PathProgram(crop=_crop_box(region, union), steps=())
                    )
                    continue
                steps = tuple(
                    LayerStep(t.layer, _pads_of(t.input), t.output)
                    for t in tiles.tiles
                )
                path_programs.append(
                    PathProgram(
                        crop=_crop_box(path_in.region, union), steps=steps
                    )
                )
            unit_programs.append(
                UnitProgram(
                    unit.name,
                    union,
                    region,
                    paths=tuple(path_programs),
                    merge=unit.merge,
                    post_activation=unit.post_activation,
                )
            )
            region = union
    unit_programs.reverse()
    return SegmentProgram(
        model.name, start, end, region, out_region, tuple(unit_programs)
    )


def compile_block_paths(
    model: Model, unit_index: int, path_indices: "Tuple[int, ...]"
) -> SegmentProgram:
    """Compile a *branch-parallel* program: execute only the selected
    paths of a concat block over its full output map.

    The produced tile spans the full spatial map but only the selected
    paths' channels, in ascending path order — the coordinator stitches
    them into the global concat layout.
    """
    unit = model.units[unit_index]
    if not isinstance(unit, BlockUnit) or unit.merge != "concat":
        raise ValueError(f"unit {unit.name} is not a concat block")
    if not path_indices:
        raise ValueError("need at least one path")
    indices = tuple(sorted(set(path_indices)))
    if indices[-1] >= len(unit.paths) or indices[0] < 0:
        raise ValueError(f"path indices {indices} out of range")
    _, h, w = model.in_shape(unit_index)
    _, oh, ow = model.out_shape(unit_index)
    out_region = Region.full(oh, ow)
    union: Optional[Region] = None
    tiles_per_path = []
    for idx in indices:
        path = unit.paths[idx]
        if path:
            tiles = chain_backprop(path, (h, w), out_region)
            need = tiles.input.region
        else:
            tiles = None
            need = out_region
        tiles_per_path.append(tiles)
        union = need if union is None else union.union_hull(need)
    assert union is not None
    path_programs = []
    for tiles in tiles_per_path:
        if tiles is None:
            path_programs.append(PathProgram(_crop_box(out_region, union), ()))
            continue
        steps = tuple(
            LayerStep(t.layer, _pads_of(t.input), t.output) for t in tiles.tiles
        )
        path_programs.append(
            PathProgram(_crop_box(tiles.input.region, union), steps)
        )
    unit_program = UnitProgram(
        unit.name,
        union,
        out_region,
        paths=tuple(path_programs),
        merge="concat",
        post_activation=unit.post_activation,
    )
    return SegmentProgram(
        model.name, unit_index, unit_index + 1, union, out_region, (unit_program,)
    )


def compile_channel_slice(
    model: Model, unit_index: int, lo: int, hi: int
) -> SegmentProgram:
    """Compile a *channel-parallel* (IOP) program: produce output
    channels ``[lo, hi)`` of one layer unit over its full spatial map.

    The program consumes the unit's full input map (the interleave
    exchange broadcasts every input channel) and emits a
    ``(hi - lo, H, W)`` tile — the coordinator's channel-block stitch
    de-interleaves the slices back into the global channel layout.
    """
    unit = model.units[unit_index]
    if not isinstance(unit, LayerUnit):
        raise ValueError(
            f"channel-parallel programs need a layer unit, got {unit.name!r}"
        )
    c_out, oh, ow = model.out_shape(unit_index)
    if not 0 <= lo < hi <= c_out:
        raise ValueError(
            f"bad channel slice [{lo}, {hi}) for {c_out} output channels"
        )
    _, h, w = model.in_shape(unit_index)
    out_region = Region.full(oh, ow)
    padded = receptive_region(
        out_region,
        unit.layer.kernel_size,
        unit.layer.stride,
        unit.layer.padding,
        (h, w),
    )
    step = LayerStep(unit.layer, _pads_of(padded), out_region, channels=(lo, hi))
    unit_program = UnitProgram(unit.name, padded.region, out_region, steps=(step,))
    return SegmentProgram(
        model.name,
        unit_index,
        unit_index + 1,
        padded.region,
        out_region,
        (unit_program,),
    )


@lru_cache(maxsize=512)
def _compile_segment_cached(
    model: Model, start: int, end: int, out_region: Region
) -> SegmentProgram:
    return compile_segment(model, start, end, out_region)


def compile_segment_cached(
    model: Model, start: int, end: int, out_region: Region
) -> SegmentProgram:
    """Memoised :func:`compile_segment`.

    Keyed by ``(model, start, end, out_region)`` (structural equality —
    model specs are immutable).  Steady-state pipeline execution hits
    this cache on every frame, worker reconfiguration and local plan
    run; only genuinely new (model, segment, region) combinations pay
    for region-algebra compilation.
    """
    return _compile_segment_cached(model, start, end, out_region)


@lru_cache(maxsize=256)
def _compile_block_paths_cached(
    model: Model, unit_index: int, path_indices: "Tuple[int, ...]"
) -> SegmentProgram:
    return compile_block_paths(model, unit_index, path_indices)


def compile_block_paths_cached(
    model: Model, unit_index: int, path_indices: "Tuple[int, ...]"
) -> SegmentProgram:
    """Memoised :func:`compile_block_paths` (branch-parallel programs)."""
    return _compile_block_paths_cached(model, unit_index, tuple(path_indices))


@lru_cache(maxsize=512)
def _compile_channel_slice_cached(
    model: Model, unit_index: int, lo: int, hi: int
) -> SegmentProgram:
    return compile_channel_slice(model, unit_index, lo, hi)


def compile_channel_slice_cached(
    model: Model, unit_index: int, lo: int, hi: int
) -> SegmentProgram:
    """Memoised :func:`compile_channel_slice` (channel-parallel programs)."""
    return _compile_channel_slice_cached(model, unit_index, lo, hi)


def program_cache_info() -> "Dict[str, object]":
    """Hit/miss statistics for the program caches."""
    return {
        "segment": _compile_segment_cached.cache_info(),
        "block_paths": _compile_block_paths_cached.cache_info(),
        "channel_slice": _compile_channel_slice_cached.cache_info(),
    }


def clear_program_cache() -> None:
    """Drop all memoised programs (frees the model references too)."""
    _compile_segment_cached.cache_clear()
    _compile_block_paths_cached.cache_clear()
    _compile_channel_slice_cached.cache_clear()


def extract_tile(feature_map: np.ndarray, region: Region) -> np.ndarray:
    """Slice a region out of a ``(C, H, W)`` feature map (copy).

    Batched ``(C, B, H, W)`` maps slice the same trailing spatial axes,
    so a stage's tile carries every in-flight frame's strip at once.
    Full-map regions of an already-contiguous float32 map are returned
    as-is (no copy): the common case when a one-device stage or a local
    executor feeds a whole feature map through ``run_segment``.
    """
    view = feature_map[
        ..., region.rows.start : region.rows.end, region.cols.start : region.cols.end
    ]
    from repro.nn import ops  # local import to avoid cycle at module load

    return ops.ensure_f32c(view)


def _run_steps(engine: Engine, steps: Tuple[LayerStep, ...], tile: np.ndarray) -> np.ndarray:
    if not steps:
        return tile
    # run_chain keeps intermediate tiles in per-thread arenas and always
    # returns a fresh final array, so the result is safe to stitch or
    # merge from any thread.
    tile = engine.run_chain(tuple((s.layer, s.pads) for s in steps), tile)
    last = steps[-1]
    if tile.shape[-2:] != (last.out_region.height, last.out_region.width):
        raise AssertionError(
            f"{last.layer.name}: produced {tile.shape[-2:]}, expected "
            f"{(last.out_region.height, last.out_region.width)}"
        )
    return tile


def run_segment(engine: Engine, program: SegmentProgram, tile: np.ndarray) -> np.ndarray:
    """Execute a compiled program on the extracted input tile.

    ``tile`` must be ``extract_tile(input_map, program.input_region)``
    — a single ``(C, H, W)`` tile, or a ``(C, B, H, W)`` stack of ``B``
    frames' tiles, which runs the same program once with batched
    kernels underneath (per-frame slices of the result match the
    per-tile runs).  Returns the ``out_region`` tile of the segment's
    output map.

    A stack of ``B > 1`` frames uses every thread of the shared pool:
    it is cut into ``k = min(threads, B)`` contiguous frame groups that
    run the program concurrently and are concatenated back on the
    frame axis (a fresh array).  A group's convs take one tall sgemm
    only where it is bit-identical to one sgemm per frame
    (``ops.conv2d_packed``), so every frame's bits are its
    single-frame bits whatever its group, at any pool width.  A single
    thread, a caller that already is a pool worker, or a single frame
    runs the whole tile on the calling thread.
    """
    if tile.ndim not in (3, 4):
        raise ValueError(
            f"tile must be (C, H, W) or (C, B, H, W), got shape {tile.shape}"
        )
    expected = (program.input_region.height, program.input_region.width)
    if tile.shape[-2:] != expected:
        raise ValueError(f"tile spatial {tile.shape[-2:]} != program input {expected}")
    b = tile.shape[1] if tile.ndim == 4 else 1
    if b > 1 and not parallel.in_pool_worker():
        k = min(parallel.configured_threads(), b)
        if k > 1:
            cuts = [b * i // k for i in range(k + 1)]
            groups = [
                np.ascontiguousarray(tile[:, lo:hi])
                for lo, hi in zip(cuts, cuts[1:])
            ]
            outs = parallel.run_parallel(
                [lambda g=g: _run_program(engine, program, g) for g in groups]
            )
            return np.concatenate(outs, axis=1)
    return _run_program(engine, program, tile)


def _run_program(
    engine: Engine, program: SegmentProgram, tile: np.ndarray
) -> np.ndarray:
    """:func:`run_segment`'s body on one thread, for a checked tile."""
    from repro.nn import ops  # local import to avoid cycle at module load

    current = tile
    pending: "List[Tuple[SpatialLayer, _Pad4]]" = []
    pending_region: Optional[Region] = None

    def flush(x: np.ndarray) -> np.ndarray:
        # Consecutive chain units run as one arena-backed chain (fresh
        # final output); merging them amortises allocation across the
        # whole segment, not just within a unit.
        nonlocal pending, pending_region
        if not pending:
            return x
        x = engine.run_chain(tuple(pending), x)
        if x.shape[-2:] != (pending_region.height, pending_region.width):
            raise AssertionError(
                f"chain produced {x.shape[-2:]}, expected "
                f"{(pending_region.height, pending_region.width)}"
            )
        pending, pending_region = [], None
        return x

    for unit_prog in program.units:
        if unit_prog.merge is None:
            if any(s.channels is not None for s in unit_prog.steps):
                # Channel-sliced steps bypass the chain batcher: the
                # engine must see the slice bounds to pick the packed
                # weight rows, and a slice's output channel count no
                # longer matches the model layout downstream layers
                # expect — IOP programs are single-unit by construction.
                current = flush(current)
                for s in unit_prog.steps:
                    current = engine.run_layer(
                        s.layer, current, s.pads, channels=s.channels
                    )
                if current.shape[-2:] != (
                    unit_prog.out_region.height,
                    unit_prog.out_region.width,
                ):
                    raise AssertionError(
                        f"{unit_prog.unit_name}: produced "
                        f"{current.shape[-2:]}, expected "
                        f"{(unit_prog.out_region.height, unit_prog.out_region.width)}"
                    )
                continue
            pending.extend((s.layer, s.pads) for s in unit_prog.steps)
            pending_region = unit_prog.out_region
            continue
        current = flush(current)

        def run_path(path: PathProgram, block_in: np.ndarray = current) -> np.ndarray:
            r_off, r_len, c_off, c_len = path.crop
            sub = block_in[..., r_off : r_off + r_len, c_off : c_off + c_len]
            return _run_steps(engine, path.steps, np.ascontiguousarray(sub))

        # Block paths are independent given the union input tile: fan
        # them out on the shared pool (serial fallback inside).
        outputs = parallel.run_parallel(
            [lambda path=path: run_path(path) for path in unit_prog.paths]
        )
        if unit_prog.merge == "add":
            # Same association order as the serial reference; the first
            # sum allocates, the rest accumulate in place (every path
            # output is a fresh array — identity paths return a copy).
            if len(outputs) == 1:
                merged = outputs[0]
            else:
                merged = outputs[0] + outputs[1]
                for out in outputs[2:]:
                    merged += out
        else:
            merged = np.concatenate(outputs, axis=0)
        merged = ops.ensure_f32c(merged)
        if merged is current:  # lone identity path may alias the block input
            current = ops.apply_activation(merged, unit_prog.post_activation)
        else:
            current = ops.apply_activation_(merged, unit_prog.post_activation)
    return flush(current)
