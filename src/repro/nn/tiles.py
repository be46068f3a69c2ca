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

:func:`run_segment` then lowers each program once more, per input tile
shape and concurrent run: :func:`_build_plan` fixes every step's
bordered input map, tap view, patch view, GEMM output, epilogue
blocks, packed weights and tall-vs-per-frame sgemm choice at the first
frame, so a steady-state conv is an interior copy, a tap gather, the
sgemm and the epilogue on buffers that already exist.  The engine pools
the plans for every thread.  :meth:`Engine.forward_features` runs
:func:`full_map_program` through the same plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import ConvSpec, SpatialLayer
from repro.nn import ops, parallel
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
    "full_map_program",
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


def full_map_program(model: Model) -> SegmentProgram:
    """The program :meth:`Engine.forward_features` runs (each engine
    builds it once): every unit over the whole map at its spec padding,
    block paths uncropped — the per-call dispatch's geometry exactly.
    (A :func:`compile_segment` of
    the full output region may trim rows a strided layer never reads,
    which would change a GEMM's width and so, possibly, its bits.)"""

    def steps(layers, hw):
        out = []
        for layer in layers:
            hw = layer.out_spatial(hw)
            out.append(LayerStep(layer, Engine.spec_pads(layer), Region.full(*hw)))
        return tuple(out)

    units = []
    for idx, unit in enumerate(model.units):
        _, h, w = model.in_shape(idx)
        _, oh, ow = model.out_shape(idx)
        if isinstance(unit, LayerUnit):
            program = UnitProgram(
                unit.name, Region.full(h, w), Region.full(oh, ow),
                steps=steps((unit.layer,), (h, w)),
            )
        else:
            program = UnitProgram(
                unit.name, Region.full(h, w), Region.full(oh, ow),
                paths=tuple(PathProgram((0, h, 0, w), steps(p, (h, w))) for p in unit.paths),
                merge=unit.merge,
                post_activation=unit.post_activation,
            )
        units.append(program)
    _, h, w = model.in_shape(0)
    _, oh, ow = model.out_shape(model.n_units - 1)
    return SegmentProgram(
        model.name, 0, model.n_units, Region.full(h, w), Region.full(oh, ow), tuple(units)
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
    return ops.ensure_f32c(view)


def run_segment(engine: Engine, program: SegmentProgram, tile: np.ndarray) -> np.ndarray:
    """Execute a compiled program on the extracted input tile.

    ``tile`` must be ``extract_tile(input_map, program.input_region)``
    — a single ``(C, H, W)`` tile, or a ``(C, B, H, W)`` stack of ``B``
    frames' tiles, which runs the same program once with batched
    kernels underneath (per-frame slices of the result match the
    per-tile runs).  Returns the ``out_region`` tile of the segment's
    output map, always a fresh array.

    The program runs through a compiled plan for the tile's shape, out
    of the engine's pool (:func:`_build_plan`, at first use), so a
    steady-state conv is
    an interior copy, one tap gather, the sgemm and its epilogue on
    buffers that already exist.

    A stack of ``B > 1`` frames uses every thread of the shared pool:
    it is cut into ``k = min(threads, B)`` contiguous frame groups that
    run the program concurrently (each on a plan of its own) and
    are concatenated back on the frame axis.  A group's convs take one
    tall sgemm only where it is bit-identical to one sgemm per frame
    (``ops._tall_is_exact``), so every frame's bits are its single-frame
    bits whatever its group, at any pool width.  A single thread, a
    caller that already is a pool worker, or a single frame runs the
    whole tile on the calling thread.
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
            outs = parallel.run_parallel(
                [
                    lambda lo=lo, hi=hi: _run_program(engine, program, tile[:, lo:hi])
                    for lo, hi in zip(cuts, cuts[1:])
                ]
            )
            return np.concatenate(outs, axis=1)
    return _run_program(engine, program, tile)


def _run_program(
    engine: Engine, program: SegmentProgram, tile: np.ndarray
) -> np.ndarray:
    """:func:`run_segment`'s body on one thread, for a checked tile: a
    plan for ``(program, tile.shape)`` checked out of the engine's pool,
    built when none is idle, and put back after the run.

    The pool is shared by every thread, so a program keeps as many
    plans as ran it at once, not one per thread that ever ran it; a
    one-frame stack runs the single-frame plan (the same GEMMs, so the
    same bits).  Plans are keyed by the program's identity, and each
    holds its program, so a live key's ``id`` cannot be reused and no
    frame hashes the nested program dataclass.  The pool keeps at most
    ``executor.PLAN_POOL_BYTES`` of idle plans; the least recently used
    go first."""
    one = tile.ndim == 4 and tile.shape[1] == 1
    x = tile[:, 0] if one else tile
    plans, key = engine._plans, (id(program), x.shape)
    plan = plans.take(key) or _build_plan(engine, program, x.shape)
    try:
        out = plan(x)
        return out[:, None] if one else out
    finally:
        plans.give(key, plan)


# ----------------------------------------------------------------------
# Compiled plans: one program lowered onto buffers for one tile shape.
# ----------------------------------------------------------------------

_Shape = Tuple[int, ...]


class _Call:
    """Any other step, per call through :meth:`Engine.run_layer` (the
    reference engine, average pools, channel-sliced pools, convs whose
    batch norm is not folded); its output is fresh, so the next step
    copies it."""

    __slots__ = ("engine", "step")

    def __init__(self, engine: Engine, step: LayerStep) -> None:
        self.engine, self.step = engine, step

    def __call__(self, x: np.ndarray) -> np.ndarray:
        s = self.step
        return self.engine.run_layer(s.layer, x, s.pads, channels=s.channels)


class _Patches:
    """The convs one thread runs in turn (a plan's chain steps, or one
    block path's), gathering into the running thread's patch arena —
    the engine's per-thread scratch pad, grown to the largest gather it
    has served, as the per-call path's is.  A patch lives only from its
    gather to its GEMM, so every plan a thread runs shares that one
    arena; the convs are re-pointed only when a run finds another
    arena than the last one (another thread, or a grown pad)."""

    __slots__ = ("scratch", "convs", "size", "arena")

    def __init__(self, engine: Engine, convs: "List[ops.ConvKernel]") -> None:
        self.scratch, self.convs, self.arena = engine._scratch, convs, None
        self.size = max((conv.patch_size for conv in convs), default=0)

    def bind(self) -> None:
        if not self.convs:
            return
        arena = self.scratch.pad.take((self.size,))
        if arena.base is not self.arena:
            for conv in self.convs:
                conv.bind_patch(arena)
            self.arena = arena.base


class _Path:
    """One block path: its crop of the block input, then its steps."""

    __slots__ = ("crop", "steps", "patches")

    def __init__(self, crop: Tuple[int, int, int, int]) -> None:
        r_off, r_len, c_off, c_len = crop
        self.crop = (Ellipsis, slice(r_off, r_off + r_len), slice(c_off, c_off + c_len))
        self.steps: list = []
        self.patches: Optional[_Patches] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.patches.bind()
        x = x[self.crop]
        for step in self.steps:
            x = step(x)
        return x


class _Block:
    """A block unit: its paths fanned out on the shared pool, merged into
    a persistent buffer in the per-call association order (``((p0 + p1) +
    p2) ...`` or a channel concat), then the post-activation in place."""

    __slots__ = ("paths", "merge", "out", "activation")

    def __init__(self, paths: list, merge: str, out: np.ndarray, activation: str) -> None:
        self.paths, self.merge, self.out, self.activation = paths, merge, out, activation

    def __call__(self, x: np.ndarray) -> np.ndarray:
        outs = parallel.run_parallel([lambda p=p: p(x) for p in self.paths])
        out = self.out
        if self.merge == "concat":
            np.concatenate(outs, axis=0, out=out)
        elif len(outs) == 1:
            np.copyto(out, outs[0])
        else:
            np.add(outs[0], outs[1], out=out)
            for other in outs[2:]:
                out += other
        ops.apply_activation_(out, self.activation)
        return out


class _Plan:
    """A program lowered for one tile shape: run its units in order and
    return a fresh copy when the result is a plan buffer (a per-call
    step's result is fresh already, made C-contiguous if it is a view:
    a batched conv's per-frame GEMMs fill a frame-major buffer)."""

    __slots__ = ("program", "units", "patches", "copy_out", "nbytes")

    def __init__(
        self,
        program: SegmentProgram,
        units: list,
        patches: _Patches,
        copy_out: bool,
        nbytes: int,
    ) -> None:
        self.program, self.units, self.copy_out = program, units, copy_out
        self.patches, self.nbytes = patches, nbytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.patches.bind()
        for unit in self.units:
            x = unit(x)
        return x.copy() if self.copy_out else ops.ensure_f32c(x)


def _lower_step(
    engine: Engine, step: LayerStep, shape: _Shape, src: Optional[np.ndarray]
):
    """One lowered step reading a ``shape`` input (``src``: the plan
    buffer holding it, ``None`` when it arrives fresh each frame):
    ``(runner, out shape, out buffer or None)``.  Convs and max pools
    become :mod:`repro.nn.ops` kernels on persistent buffers, anything
    else a per-call :class:`_Call`."""
    layer, pads, channels = step.layer, step.pads, step.channels
    top, bottom, left, right = pads
    kh, kw = layer.kernel_size
    h, w = shape[-2] + top + bottom, shape[-1] + left + right
    out_hw = ((h - kh) // layer.stride[0] + 1, (w - kw) // layer.stride[1] + 1)
    if out_hw != (step.out_region.height, step.out_region.width):
        raise AssertionError(
            f"{layer.name}: produces {out_hw}, expected "
            f"{(step.out_region.height, step.out_region.width)}"
        )
    if isinstance(layer, ConvSpec):
        lo, hi = channels if channels is not None else (0, layer.out_channels)
        out_shape = (hi - lo, *shape[1:-2], *out_hw)
        packed = None
        if engine.fast and (channels is None or layer.groups == 1):
            packed = (
                engine._packed_conv(layer) if channels is None
                else engine._packed_conv_slice(layer, lo, hi)
            )
        if packed is None or (layer.batch_norm and not packed.folded):
            return _Call(engine, step), out_shape, None
        kernel = ops.ConvKernel(
            shape, packed.packed, packed.bias, layer.kernel_size, layer.stride,
            pads, layer.groups, layer.activation, src=src,
        )
        return kernel, out_shape, kernel.out
    c = shape[0] if channels is None else channels[1] - channels[0]
    out_shape = (c, *shape[1:-2], *out_hw)
    if not engine.fast or layer.kind_ != "max" or channels is not None:
        return _Call(engine, step), out_shape, None
    kernel = ops.MaxPoolKernel(shape, layer.kernel_size, layer.stride, pads, src=src)
    return kernel, out_shape, kernel.out


def _build_plan(engine: Engine, program: SegmentProgram, shape: _Shape) -> _Plan:
    """Lower ``program`` for input tiles of ``shape`` — the one place a
    plan is built.

    Chain steps read the previous step's buffer; each block path reads
    its crop of the block input.  The chain's convs and each path's
    convs gather into the patch arena of whichever thread runs them
    (:class:`_Patches`), so concurrently running paths never share a
    patch buffer, and no plan keeps one of its own.
    """
    chain: "List[ops.ConvKernel]" = []
    held: "List[np.ndarray]" = []  # every buffer the plan keeps

    def lower(steps, shape, src, convs):
        runners = []
        for step in steps:
            runner, shape, src = _lower_step(engine, step, shape, src)
            if isinstance(runner, ops.ConvKernel):
                convs.append(runner)
            if not isinstance(runner, _Call):
                held.append(runner.out)
                if runner.interior is not None:
                    held.append(runner.interior)
            runners.append(runner)
        return runners, shape, src

    units: list = []
    src: Optional[np.ndarray] = None
    for unit in program.units:
        if unit.merge is None:
            runners, shape, src = lower(unit.steps, shape, src, chain)
            units.extend(runners)
            continue
        paths, outs = [], []
        for path_prog in unit.paths:
            path, convs = _Path(path_prog.crop), []
            _, rows, _, cols = path_prog.crop
            path.steps, out_shape, _ = lower(
                path_prog.steps, (*shape[:-2], rows, cols),
                None if src is None else src[path.crop], convs,
            )
            path.patches = _Patches(engine, convs)
            paths.append(path)
            outs.append(out_shape)
        if unit.merge == "concat":
            shape = (sum(o[0] for o in outs), *outs[0][1:])
        else:
            shape = outs[0]
        src = np.empty(shape, np.float32)
        held.append(src)
        units.append(_Block(paths, unit.merge, src, unit.post_activation))
    if shape[-2:] != (program.out_region.height, program.out_region.width):
        raise AssertionError(
            f"{program.model_name}: produces {shape[-2:]}, expected "
            f"{(program.out_region.height, program.out_region.width)}"
        )
    nbytes = sum((a if a.base is None else a.base).nbytes for a in held)
    return _Plan(program, units, _Patches(engine, chain), src is not None, nbytes)
