"""The plan-agnostic execution IR every runtime backend consumes.

A :class:`PlanProgram` is a :class:`~repro.core.plan.PipelinePlan`
compiled once into per-stage :class:`TaskSpec` work items: the compiled
:class:`~repro.nn.tiles.SegmentProgram`, where each device's tile lands
in the stage output (strip region or branch channel blocks), and the
stage's tensor hand-off shape.  The in-process executor, the TCP
coordinator and the virtual-clock simulator all walk this one IR —
compilation, splitting and stitching live here instead of being
re-implemented per backend, which is what makes their frame outputs
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import PipelinePlan, StagePlan
from repro.models.graph import Model
from repro.nn.tiles import (
    SegmentProgram,
    compile_block_paths_cached,
    compile_channel_slice_cached,
    compile_segment_cached,
    extract_tile,
)
from repro.partition.branches import concat_channel_blocks
from repro.partition.regions import Region
from repro.partition.strips import check_tiling, weighted_partition, weighted_strips

__all__ = [
    "TaskSpec",
    "StageProgram",
    "PlanProgram",
    "compile_plan",
    "compile_stage",
    "repartition_stage",
    "split_stage",
    "stack_frames",
    "stitch_stage",
    "unstack_frames",
]


@dataclass(frozen=True)
class TaskSpec:
    """One device's share of one stage."""

    device_name: str
    capacity: float
    program: SegmentProgram
    #: Spatial placement of the output tile for strip tasks (``None``
    #: for branch tasks, whose tiles span the full map).
    region: Optional[Region]
    #: Channel copy list ``(tile_lo, tile_hi, out_lo, out_hi)`` for
    #: branch tasks (``None`` for strip tasks).
    channel_blocks: Optional[Tuple[Tuple[int, int, int, int], ...]]
    #: Block paths this task executes (branch stages only).
    paths: Optional[Tuple[int, ...]] = None
    #: float32 bytes of one frame's input / output tile, from the
    #: compiled regions (:func:`compile_stage`) — what a timing-only
    #: transport reports as ``send`` / ``recv`` sizes without a tensor.
    in_bytes: int = 0
    out_bytes: int = 0


@dataclass(frozen=True)
class StageProgram:
    """One compiled stage: the unit segment, its output map shape and
    the per-device task set (empty assignments already dropped)."""

    index: int
    start: int
    end: int
    out_shape: Tuple[int, int, int]
    tasks: Tuple[TaskSpec, ...]

    @property
    def branch(self) -> bool:
        return any(task.paths is not None for task in self.tasks)

    @property
    def channel(self) -> bool:
        """Channel-parallel (IOP) stage: tasks carry channel blocks but
        no block paths."""
        return any(
            task.paths is None and task.channel_blocks is not None
            for task in self.tasks
        )

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class PlanProgram:
    """A fully compiled plan, ready for any Transport backend."""

    model_name: str
    mode: str  # "pipelined" | "exclusive"
    n_units: int
    stages: Tuple[StageProgram, ...]
    #: The source plan — kept for the analytic cost model (timing
    #: tables, simulated clocks) and for reporting.
    plan: PipelinePlan

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def describe(self) -> str:
        lines = [
            f"{self.model_name} program ({self.mode}, {self.n_stages} stages)"
        ]
        for stage in self.stages:
            names = ", ".join(t.device_name for t in stage.tasks)
            kind = " [branch]" if stage.branch else (
                " [channel]" if stage.channel else ""
            )
            lines.append(
                f"  stage {stage.index}: units [{stage.start}, {stage.end}) "
                f"-> {stage.out_shape}, {stage.n_tasks} task(s): {names}{kind}"
            )
        return "\n".join(lines)


def compile_stage(model: Model, stage: StagePlan, index: int) -> StageProgram:
    """Compile one plan stage into its task set (memoised compilers)."""
    out_shape = model.out_shape(stage.end - 1)
    in_channels = model.in_shape(stage.start)[0]
    tasks: "List[TaskSpec]" = []

    def add(device, program, region, blocks, paths=None) -> None:
        # Branch and channel tiles carry only their own channel blocks;
        # strip tiles carry every output channel of their region.
        if blocks is not None:
            channels = max(t_hi for (_, t_hi, _, _) in blocks)
        else:
            channels = out_shape[0]
        tasks.append(
            TaskSpec(
                device.name, device.capacity, program, region, blocks, paths,
                in_bytes=4 * in_channels * program.input_region.area,
                out_bytes=4 * channels * program.out_region.area,
            )
        )

    if stage.path_groups is not None:
        for (device, _), group in zip(stage.assignments, stage.path_groups):
            if not group:
                continue  # idle device in a branch stage
            group = tuple(group)
            program = compile_block_paths_cached(model, stage.start, group)
            blocks = tuple(concat_channel_blocks(model, stage.start, group))
            add(device, program, None, blocks, group)
    elif stage.channel_groups is not None:
        check_tiling(stage.channel_groups, out_shape[0])
        for (device, _), (lo, hi) in zip(stage.assignments, stage.channel_groups):
            if hi <= lo:
                continue  # idle device in a channel stage
            program = compile_channel_slice_cached(model, stage.start, lo, hi)
            add(device, program, None, ((0, hi - lo, lo, hi),))
    else:
        for device, region in stage.assignments:
            if region.empty:
                continue
            program = compile_segment_cached(model, stage.start, stage.end, region)
            add(device, program, region, None)
    if not tasks:
        raise ValueError(
            f"stage [{stage.start}, {stage.end}) has no non-empty work"
        )
    return StageProgram(index, stage.start, stage.end, out_shape, tuple(tasks))


def compile_plan(model: Model, plan: PipelinePlan) -> PlanProgram:
    """Compile a plan (any scheme, pipelined or exclusive) into the IR.

    Raises ``ValueError`` when the plan does not belong to ``model`` or
    does not cover it — the single validation point for every backend.
    """
    if plan.model_name != model.name:
        raise ValueError(
            f"plan is for {plan.model_name!r}, model is {model.name!r}"
        )
    if plan.stages[-1].end != model.n_units:
        raise ValueError(
            f"plan covers units [0, {plan.stages[-1].end}) but the model "
            f"has {model.n_units}"
        )
    stages = tuple(
        compile_stage(model, stage, index)
        for index, stage in enumerate(plan.stages)
    )
    return PlanProgram(model.name, plan.mode, model.n_units, stages, plan)


def repartition_stage(
    model: Optional[Model],
    stage: StageProgram,
    dead: "Sequence[str]",
    policy: str = "migrate",
) -> StageProgram:
    """Rebuild a stage's task set after device deaths.

    ``"migrate"`` (no ``model`` needed, zero recompilation) hands each
    dead device's *compiled* task — same segment program, same output
    region — to a survivor, strongest first.  Tile geometry is
    untouched, so the repaired stage's stitched output is
    **bit-identical** to the fault-free run; a survivor simply computes
    extra tiles.

    ``"rebalance"`` re-splits the stage capacity-weighted over the
    survivors through :func:`compile_stage` (strip rows and IOP channel
    slices via :func:`~repro.partition.strips.weighted_partition`,
    block paths via LPT).  Better load balance, but the new tile shapes
    change GEMM reduction order, so outputs are only float-close — it
    is the TCP backend's policy, whose workers each hold a single tile
    program.

    Raises :class:`~repro.runtime.faults.StageFailure` when no device
    survives.
    """
    dead_set = set(dead)
    survivors = tuple(t for t in stage.tasks if t.device_name not in dead_set)
    lost = tuple(t for t in stage.tasks if t.device_name in dead_set)
    if not survivors:
        from repro.runtime.faults import StageFailure

        raise StageFailure(
            f"stage {stage.index}: every device is dead ({sorted(dead_set)})"
        )
    if policy == "migrate":
        if not lost:
            return stage
        ranked = sorted(
            survivors, key=lambda t: (-t.capacity, t.device_name)
        )
        tasks = list(survivors)
        for i, task in enumerate(lost):
            host = ranked[i % len(ranked)]
            tasks.append(
                replace(
                    task, device_name=host.device_name, capacity=host.capacity
                )
            )
        return StageProgram(
            stage.index, stage.start, stage.end, stage.out_shape, tuple(tasks)
        )
    if policy != "rebalance":
        raise ValueError(f"unknown repartition policy {policy!r}")
    if model is None:
        raise ValueError("policy='rebalance' needs the model to recompile")
    # One surviving device may carry several migrated tasks; rebalance
    # collapses it back to one capacity share.
    from repro.cluster.device import Device

    capacities: "dict" = {}
    for t in survivors:
        capacities.setdefault(t.device_name, t.capacity)
    devices = tuple(Device(n, c) for n, c in capacities.items())
    if stage.branch:
        from repro.partition.branches import assign_paths_lpt, path_flops

        weights = path_flops(model, stage.start)
        groups = assign_paths_lpt(weights, [d.capacity for d in devices])
        _, h, w = stage.out_shape
        plan_stage = StagePlan(
            stage.start,
            stage.end,
            tuple((d, Region.full(h, w)) for d in devices),
            path_groups=tuple(tuple(sorted(g)) for g in groups),
        )
    elif stage.channel:
        c_out, h, w = stage.out_shape
        slices = weighted_partition(c_out, [d.capacity for d in devices])
        plan_stage = StagePlan(
            stage.start,
            stage.end,
            tuple((d, Region.full(h, w)) for d in devices),
            channel_groups=tuple((iv.start, iv.end) for iv in slices),
        )
    else:
        _, h, w = stage.out_shape
        plan_stage = StagePlan(
            stage.start, stage.end, weighted_strips(h, w, devices)
        )
    return compile_stage(model, plan_stage, stage.index)


def split_stage(
    tasks: "Sequence[TaskSpec]", feature_map: np.ndarray
) -> "List[np.ndarray]":
    """Extract each task's (halo-padded) input tile, in task order.

    ``feature_map`` may be a single ``(C, H, W)`` map or a batched
    ``(C, B, H, W)`` stack of every co-resident frame's map — tiles
    come out with the same rank.
    """
    return [extract_tile(feature_map, t.program.input_region) for t in tasks]


def stack_frames(frames: "Sequence[np.ndarray]") -> np.ndarray:
    """Stack per-frame ``(C, H, W)`` maps into one ``(C, B, H, W)``
    cross-frame batch (channel-major with batch second — the layout the
    batched kernels consume with zero transposes)."""
    if not frames:
        raise ValueError("cannot stack an empty frame list")
    if len(frames) == 1:
        return np.ascontiguousarray(frames[0][:, None], dtype=np.float32)
    return np.ascontiguousarray(
        np.stack(frames, axis=1), dtype=np.float32
    )


def unstack_frames(stacked: np.ndarray) -> "List[np.ndarray]":
    """Split a ``(C, B, H, W)`` batch back into per-frame contiguous
    ``(C, H, W)`` maps — the inverse of :func:`stack_frames`."""
    if stacked.ndim != 4:
        raise ValueError(f"expected a (C, B, H, W) batch, got {stacked.shape}")
    return [
        np.ascontiguousarray(stacked[:, b]) for b in range(stacked.shape[1])
    ]


def stitch_stage(
    stage: StageProgram,
    tasks: "Sequence[TaskSpec]",
    tiles: "Sequence[np.ndarray]",
) -> np.ndarray:
    """Reassemble the stage's full output map from per-task tiles.

    Batched ``(C, B, H, W)`` tiles stitch into a batched output of
    shape ``(C, B, *out_shape[1:])`` — the channel-block and region
    writes are rank-agnostic, so the per-frame slices land exactly
    where the single-frame stitch would put them.
    """
    if len(tasks) == 1 and tasks[0].region is not None:
        region = tasks[0].region
        if (region.height, region.width) == stage.out_shape[1:]:
            return tiles[0]  # one device produced the whole map
    if tiles and tiles[0].ndim == 4:
        shape = (stage.out_shape[0], tiles[0].shape[1], *stage.out_shape[1:])
    else:
        shape = stage.out_shape
    out = np.empty(shape, dtype=np.float32)
    for task, tile in zip(tasks, tiles):
        if task.channel_blocks is not None:
            for t_lo, t_hi, o_lo, o_hi in task.channel_blocks:
                out[o_lo:o_hi] = tile[t_lo:t_hi]
        else:
            region = task.region
            out[
                ...,
                region.rows.start : region.rows.end,
                region.cols.start : region.cols.end,
            ] = tile
    return out
