"""Per-device memory accounting.

The paper motivates cooperative inference with the "memory footprints
that are usually not available in a single IoT device" (its Pis have
2 GB, and DeepThings — the EFL baseline — exists primarily to shrink
per-device memory).  This module computes each device's peak working
set under a plan:

* **weights** — parameters of every layer in the device's segment
  (each stage device holds a full copy of its model segment), as the
  engine holds them: a batch-norm conv folded, and no dense head
  (:func:`~repro.nn.weights.init_weights` draws it at its first read,
  and no serving path reads it, so no process holds it);
* **activations** — the largest (input tile, output tile) pair live at
  once while executing the segment layer by layer.

``check_memory`` validates a plan against per-device budgets, which
lets deployments reject plans that a 2 GB Pi could not load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.plan import PipelinePlan
from repro.cost.comm import BYTES_PER_VALUE
from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.partition.fused import chain_backprop, unit_input_region
from repro.partition.regions import Region

__all__ = ["DeviceMemory", "MemoryError_", "plan_memory", "check_memory",
           "segment_weight_bytes", "segment_activation_bytes"]


class MemoryError_(RuntimeError):
    """A plan exceeds a device's memory budget (trailing underscore to
    avoid shadowing the builtin)."""


@dataclass(frozen=True)
class DeviceMemory:
    """Peak working set of one device under a plan."""

    device_name: str
    weight_bytes: int
    activation_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.activation_bytes


def segment_weight_bytes(model: Model, start: int, end: int) -> int:
    """Parameter bytes of the conv layers of units ``[start, end)``.
    The dense head is no stage device's: it is drawn at its first read,
    and serving never reads it."""
    total = 0
    for info in model.iter_layers():
        if start <= info.unit_index < end and info.layer.kind == "conv":
            total += info.layer.weight_count * BYTES_PER_VALUE
    return total


def segment_activation_bytes(
    model: Model,
    start: int,
    end: int,
    out_region: Region,
) -> int:
    """Peak live activation bytes while executing the segment on a tile.

    Layer-by-layer execution holds one input tile and one output tile
    at a time; block units hold the union input tile plus every path
    output until the merge.  Returns the maximum over execution steps.
    """
    if out_region.empty:
        return 0
    peak = 0
    region = out_region
    for idx in range(end - 1, start - 1, -1):
        unit = model.units[idx]
        c_in, h, w = model.in_shape(idx)
        c_out = model.out_shape(idx)[0]
        in_region = unit_input_region(unit, (h, w), region)
        if isinstance(unit, LayerUnit):
            live = (
                c_in * in_region.area + c_out * region.area
            ) * BYTES_PER_VALUE
        else:
            assert isinstance(unit, BlockUnit)
            # Union input stays live; path outputs accumulate for merge.
            outputs = 0
            channels = c_in
            for path in unit.paths:
                path_out = path[-1].out_channels if path else channels
                outputs += path_out * region.area
                # Peak inside a path: its own input + output tiles.
                if path:
                    tiles = chain_backprop(path, (h, w), region)
                    for tile in tiles.tiles:
                        step_live = (
                            tile.layer.in_channels * tile.input.region.area
                            + tile.layer.out_channels * tile.output.area
                        )
                        peak = max(
                            peak,
                            (c_in * in_region.area + step_live) * BYTES_PER_VALUE,
                        )
            live = (c_in * in_region.area + outputs) * BYTES_PER_VALUE
        peak = max(peak, live)
        region = in_region
    return peak


def plan_memory(model: Model, plan: PipelinePlan) -> "List[DeviceMemory]":
    """Peak memory per device (a device appearing in several phases of
    an exclusive plan reports its maximum across them)."""
    weights: "Dict[str, int]" = {}
    activations: "Dict[str, int]" = {}
    for stage in plan.stages:
        w_bytes = segment_weight_bytes(model, stage.start, stage.end)
        for device, region in stage.assignments:
            a_bytes = segment_activation_bytes(model, stage.start, stage.end, region)
            weights[device.name] = max(weights.get(device.name, 0), w_bytes)
            activations[device.name] = max(
                activations.get(device.name, 0), a_bytes
            )
    return [
        DeviceMemory(name, weights[name], activations[name])
        for name in sorted(weights)
    ]


def check_memory(
    model: Model,
    plan: PipelinePlan,
    budget_bytes: "Dict[str, int] | int",
) -> "List[DeviceMemory]":
    """Validate a plan against memory budgets.

    ``budget_bytes`` is either one budget for every device or a
    per-device-name dict.  Raises :class:`MemoryError_` naming the first
    offender; returns the per-device report otherwise.
    """
    report = plan_memory(model, plan)
    for entry in report:
        if isinstance(budget_bytes, dict):
            budget = budget_bytes.get(entry.device_name)
            if budget is None:
                continue
        else:
            budget = budget_bytes
        if entry.total_bytes > budget:
            raise MemoryError_(
                f"device {entry.device_name} needs {entry.total_bytes} bytes "
                f"({entry.weight_bytes} weights + {entry.activation_bytes} "
                f"activations), budget is {budget}"
            )
    return report
