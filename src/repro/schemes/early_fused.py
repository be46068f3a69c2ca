"""Early-Fused-Layer parallelization (DeepThings, Zhao et al. TCAD'18).

Fuses the *early* convolution layers — where feature maps are large and
communication would dominate — into one parallel segment across all
devices, then runs the remaining layers on the single fastest device.
Fusing a deep prefix makes the per-device halo grow recursively, which
is why EFL shows the highest redundancy in the paper's Table I
(up to ~45 % on YOLOv2).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.device import Cluster
from repro.core.plan import PipelinePlan, StagePlan
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.models.graph import Model
from repro.partition.regions import Region
from repro.schemes.base import PlanningError, Scheme, weighted_assignments

__all__ = ["EarlyFusedScheme", "default_fuse_count"]

#: Published / calibrated fusion depths.  DeepThings fuses the first 16
#: layers of YOLOv2 (12 conv + 4 pool, through pool5); the VGG16 depth
#: is calibrated so the redundancy ratio lands in the paper's Table I
#: band (~19 %).
_KNOWN_FUSE_COUNTS = {"yolov2": 16, "vgg16": 8}

#: The shape-generalised policy fuses every unit whose output is still
#: larger than ``input_height / SHRINK_FACTOR``.
SHRINK_FACTOR = 4


def default_fuse_count(model: Model) -> int:
    """DeepThings' fusion depth.

    Models with a published/calibrated depth use it; otherwise the
    shape-generalised policy applies — fuse every unit whose output is
    still larger than ``input_height / SHRINK_FACTOR`` (the early,
    communication-heavy part of the network).  EFL by construction runs
    "the rest layers in a single device", so at least one unit is
    always left for the serial tail."""
    known = _KNOWN_FUSE_COUNTS.get(model.name)
    if known is not None and known < model.n_units:
        return known
    threshold = max(1, model.input_shape[1] // SHRINK_FACTOR)
    count = 0
    for idx in range(model.n_units):
        if model.out_shape(idx)[1] < threshold:
            break
        count = idx + 1
    return min(max(1, count), model.n_units - 1) if model.n_units > 1 else 1


class EarlyFusedScheme(Scheme):
    """One fused parallel prefix + serial remainder on the fastest device."""

    name = "EFL"

    def __init__(self, n_fused: Optional[int] = None) -> None:
        if n_fused is not None and n_fused < 1:
            raise ValueError("n_fused must be positive")
        self.n_fused = n_fused

    def plan(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
    ) -> PipelinePlan:
        n_fused = self.n_fused or default_fuse_count(model)
        if n_fused > model.n_units:
            raise PlanningError(
                f"n_fused={n_fused} exceeds the model's {model.n_units} units"
            )
        stages = [
            StagePlan(
                0,
                n_fused,
                weighted_assignments(
                    model, n_fused, cluster.devices, allow_idle=True
                ),
            )
        ]
        if n_fused < model.n_units:
            _, h, w = model.final_shape
            stages.append(
                StagePlan(
                    n_fused,
                    model.n_units,
                    ((cluster.fastest, Region.full(h, w)),),
                )
            )
        return PipelinePlan(model.name, tuple(stages), mode="exclusive")
