"""The degraded-mode plan: the whole model on one device."""

from __future__ import annotations

from repro.cluster.device import Device
from repro.core.plan import PipelinePlan, StagePlan
from repro.models.graph import Model
from repro.partition.regions import Region

__all__ = ["local_fallback_plan"]


def local_fallback_plan(model: Model, device: Device) -> PipelinePlan:
    """The degraded-mode plan: the whole model on one device.

    The fault-tolerance layer's last resort — when re-planning over the
    survivors is infeasible, serving continues on the single strongest
    device as an exclusive one-stage plan (serve it on any transport).
    """
    _, h, w = model.final_shape
    return PipelinePlan(
        model.name,
        (StagePlan(0, model.n_units, ((device, Region.full(h, w)),)),),
        mode="exclusive",
    )
