"""Scheme interface shared by all four parallelization strategies.

A scheme turns (model, cluster, network) into a :class:`PipelinePlan`.
The paper's baselines — Layer-Wise (MoDNN), Early-Fused-Layer
(DeepThings) and Optimal-Fused-Layer (AOFL) — are *one-stage* schemes:
the whole cluster serves one task at a time, so their plans are
``exclusive`` and their period equals their latency.  PICO emits a
``pipelined`` plan.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Tuple

from repro.cluster.device import Cluster, Device
from repro.core.plan import PipelinePlan
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.models.graph import Model
from repro.partition.regions import Region
from repro.partition.strips import weighted_strips

__all__ = ["Scheme", "PlanningError", "weighted_assignments"]


class PlanningError(RuntimeError):
    """Raised when a scheme cannot produce a feasible plan."""


def weighted_assignments(
    model: Model,
    end_unit: int,
    devices: "Sequence[Device]",
    allow_idle: bool = False,
) -> "Tuple[Tuple[Device, Region], ...]":
    """Capacity-weighted strip assignments over the output map of unit
    ``end_unit - 1`` (the adaptive partition of MeDNN/AOFL baselines):
    :func:`~repro.partition.strips.weighted_strips` behind a scheme-level
    guard.

    With more devices than output rows the surplus devices get nothing:
    by default that is a :class:`PlanningError` (a silent zip would
    truncate the cluster); schemes that legitimately idle the surplus
    (layer-wise, early-fused) pass ``allow_idle=True`` to receive
    empty-region assignments for them instead.
    """
    _, h, w = model.out_shape(end_unit - 1)
    if len(devices) > h and not allow_idle:
        raise PlanningError(
            f"cannot split {h} output rows of unit {end_unit - 1} over "
            f"{len(devices)} devices (pass allow_idle=True to idle the "
            "surplus)"
        )
    return weighted_strips(h, w, devices)


class Scheme(ABC):
    """Base class for parallelization schemes."""

    #: Short identifier used in experiment tables ("LW", "EFL", ...).
    name: str = "?"

    @abstractmethod
    def plan(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
    ) -> PipelinePlan:
        """Produce an execution plan for ``model`` on ``cluster``."""

    def compile(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
    ):
        """Plan and compile in one step: the scheme's plan lowered to
        the runtime-core :class:`~repro.runtime.program.PlanProgram`,
        ready for any Transport backend (in-process, TCP, simulated).
        """
        from repro.runtime.program import compile_plan

        return compile_plan(model, self.plan(model, cluster, network))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
