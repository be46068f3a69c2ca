"""Analytic per-stage timing tables for a plan — the virtual clock.

:func:`plan_timing` turns a plan into the service/communication/compute
times and per-device busy shares that both the event-driven cluster
simulator (:mod:`repro.sim`) and the frame-level
:class:`~repro.runtime.core.SimTransport` consume.  It is the single
place the Eq. 9–11 stage costs are projected onto runtime behaviour:
pipelined plans keep one entry per stage, exclusive (one-stage-scheme)
plans collapse into a single server whose service time is the full
phase sequence, and ``measured_services`` substitutes measured
wall-clock stage times for the analytic ones.

Imports of the cost model are deferred to call time: this module is
imported from :mod:`repro.sim`, which :mod:`repro.cluster` — the
package the cost model's device types live in — imports for its
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.plan import PipelinePlan, PlanCost
    from repro.cost.comm import NetworkModel
    from repro.cost.flops import CostOptions
    from repro.models.graph import Model

__all__ = ["StageTiming", "PlanTiming", "plan_timing"]


@dataclass(frozen=True)
class StageTiming:
    """One (virtual) pipeline stage's service decomposition."""

    service: float  # full stage time (comm + comp [+ head])
    comm: float  # transfer share (scatter + gather)
    comp: float  # compute share (incl. head)
    #: ``(device_name, busy_seconds)`` — compute plus own transfers,
    #: the single-core CPU accounting of the paper's Table I.
    busy_shares: Tuple[Tuple[str, float], ...]

    def batched_service(
        self, batch: int, amortized: Optional[float] = None
    ) -> float:
        """Service time for a cross-frame batch of ``batch`` frames.

        Delegates to :func:`repro.cost.tables.batched_service` on this
        stage's comm/comp split — comm scales with the batch, a
        fraction of comp is paid once.  ``batch == 1`` is exactly
        ``self.service``.
        """
        from repro.cost.tables import BATCH_AMORTIZED_FRACTION, batched_service

        if batch == 1:
            return self.service
        return batched_service(
            self.comm,
            self.comp,
            batch,
            BATCH_AMORTIZED_FRACTION if amortized is None else amortized,
        )


@dataclass(frozen=True)
class PlanTiming:
    """Timing tables for one plan under one network/cost configuration.

    ``stages`` are *virtual* servers: one per plan stage for pipelined
    plans, exactly one (the whole phase sequence) for exclusive plans.
    ``cost`` keeps the per-real-stage breakdown for consumers that need
    device-level times regardless of mode.
    """

    name: str
    mode: str
    period: float
    latency: float
    stages: Tuple[StageTiming, ...]
    cost: "PlanCost"

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def batched_period(
        self, batch: int, amortized: Optional[float] = None
    ) -> float:
        """Effective *per-frame* period with cross-frame batches of
        ``batch``: the bottleneck stage's batched service divided by the
        batch size.  ``batch == 1`` is exactly ``self.period``."""
        if batch == 1:
            return self.period
        return max(
            st.batched_service(batch, amortized) for st in self.stages
        ) / batch

    def batched_latency(
        self, batch: int, amortized: Optional[float] = None
    ) -> float:
        """Pipeline traversal time of one ``batch``-frame batch: the sum
        of batched stage services.  ``batch == 1`` is ``self.latency``."""
        if batch == 1:
            return self.latency
        return sum(st.batched_service(batch, amortized) for st in self.stages)

    def stage_transfers(
        self, network: "NetworkModel", entry: Optional[str] = None
    ) -> "Tuple[Tuple[Tuple[str, str, float], ...], ...]":
        """Per-virtual-stage ``(src, dst, nbytes)`` transfers for the
        topology-aware simulator.

        The flat cost model (Eq. 7–8) folds each device's scatter and
        gather traffic into one communication time ``t_comm``; this
        inverts that time back to a byte count under ``network`` —
        ``(t_comm - latency) × bandwidth`` — so branch stages and head
        phases need no special-casing.  Each stage's transfers
        originate at the previous stage's *anchor* (its
        fastest-capacity device, where the serial head is billed; the
        first stage's source is ``entry``, or its own anchor when
        ``entry`` is None, which makes the transfer a no-op route).
        Exclusive plans collapse into the single virtual stage, same
        as their timing table.
        """
        def invert(t_comm: float) -> float:
            if t_comm <= 0:
                return 0.0
            wire = t_comm - network.per_message_latency_s
            return max(0.0, wire) * network.bandwidth_bytes_per_s

        per_real = []
        prev_anchor = entry
        for sc in self.cost.stage_costs:
            if not sc.devices:
                per_real.append(())
                continue
            anchor = max(
                sc.devices, key=lambda dc: dc.device.capacity
            ).device.name
            src = prev_anchor if prev_anchor is not None else anchor
            per_real.append(tuple(
                (src, dc.device.name, invert(dc.t_comm))
                for dc in sc.devices
            ))
            prev_anchor = anchor
        if self.mode == "pipelined":
            return tuple(per_real)
        return (tuple(t for stage in per_real for t in stage),)


def plan_timing(
    model: "Model",
    plan: "PipelinePlan",
    network: "NetworkModel",
    options: "Optional[CostOptions]" = None,
    name: Optional[str] = None,
    measured_services: "Optional[Sequence[float]]" = None,
) -> PlanTiming:
    """Build the timing tables for ``plan`` (see module docstring)."""
    from repro.core.plan import plan_cost
    from repro.cost.flops import DEFAULT_OPTIONS

    cost = plan_cost(model, plan, network, options or DEFAULT_OPTIONS)
    if plan.mode == "pipelined":
        services = [sc.total for sc in cost.stage_costs]
        comm = [sc.t_comm for sc in cost.stage_costs]
        comp = [sc.t_comp + sc.t_head for sc in cost.stage_costs]
        busy_shares = [
            [(dc.device.name, dc.t_comp + dc.t_comm) for dc in sc.devices]
            for sc in cost.stage_costs
        ]
        # The head runs serially on one stage device; bill it there.
        for sc, shares in zip(cost.stage_costs, busy_shares):
            if sc.t_head > 0 and shares:
                fastest = max(
                    range(len(sc.devices)),
                    key=lambda i: sc.devices[i].device.capacity,
                )
                name_, t = shares[fastest]
                shares[fastest] = (name_, t + sc.t_head)
    else:
        services = [cost.latency]
        merged = {}
        for sc in cost.stage_costs:
            for dc in sc.devices:
                merged[dc.device.name] = (
                    merged.get(dc.device.name, 0.0) + dc.t_comp + dc.t_comm
                )
            if sc.t_head > 0:
                fastest = max(sc.devices, key=lambda dc: dc.device.capacity)
                merged[fastest.device.name] = (
                    merged.get(fastest.device.name, 0.0) + sc.t_head
                )
        busy_shares = [sorted(merged.items())]
        total_comm = sum(sc.t_comm for sc in cost.stage_costs)
        comm = [total_comm]
        comp = [cost.latency - total_comm]
    if measured_services is not None:
        # Replace the analytic per-stage service times with measured
        # wall-clock ones (e.g. a traced serve's compute spans); the comm
        # component keeps its analytic estimate and compute absorbs
        # the rest, so shared-medium contention still works.
        if len(measured_services) != len(services):
            raise ValueError(
                f"measured_services has {len(measured_services)} entries "
                f"for a {len(services)}-stage plan"
            )
        services = [float(s) for s in measured_services]
        comm = [min(c, s) for c, s in zip(comm, services)]
        comp = [max(0.0, s - c) for s, c in zip(services, comm)]
    stages = tuple(
        StageTiming(s, cm, cp, tuple(shares))
        for s, cm, cp, shares in zip(services, comm, comp, busy_shares)
    )
    return PlanTiming(
        name or plan.mode, plan.mode, cost.period, cost.latency, stages, cost
    )
