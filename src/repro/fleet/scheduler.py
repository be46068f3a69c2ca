"""Contention- and churn-aware placement of tenant pipelines.

The :class:`FleetScheduler` packs several tenants' pipelines onto one
shared :class:`~repro.cluster.device.Cluster` through a
:class:`~repro.cluster.device.DevicePool`:

* **Greedy priority placement** — tenants place in priority order; each
  tries the ``k`` least-occupied live devices for growing ``k`` and
  keeps the smallest footprint whose Theorem-2 latency estimate meets
  its SLO (or the best estimate available when none does).
* **Contention awareness** — every candidate subset is costed on an
  *effective* cluster whose shared devices carry occupancy-scaled
  capacity (``capacity / holders``), re-using the same vectorized
  segment tables and :func:`~repro.core.plan.plan_cost` the planners
  already use; after all tenants hold leases a final re-cost pass
  rebuilds every plan at the final occupancies.
* **Churn awareness** — a device death voids its leases fleet-wide
  (the pool's ``mark_dead`` names every affected tenant) and
  :meth:`replace_tenant` re-places a tenant over the survivors at
  current occupancies, which is what the fleet server's per-tenant
  replanners call from the PR-4 recovery ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.adaptive.queueing import average_inference_latency, stable
from repro.cluster.device import Cluster, DeviceLease, DevicePool
from repro.core.plan import PipelinePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.fleet.registry import ModelRegistry
from repro.fleet.tenants import TenantClass
from repro.schemes.base import PlanningError, Scheme
from repro.schemes.pico import PicoScheme

__all__ = ["Placement", "FleetScheduler"]


@dataclass(frozen=True)
class Placement:
    """One tenant's scheduled pipeline.

    ``devices`` is the granted (leased) device set — the grant a
    tenant's adaptive switcher is restricted to; ``plan`` was costed on
    the occupancy-scaled effective cluster, so ``period`` / ``latency``
    / ``estimate`` already price in contention from co-located tenants.
    """

    tenant: str
    devices: "Tuple[str, ...]"
    plan: PipelinePlan
    period: float
    latency: float
    estimate: float  # Theorem-2 latency at the tenant's arrival rate
    meets_slo: bool
    leases: "Tuple[DeviceLease, ...]" = ()


class FleetScheduler:
    """Places every tenant's pipeline onto the shared device pool."""

    def __init__(
        self,
        registry: ModelRegistry,
        cluster: Cluster,
        network: NetworkModel,
    ) -> None:
        from repro.cost.comm import coerce_network

        self.registry = registry
        self.cluster = cluster
        # A Topology collapses to its flat summary for placement costing
        # (the event engine charges the real per-link times).
        self.network = coerce_network(network)
        self.pool = DevicePool(cluster)
        self.tenants: "Dict[str, TenantClass]" = {}
        self.placements: "Dict[str, Placement]" = {}
        self._schemes: "Dict[str, Scheme]" = {}

    # -- placement -----------------------------------------------------
    def place(
        self,
        tenants: "Sequence[TenantClass]",
        schemes: "Optional[Dict[str, Scheme]]" = None,
    ) -> "Dict[str, Placement]":
        """Place every tenant; returns the final (re-costed) placements.

        ``schemes`` optionally maps tenant names to the planner each
        should use (default: :class:`~repro.schemes.pico.PicoScheme`).
        """
        if schemes:
            self._schemes.update(schemes)
        order = sorted(tenants, key=lambda t: (-t.priority, -t.rate, t.name))
        for tenant in order:
            if tenant.model not in self.registry:
                raise KeyError(
                    f"tenant {tenant.name!r} wants unregistered model "
                    f"{tenant.model!r}"
                )
            self.tenants[tenant.name] = tenant
            self.placements[tenant.name] = self._place_one(tenant)
        self._recost()
        return dict(self.placements)

    def _scheme_for(self, tenant: TenantClass) -> Scheme:
        scheme = self._schemes.get(tenant.name)
        if scheme is None:
            scheme = PicoScheme()
            self._schemes[tenant.name] = scheme
        return scheme

    def _place_one(self, tenant: TenantClass) -> Placement:
        """Greedy subset search over the least-occupied live devices."""
        model = self.registry.get(tenant.model).model
        scheme = self._scheme_for(tenant)
        candidates = self.pool.candidates()
        if not candidates:
            raise PlanningError("the device pool has no live devices")
        lo = min(tenant.min_devices, len(candidates))
        hi = len(candidates)
        if tenant.max_devices is not None:
            hi = min(hi, tenant.max_devices)
        hi = max(hi, lo)
        best = None
        best_key = None
        errors = []
        for k in range(lo, hi + 1):
            names = [d.name for d in candidates[:k]]
            # extra_holders=1 previews the capacity each device would
            # give this tenant once it joins the current holders.
            effective = self.pool.effective_cluster(names, extra_holders=1)
            try:
                plan = scheme.plan(model, effective, self.network)
            except PlanningError as exc:
                errors.append(f"k={k}: {exc}")
                continue
            cost = plan_cost(model, plan, self.network)
            estimate = float(average_inference_latency(
                cost.period, cost.latency, tenant.rate
            ))
            meets = bool(
                stable(cost.period, tenant.rate) and estimate <= tenant.slo
            )
            key = (not meets, estimate, k)
            if best_key is None or key < best_key:
                best = (plan, cost, estimate, meets)
                best_key = key
            if meets:
                break  # smallest footprint that meets the SLO wins
        if best is None:
            raise PlanningError(
                f"no placement fits tenant {tenant.name!r} "
                f"({'; '.join(errors)})"
            )
        plan, cost, estimate, meets = best
        granted = tuple(d.name for d in plan.all_devices)
        leases = self.pool.lease(tenant.name, granted)
        return Placement(
            tenant.name, granted, plan,
            cost.period, cost.latency, estimate, meets, leases,
        )

    def _recost(self) -> None:
        """Final contention pass: rebuild every plan at final occupancy.

        Greedy placement previewed each tenant's capacity before later
        tenants joined; once every lease is committed the true sharing
        is known, so each tenant's plan is re-planned on its granted
        devices at their *final* effective capacities (a tenant that
        cannot re-plan keeps its committed plan and estimates).
        """
        order = sorted(
            self.placements,
            key=lambda n: (-self.tenants[n].priority, n),
        )
        for name in order:
            tenant = self.tenants[name]
            placement = self.placements[name]
            alive = [d for d in placement.devices if d not in self.pool.dead]
            if not alive:
                continue
            effective = self.pool.effective_cluster(alive)
            model = self.registry.get(tenant.model).model
            try:
                plan = self._scheme_for(tenant).plan(model, effective, self.network)
            except PlanningError:
                continue
            cost = plan_cost(model, plan, self.network)
            estimate = float(average_inference_latency(
                cost.period, cost.latency, tenant.rate
            ))
            meets = bool(
                stable(cost.period, tenant.rate) and estimate <= tenant.slo
            )
            leases = tuple(
                DeviceLease(d, name, 1.0 / max(1, self.pool.occupancy(d)))
                for d in placement.devices
            )
            self.placements[name] = Placement(
                name, placement.devices, plan,
                cost.period, cost.latency, estimate, meets, leases,
            )

    # -- churn ---------------------------------------------------------
    def replace_tenant(
        self, name: str, dead: "Sequence[str]" = ()
    ) -> Placement:
        """Re-place one tenant over the survivors (the churn response).

        Marks any newly reported ``dead`` devices, releases the tenant's
        surviving leases, and runs the same greedy placement at current
        occupancies.  Raises :class:`~repro.schemes.base.PlanningError`
        when nothing fits — the caller degrades (single-device fallback)
        exactly as the per-session churn ladder does.
        """
        for device in dead:
            if device in self.pool._by_name and device not in self.pool.dead:
                self.pool.mark_dead(device)
        tenant = self.tenants[name]
        self.pool.release(name)
        placement = self._place_one(tenant)
        self.placements[name] = placement
        return placement
