"""Fleet serving: one server placing tenants, one transport per tenant.

:class:`FleetServer` owns what the tenants share — the
:class:`~repro.fleet.scheduler.FleetScheduler` placements, admission of
tenants onto the pool, and the fleet-wide dead-device set — and builds
each admitted tenant its own backend through a factory.  Per tenant it
runs one :class:`~repro.serve.server.PipelineServer` (the tenant's
admission queue and per-frame serving loop), so served outputs stay
bit-identical to a tenant running alone.

Churn is fleet-wide: each tenant's replanner routes through
:meth:`FleetScheduler.replace_tenant`, so one device death re-places
every affected tenant over the survivors (bit-exact frame replay
preserved by the session ladder).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fleet.registry import ModelEntry, ModelRegistry
from repro.fleet.scheduler import FleetScheduler, Placement
from repro.fleet.tenants import TenantClass
from repro.runtime.core import Transport
from repro.runtime.faults import RuntimeConfig, replan_or_degrade
from repro.runtime.program import compile_plan
from repro.schemes.base import PlanningError, Scheme
from repro.serve.server import PipelineServer, ServeResult

__all__ = ["TenantResult", "FleetResult", "FleetServer"]


@dataclass
class TenantResult:
    """One tenant's served workload, judged against its SLO."""

    tenant: TenantClass
    placement: Placement
    result: ServeResult

    @property
    def in_slo(self) -> "List":
        return [
            r for r in self.result.completed if r.sojourn <= self.tenant.slo
        ]

    @property
    def slo_attainment(self) -> float:
        """In-SLO completions over *submitted* frames (shed counts
        against the tenant — an unserved request never met its SLO)."""
        if not self.result.submitted:
            return 1.0
        return len(self.in_slo) / self.result.submitted

    @property
    def goodput(self) -> float:
        """In-SLO completions per second of this tenant's makespan."""
        if self.result.makespan <= 0:
            return 0.0
        return len(self.in_slo) / self.result.makespan


@dataclass
class FleetResult:
    """Every tenant's result plus fleet-level aggregates."""

    tenants: "Dict[str, TenantResult]"

    @property
    def makespan(self) -> float:
        return max(
            (tr.result.makespan for tr in self.tenants.values()), default=0.0
        )

    @property
    def completed(self) -> int:
        return sum(len(tr.result.completed) for tr in self.tenants.values())

    @property
    def in_slo(self) -> int:
        return sum(len(tr.in_slo) for tr in self.tenants.values())

    @property
    def aggregate_goodput(self) -> float:
        """Fleet-wide in-SLO completions per second of fleet makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.in_slo / self.makespan

    def attainment(self) -> "Dict[str, float]":
        return {
            name: tr.slo_attainment for name, tr in sorted(self.tenants.items())
        }


class FleetServer:
    """The shared half of fleet serving: placement, admission, failures.

    ``make_transport(entry)`` returns a fresh, *unopened* backend for a
    tenant serving the registry entry's model; the tenant's
    :class:`~repro.serve.server.PipelineServer` binds it to that
    tenant's program through the normal ``configure() → open()`` flow.
    Each tenant so keeps its own workers, or its own virtual stage
    servers: contention between tenants is modelled up front by the
    scheduler's occupancy-scaled capacities, not by interleaving them
    on one clock.  The failure state is fleet-wide: before a tenant's
    transport opens it adopts this server's dead-device set
    (:meth:`~repro.runtime.core.Transport.share_dead`), so a death
    discovered while serving one tenant immediately makes
    ``needs_repartition`` true for every other tenant whose plan
    touches that device.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        scheduler: FleetScheduler,
        make_transport: "Callable[[ModelEntry], Transport]",
        *,
        runtime_config: "Optional[RuntimeConfig]" = None,
        trace=None,
    ) -> None:
        self.registry = registry
        self.scheduler = scheduler
        self.make_transport = make_transport
        self.runtime_config = runtime_config
        self.trace = trace
        self.servers: "Dict[str, PipelineServer]" = {}
        #: What each tenant's server runs: its admission-time placement,
        #: replaced when fleet-wide churn re-places the tenant.
        self.placements: "Dict[str, Placement]" = {}
        self._dead: "set" = set()
        self._dead_lock = threading.Lock()
        self._closed = False

    # -- admission -----------------------------------------------------
    def admit(
        self,
        tenants: "Sequence[TenantClass]",
        schemes: "Optional[Dict[str, Scheme]]" = None,
    ) -> "Dict[str, Placement]":
        """Place ``tenants`` on the pool and open a server for each."""
        placements = self.scheduler.place(tenants, schemes)
        for tenant in tenants:
            self._open_server(tenant, placements[tenant.name])
        return placements

    def _open_server(self, tenant: TenantClass, placement: Placement) -> None:
        entry = self.registry.get(tenant.model)
        program = self.registry.compile(tenant.model, placement.plan)
        transport = self.make_transport(entry)
        transport.share_dead(self._dead, self._dead_lock)
        self.placements[tenant.name] = placement
        self.servers[tenant.name] = PipelineServer(
            program,
            transport,
            tenant.server_config(),
            tracer=self.trace,
            runtime_config=self.runtime_config,
            replanner=(
                self._fleet_replanner(tenant)
                if self.runtime_config is not None
                else None
            ),
        )

    # -- fleet-wide churn ----------------------------------------------
    def _fleet_replanner(self, tenant: TenantClass):
        """A session replanner routed through the fleet scheduler.

        ``replan(dead) -> (PlanProgram, kind)`` — releases the tenant's
        stranded leases and re-places it over the survivors at current
        occupancies; degrades to the
        fastest surviving device when no placement fits, through the
        same :func:`~repro.runtime.faults.replan_or_degrade` the
        per-session ladder uses.
        """

        def replan(dead):
            entry = self.registry.get(tenant.model)
            # Wall-clock tenants re-plan from their own serving threads:
            # one at a time, or the pool's lease book races.
            with self._dead_lock:
                try:
                    placement = self.scheduler.replace_tenant(tenant.name, dead)
                except PlanningError:
                    plan, kind = replan_or_degrade(
                        entry.model, self.scheduler.pool.alive()
                    )
                    self.scheduler.pool.lease(
                        tenant.name, tuple(d.name for d in plan.all_devices)
                    )
                    return compile_plan(entry.model, plan), kind
                self.placements[tenant.name] = placement
            program = self.registry.compile(tenant.model, placement.plan)
            return program, "replan"

        return replan

    # -- serving -------------------------------------------------------
    def serve(
        self,
        workloads: "Dict[str, Tuple]",
    ) -> FleetResult:
        """Serve every tenant's workload; returns the fleet aggregate.

        ``workloads`` maps tenant name to ``(frames, arrivals)`` as
        :meth:`PipelineServer.serve` accepts them.  Virtual-clock
        tenants replay serially (their interleaving is analytic);
        wall-clock tenants genuinely overlap, one serving thread per
        tenant.
        """
        unknown = set(workloads) - set(self.servers)
        if unknown:
            raise KeyError(f"no server for tenants {sorted(unknown)}")
        results: "Dict[str, ServeResult]" = {}
        errors: "Dict[str, BaseException]" = {}

        def run(name: str) -> None:
            try:
                results[name] = self.servers[name].serve(*workloads[name])
            except BaseException as exc:  # noqa: BLE001 - re-raised
                errors[name] = exc

        threads = []
        for name in workloads:
            if self.servers[name].virtual:
                results[name] = self.servers[name].serve(*workloads[name])
            else:
                threads.append(
                    threading.Thread(
                        target=run, args=(name,), name=f"tenant-{name}"
                    )
                )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise next(iter(errors.values()))
        return FleetResult({
            name: TenantResult(
                self.scheduler.tenants[name], self.placements[name],
                results[name],
            )
            for name in workloads
        })

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for server in self.servers.values():
            server.close()  # closes that tenant's transport, once

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
