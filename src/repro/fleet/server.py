"""Fleet serving: a shared server owning transports, thin tenant sessions.

This splits the single-tenant :class:`~repro.serve.server.PipelineServer`
role in two:

* :class:`FleetServer` owns the shared side — the parent transport (a
  factory whose :meth:`~repro.runtime.core.Transport.open_tenant` views
  share one fleet-wide dead-device set), the
  :class:`~repro.fleet.scheduler.FleetScheduler` placements, and
  admission of tenants onto the pool.
* :class:`TenantSession` is the thin per-tenant half: one granted
  transport view, one admission queue (the tenant's
  :class:`~repro.serve.server.ServerConfig`), and the per-frame serving
  loop — delegated to the proven ``PipelineServer`` machinery so served
  outputs stay bit-identical to a tenant running alone.

Churn is fleet-wide: each session's replanner routes through
:meth:`FleetScheduler.replace_tenant`, so one device death re-places
every affected tenant over the survivors (bit-exact frame replay
preserved by the session ladder), and a tenant whose switcher holds a
fleet grant may only switch onto devices the scheduler leased it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.registry import ModelRegistry
from repro.fleet.scheduler import FleetScheduler, Placement
from repro.fleet.tenants import TenantClass
from repro.runtime.core import Transport
from repro.runtime.faults import RuntimeConfig, replan_or_degrade
from repro.schemes.base import PlanningError, Scheme
from repro.serve.server import PipelineServer, ServeResult, ServerConfig

__all__ = ["TenantSession", "TenantResult", "FleetResult", "FleetServer"]


class TenantSession:
    """One tenant's serving half: granted view + admission + frames."""

    def __init__(
        self,
        tenant: TenantClass,
        placement: Placement,
        server: PipelineServer,
    ) -> None:
        self.tenant = tenant
        self.placement = placement
        self.server = server

    @property
    def transport(self) -> Transport:
        return self.server.transport

    def serve(
        self,
        frames,
        arrivals: "Optional[Sequence[float]]" = None,
    ) -> ServeResult:
        """Serve this tenant's workload through its granted view."""
        return self.server.serve(frames, arrivals)

    def close(self) -> None:
        self.server.close()


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

    tenants: "Dict[str, TenantResult]" = field(default_factory=dict)

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
    """The shared half of fleet serving: transports, placement, admission.

    ``transport`` is the parent/factory transport — typically never
    opened itself; every admitted tenant gets an
    :meth:`~repro.runtime.core.Transport.open_tenant` view bound to its
    own program and engine, all views sharing one fleet-wide
    dead-device set.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        scheduler: FleetScheduler,
        transport: Transport,
        *,
        runtime_config: "Optional[RuntimeConfig]" = None,
        trace=None,
        max_batch: int = 1,
        batch_timeout: float = 0.0,
    ) -> None:
        self.registry = registry
        self.scheduler = scheduler
        self.transport = transport
        self.runtime_config = runtime_config
        self.trace = trace
        self.max_batch = max_batch
        self.batch_timeout = batch_timeout
        self.sessions: "Dict[str, TenantSession]" = {}
        self._switchers: "Dict[str, object]" = {}
        self._closed = False

    # -- admission -----------------------------------------------------
    def admit(
        self,
        tenants: "Sequence[TenantClass]",
        schemes: "Optional[Dict[str, Scheme]]" = None,
        switchers: "Optional[Dict[str, object]]" = None,
    ) -> "Dict[str, Placement]":
        """Place ``tenants`` on the pool and open a session for each.

        ``switchers`` optionally maps tenant names to an
        :class:`~repro.adaptive.switcher.AdaptiveSwitcher`; each is
        granted its tenant's leased devices
        (:meth:`~repro.adaptive.switcher.AdaptiveSwitcher.grant`), so a
        tenant may only switch to a plan within the scheduler's grant.
        """
        placements = self.scheduler.place(tenants, schemes)
        if switchers:
            self._switchers.update(switchers)
        for tenant in tenants:
            self._open_session(tenant, placements[tenant.name])
        return placements

    def _open_session(
        self, tenant: TenantClass, placement: Placement
    ) -> TenantSession:
        entry = self.registry.get(tenant.model)
        program = self.registry.compile(tenant.model, placement.plan)
        view = self.transport.open_tenant(engine=entry.engine)
        switcher = self._switchers.get(tenant.name)
        if switcher is not None:
            switcher.grant(placement.devices)
        server = PipelineServer(
            program,
            view,
            tenant.server_config(self.max_batch, self.batch_timeout),
            tracer=self.trace,
            runtime_config=self.runtime_config,
            replanner=(
                self._fleet_replanner(tenant)
                if self.runtime_config is not None
                else None
            ),
            switcher=switcher,
        )
        session = TenantSession(tenant, placement, server)
        self.sessions[tenant.name] = session
        return session

    # -- fleet-wide churn ----------------------------------------------
    def _fleet_replanner(self, tenant: TenantClass):
        """A session replanner routed through the fleet scheduler.

        ``replan(dead) -> (PlanProgram, kind)`` — releases the tenant's
        stranded leases, re-places it over the survivors at current
        occupancies, and re-grants its switcher; degrades to the
        fastest surviving device when no placement fits, through the
        same :func:`~repro.runtime.faults.replan_or_degrade` the
        per-session ladder uses.
        """

        def replan(dead):
            from repro.runtime.program import compile_plan

            entry = self.registry.get(tenant.model)
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
            session = self.sessions.get(tenant.name)
            if session is not None:
                session.placement = placement
            switcher = self._switchers.get(tenant.name)
            if switcher is not None:
                try:
                    switcher.grant(placement.devices)
                except ValueError:
                    switcher.grant(None)
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
        sessions replay serially (their interleaving is analytic);
        wall-clock sessions genuinely overlap, one serving thread per
        tenant.
        """
        unknown = set(workloads) - set(self.sessions)
        if unknown:
            raise KeyError(f"no session for tenants {sorted(unknown)}")
        fleet = FleetResult()
        virtual = [
            n for n in workloads if self.sessions[n].server.virtual
        ]
        walled = [n for n in workloads if n not in set(virtual)]
        for name in virtual:
            frames, arrivals = workloads[name]
            result = self.sessions[name].serve(frames, arrivals)
            fleet.tenants[name] = TenantResult(
                self.sessions[name].tenant,
                self.sessions[name].placement,
                result,
            )
        if walled:
            results: "Dict[str, ServeResult]" = {}
            errors: "Dict[str, BaseException]" = {}

            def run(name: str) -> None:
                frames, arrivals = workloads[name]
                try:
                    results[name] = self.sessions[name].serve(frames, arrivals)
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    errors[name] = exc

            threads = [
                threading.Thread(target=run, args=(n,), name=f"tenant-{n}")
                for n in walled
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise next(iter(errors.values()))
            for name in walled:
                fleet.tenants[name] = TenantResult(
                    self.sessions[name].tenant,
                    self.sessions[name].placement,
                    results[name],
                )
        return fleet

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for session in self.sessions.values():
            session.close()
        self.transport.close_tenants()

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
