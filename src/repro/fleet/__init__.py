"""Multi-tenant fleet serving: many models, one shared device pool.

The fleet layer packs several tenants' pipelines onto one cluster:

* :class:`~repro.fleet.registry.ModelRegistry` — named models with
  prebuilt engines, warm cost tables and cached compiled programs.
* :class:`~repro.fleet.tenants.TenantClass` — per-tenant arrival rate,
  latency SLO, priority and admission policy.
* :class:`~repro.fleet.scheduler.FleetScheduler` — contention-aware
  placement over a :class:`~repro.cluster.device.DevicePool` (shared
  devices get occupancy-scaled effective capacity) with fleet-wide
  churn response.
* :class:`~repro.fleet.server.FleetServer` — placement, admission and
  the fleet-wide dead-device set; one factory-built transport and one
  :class:`~repro.serve.server.PipelineServer` per tenant, whose outputs
  stay bit-identical to each tenant running alone.

See ``docs/fleet.md`` for the full model.
"""

from repro.fleet.registry import ModelEntry, ModelRegistry
from repro.fleet.scheduler import FleetScheduler, Placement
from repro.fleet.server import (
    FleetResult,
    FleetServer,
    TenantResult,
)
from repro.fleet.tenants import TenantClass

__all__ = [
    "ModelEntry",
    "ModelRegistry",
    "TenantClass",
    "FleetScheduler",
    "Placement",
    "FleetServer",
    "FleetResult",
    "TenantResult",
]
