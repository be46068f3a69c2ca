"""Tenant request classes: per-tenant load, SLO and admission policy.

A :class:`TenantClass` describes one stream of inference requests the
fleet must serve: which registered model it runs, its expected Poisson
arrival rate, the latency SLO a completion must meet to count as
*goodput*, a placement priority, and the admission policy its bounded
queue applies when full (``shed`` rejects, ``block`` backpressures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serve.server import ServerConfig

__all__ = ["TenantClass"]


@dataclass(frozen=True)
class TenantClass:
    """One tenant's request class.

    ``priority`` orders placement: higher-priority tenants pick their
    devices first (ties broken by rate, then name).  ``min_devices`` /
    ``max_devices`` bound the device subsets the scheduler may try for
    this tenant's pipeline.
    """

    name: str
    model: str
    rate: float
    slo: float
    priority: int = 0
    policy: str = "shed"  # "shed" | "block"
    queue_capacity: int = 8
    min_devices: int = 1
    max_devices: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.rate <= 0:
            raise ValueError(f"{self.name}: arrival rate must be positive")
        if self.slo <= 0:
            raise ValueError(f"{self.name}: latency SLO must be positive")
        if self.policy not in ("shed", "block"):
            raise ValueError(
                f"{self.name}: unknown admission policy {self.policy!r}"
            )
        if self.queue_capacity < 1:
            raise ValueError(f"{self.name}: queue_capacity must be >= 1")
        if self.min_devices < 1:
            raise ValueError(f"{self.name}: min_devices must be >= 1")
        if self.max_devices is not None and self.max_devices < self.min_devices:
            raise ValueError(
                f"{self.name}: max_devices must be >= min_devices"
            )

    def server_config(self) -> ServerConfig:
        """This tenant's admission control as a :class:`ServerConfig`."""
        return ServerConfig(queue_capacity=self.queue_capacity, policy=self.policy)
