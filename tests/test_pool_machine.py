"""The fleet's ``DevicePool`` as a state machine.

Hypothesis drives one :class:`~repro.fleet.FleetScheduler`'s pool
through what the fleet does to it — lease devices to a tenant, release
a tenant, retire a dead device, and re-place a tenant over the
survivors (:meth:`~repro.fleet.FleetScheduler.replace_tenant`, which a
churn re-plan calls) — next to a shadow book of who holds what.  After
every step no occupancy is negative, no dead device is held,
``holders(d)`` and ``devices_of(t)`` agree with each other and with the
shadow, and the pool's dead set is the one the rules built.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster.device import pi_cluster
from repro.cost.comm import NetworkModel
from repro.fleet import FleetScheduler, ModelRegistry, TenantClass
from repro.models.toy import toy_chain
from repro.schemes.base import PlanningError

CLUSTER = pi_cluster(4, 1000)
DEVICES = [d.name for d in CLUSTER]
REGISTRY = ModelRegistry()
REGISTRY.register("toy", toy_chain(3, 0, input_hw=8, in_channels=1, base_channels=2))
PLACED = ("alpha", "beta")  # placed by the scheduler, so replaceable
TENANTS = PLACED + ("gamma",)  # gamma only ever leases by hand


class PoolMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.scheduler = FleetScheduler(
            REGISTRY, CLUSTER, NetworkModel.from_mbps(50.0)
        )
        self.pool = self.scheduler.pool
        placements = self.scheduler.place(
            [TenantClass(name, "toy", rate=1.0, slo=10.0) for name in PLACED]
        )
        self.held = {t: set() for t in TENANTS}
        for name, placement in placements.items():
            self.held[name] = set(placement.devices)
        self.dead: "set" = set()

    @rule(
        tenant=st.sampled_from(TENANTS),
        names=st.sets(st.sampled_from(DEVICES), min_size=1),
    )
    def lease(self, tenant, names) -> None:
        try:
            self.pool.lease(tenant, sorted(names))
        except ValueError:
            assert names & self.dead  # and nothing was granted
            return
        assert not names & self.dead
        self.held[tenant] |= names

    @rule(tenant=st.sampled_from(TENANTS))
    def release(self, tenant) -> None:
        self.pool.release(tenant)
        self.held[tenant] = set()

    @rule(device=st.sampled_from(DEVICES))
    def mark_dead(self, device) -> None:
        stranded = self.scheduler.pool.mark_dead(device)
        if device in self.dead:
            assert stranded == ()
        else:
            assert set(stranded) == {
                t for t, names in self.held.items() if device in names
            }
        self.dead.add(device)
        for names in self.held.values():
            names.discard(device)

    @rule(tenant=st.sampled_from(PLACED))
    def replace(self, tenant) -> None:
        try:
            placement = self.scheduler.replace_tenant(tenant)
        except PlanningError:
            assert len(self.dead) == len(DEVICES)
            self.held[tenant] = set()
            return
        assert not set(placement.devices) & self.dead
        self.held[tenant] = set(placement.devices)

    @invariant()
    def occupancy_never_negative(self) -> None:
        for d in DEVICES:
            assert self.pool.occupancy(d) == len(self.pool.holders(d)) >= 0

    @invariant()
    def no_dead_device_is_held(self) -> None:
        assert self.pool.dead == self.dead
        for d in self.dead:
            assert self.pool.holders(d) == ()

    @invariant()
    def holders_agree_with_devices_of(self) -> None:
        for t in TENANTS:
            by_holder = {d for d in DEVICES if t in self.pool.holders(d)}
            assert set(self.pool.devices_of(t)) == by_holder == self.held[t]


TestDevicePoolMachine = PoolMachine.TestCase
TestDevicePoolMachine.settings = settings(
    max_examples=50,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
