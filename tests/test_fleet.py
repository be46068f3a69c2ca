"""Multi-tenant fleet serving: pool, scheduler, bit-exactness.

The fleet layer's contract, from four angles:

* **Device pool** — leases are idempotent, occupancy scales effective
  capacity, death voids leases fleet-wide.
* **Scheduling** — placement is priority-ordered and SLO-aware; shared
  devices are costed at occupancy-scaled capacity; churn re-places a
  tenant over the survivors.
* **Isolation** — a tenant co-scheduled with others produces outputs
  bit-identical to the same tenant running alone on the same plan, on
  every backend (the repo's core invariant lifted fleet-wide).
* **Churn accounting** — one device death strands every affected
  tenant; each replans through the shared scheduler and no frame is
  silently lost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.device import (
    DeviceLease,
    DevicePool,
    heterogeneous_cluster,
    pi_cluster,
)
from repro.cost.comm import NetworkModel
from repro.fleet import (
    FleetScheduler,
    FleetServer,
    ModelRegistry,
    TenantClass,
)
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.runtime.core import InProcTransport, SimTransport
from repro.runtime.faults import FaultSchedule, RuntimeConfig
from repro.schemes.base import PlanningError
from repro.schemes.layer_wise import LayerWiseScheme
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer


@pytest.fixture(scope="module")
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture(scope="module")
def cluster():
    return heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0])


@pytest.fixture(scope="module")
def small_model():
    return toy_chain(4, 1, input_hw=24, in_channels=3, base_channels=8)


@pytest.fixture(scope="module")
def big_model():
    return toy_chain(6, 2, input_hw=32, in_channels=3, base_channels=8)


@pytest.fixture(scope="module")
def registry(small_model, big_model):
    reg = ModelRegistry()
    reg.register("small", small_model)
    reg.register("big", big_model)
    return reg


def _frames(model, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# DevicePool: leases, occupancy, effective capacity, death
# ---------------------------------------------------------------------------


class TestDevicePool:
    def test_lease_scales_effective_capacity(self, cluster):
        pool = DevicePool(cluster)
        name = cluster.devices[0].name
        nominal = cluster.devices[0].capacity
        assert pool.effective(name).capacity == nominal
        pool.lease("a", (name,))
        pool.lease("b", (name,))
        assert pool.occupancy(name) == 2
        assert pool.effective(name).capacity == pytest.approx(nominal / 2)
        # preview: what a third holder would see before committing
        preview = pool.effective(name, extra_holders=1)
        assert preview.capacity == pytest.approx(nominal / 3)

    def test_lease_idempotent_and_release(self, cluster):
        pool = DevicePool(cluster)
        name = cluster.devices[0].name
        first = pool.lease("a", (name,))
        again = pool.lease("a", (name,))
        assert pool.occupancy(name) == 1
        assert first[0].share == again[0].share == 1.0
        pool.release("a")
        assert pool.occupancy(name) == 0
        assert pool.devices_of("a") == ()

    def test_lease_rejects_dead_and_unknown(self, cluster):
        pool = DevicePool(cluster)
        victim = cluster.devices[1].name
        pool.mark_dead(victim)
        with pytest.raises(ValueError):
            pool.lease("a", (victim,))
        with pytest.raises(KeyError):
            pool.lease("a", ("no-such-device",))

    def test_death_voids_leases_and_names_tenants(self, cluster):
        pool = DevicePool(cluster)
        victim = cluster.devices[0].name
        other = cluster.devices[1].name
        pool.lease("a", (victim, other))
        pool.lease("b", (victim,))
        pool.lease("c", (other,))
        affected = pool.mark_dead(victim)
        assert sorted(affected) == ["a", "b"]
        assert victim in pool.dead
        assert pool.occupancy(victim) == 0
        assert all(d.name != victim for d in pool.alive())

    def test_candidates_prefer_idle_then_fast(self, cluster):
        pool = DevicePool(cluster)
        fastest = pool.candidates()[0]
        assert fastest.capacity == max(d.capacity for d in cluster.devices)
        pool.lease("a", (fastest.name,))
        assert pool.candidates()[0].name != fastest.name

    def test_lease_share_validation(self, cluster):
        with pytest.raises(ValueError):
            DeviceLease(cluster.devices[0], "a", 0.0)
        with pytest.raises(ValueError):
            DeviceLease(cluster.devices[0], "a", 1.5)


# ---------------------------------------------------------------------------
# TenantClass / ModelRegistry plumbing
# ---------------------------------------------------------------------------


class TestTenantClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantClass("", "m", rate=1.0, slo=1.0)
        with pytest.raises(ValueError):
            TenantClass("t", "m", rate=0.0, slo=1.0)
        with pytest.raises(ValueError):
            TenantClass("t", "m", rate=1.0, slo=0.0)
        with pytest.raises(ValueError):
            TenantClass("t", "m", rate=1.0, slo=1.0, policy="drop")
        with pytest.raises(ValueError):
            TenantClass("t", "m", rate=1.0, slo=1.0, queue_capacity=0)
        with pytest.raises(ValueError):
            TenantClass(
                "t", "m", rate=1.0, slo=1.0, min_devices=3, max_devices=2
            )

    def test_server_config(self):
        tenant = TenantClass(
            "t", "m", rate=1.0, slo=1.0, policy="block", queue_capacity=4
        )
        cfg = tenant.server_config()
        assert cfg.queue_capacity == 4
        assert cfg.policy == "block"
        assert cfg.max_batch == 1


class TestModelRegistry:
    def test_register_idempotent_same_model(self, small_model):
        reg = ModelRegistry()
        entry = reg.register("m", small_model)
        assert reg.register("m", small_model) is entry
        assert "m" in reg and len(reg) == 1

    def test_register_conflict_raises(self, small_model, big_model):
        reg = ModelRegistry()
        reg.register("m", small_model)
        with pytest.raises(ValueError):
            reg.register("m", big_model)

    def test_get_unknown_lists_names(self, small_model):
        reg = ModelRegistry()
        reg.register("m", small_model)
        with pytest.raises(KeyError, match="m"):
            reg.get("nope")

    def test_compile_is_cached(self, small_model, cluster, net):
        reg = ModelRegistry()
        reg.register("m", small_model)
        plan = PicoScheme().plan(small_model, cluster, net)
        assert reg.compile("m", plan) is reg.compile("m", plan)


# ---------------------------------------------------------------------------
# FleetScheduler: SLO-aware placement, contention, churn
# ---------------------------------------------------------------------------


class TestFleetScheduler:
    def _tenants(self):
        return [
            TenantClass("alpha", "big", rate=2.0, slo=5.0, priority=1),
            TenantClass("beta", "small", rate=4.0, slo=5.0),
        ]

    def test_place_two_tenants(self, registry, cluster, net):
        sched = FleetScheduler(registry, cluster, net)
        placements = sched.place(self._tenants())
        assert set(placements) == {"alpha", "beta"}
        for name, pl in placements.items():
            assert pl.meets_slo, f"{name}: {pl.estimate} vs SLO"
            assert pl.devices == sched.placements[name].devices
            assert set(d.name for d in pl.plan.all_devices) <= set(pl.devices)

    def test_higher_priority_places_first(self, registry, cluster, net):
        sched = FleetScheduler(registry, cluster, net)
        placements = sched.place(self._tenants())
        fastest = max(cluster.devices, key=lambda d: d.capacity).name
        # alpha (priority 1) got first pick of the idle pool, so the
        # fastest device is in its grant unless it fit somewhere smaller
        assert fastest in placements["alpha"].devices

    def test_shared_device_is_costed_slower(self, registry, net):
        solo_cluster = pi_cluster(1, 1000.0)
        tenant_a = TenantClass("a", "small", rate=1.0, slo=60.0)
        tenant_b = TenantClass("b", "small", rate=1.0, slo=60.0)
        alone = FleetScheduler(registry, solo_cluster, net)
        alone_pl = alone.place([tenant_a])["a"]
        shared = FleetScheduler(registry, solo_cluster, net)
        shared_pl = shared.place([tenant_a, tenant_b])
        assert shared.pool.occupancy(solo_cluster.devices[0].name) == 2
        # both tenants share the only device: the re-costed period
        # prices the halved effective capacity
        assert shared_pl["a"].period > alone_pl.period

    def test_unregistered_model_raises(self, registry, cluster, net):
        sched = FleetScheduler(registry, cluster, net)
        with pytest.raises(KeyError):
            sched.place([TenantClass("x", "mystery", rate=1.0, slo=1.0)])

    def test_death_and_replacement(self, registry, cluster, net):
        sched = FleetScheduler(registry, cluster, net)
        placements = sched.place(self._tenants())
        victim = placements["alpha"].devices[0]
        affected = sched.pool.mark_dead(victim)
        assert "alpha" in affected
        assert sched.pool.mark_dead(victim) == ()  # idempotent
        replaced = sched.replace_tenant("alpha")
        assert victim not in replaced.devices
        assert sched.placements["alpha"] is replaced
        assert all(d != victim for d in sched.pool.devices_of("alpha"))

    def test_no_live_devices_raises(self, registry, net):
        solo_cluster = pi_cluster(1, 1000.0)
        sched = FleetScheduler(registry, solo_cluster, net)
        sched.place([TenantClass("a", "small", rate=1.0, slo=60.0)])
        sched.pool.mark_dead(solo_cluster.devices[0].name)
        with pytest.raises(PlanningError):
            sched.replace_tenant("a")


# ---------------------------------------------------------------------------
# Fleet serving: co-scheduled output == running alone (bit-exact)
# ---------------------------------------------------------------------------


def _fleet_factory(backend, net):
    if backend == "inproc":
        return lambda entry: InProcTransport(entry.engine)
    return lambda entry: SimTransport(entry.engine, net, compute=True)


def _alone_transport(backend, entry, net):
    if backend == "inproc":
        return InProcTransport(Engine(entry.model, entry.weights))
    return SimTransport(Engine(entry.model, entry.weights), net, compute=True)


def _live_workers():
    import multiprocessing as mp

    return [p for p in mp.active_children() if p.is_alive()]


class TestFleetDifferential:
    """Tenants co-scheduled on a shared pool stay bit-identical to the
    same tenant serving alone on the same plan — different models and
    different schemes, each tenant on its own factory-built transport."""

    N_FRAMES = 3

    @pytest.mark.parametrize("backend", ["inproc", "sim"])
    def test_two_tenants_bit_identical_to_alone(
        self, registry, cluster, net, backend
    ):
        tenants = [
            TenantClass("alpha", "big", rate=2.0, slo=10.0, priority=1),
            TenantClass("beta", "small", rate=4.0, slo=10.0),
        ]
        schemes = {"alpha": PicoScheme(), "beta": LayerWiseScheme()}
        scheduler = FleetScheduler(registry, cluster, net)
        workloads = {
            "alpha": (
                _frames(registry.get("big").model, self.N_FRAMES, seed=1),
                [0.0] * self.N_FRAMES,
            ),
            "beta": (
                _frames(registry.get("small").model, self.N_FRAMES, seed=2),
                [0.0] * self.N_FRAMES,
            ),
        }
        with FleetServer(
            registry, scheduler, _fleet_factory(backend, net)
        ) as fleet:
            placements = fleet.admit(tenants, schemes=schemes)
            result = fleet.serve(workloads)

        for tenant in tenants:
            shared = result.tenants[tenant.name].result
            assert len(shared.completed) == self.N_FRAMES
            entry = registry.get(tenant.model)
            program = registry.compile(
                tenant.model, placements[tenant.name].plan
            )
            alone_server = PipelineServer(
                program,
                _alone_transport(backend, entry, net),
                tenant.server_config(),
            )
            try:
                alone = alone_server.serve(
                    workloads[tenant.name][0],
                    arrivals=workloads[tenant.name][1],
                )
            finally:
                alone_server.close()
            for i in range(self.N_FRAMES):
                assert np.array_equal(
                    shared.outputs[i], alone.outputs[i]
                ), (
                    f"{tenant.name} frame {i} differs co-scheduled vs "
                    f"alone on {backend}"
                )

    @pytest.mark.slow
    def test_two_tenants_bit_identical_over_shm(self, registry, cluster, net):
        from repro.runtime.coordinator import ShmTransport

        self._bit_identical_over_workers(registry, cluster, net, ShmTransport)

    @pytest.mark.slow
    def test_two_tenants_bit_identical_over_tcp(self, registry, cluster, net):
        from repro.runtime.coordinator import TcpTransport

        self._bit_identical_over_workers(registry, cluster, net, TcpTransport)

    def _bit_identical_over_workers(self, registry, cluster, net, backend):
        tenants = [
            TenantClass("alpha", "big", rate=2.0, slo=10.0, priority=1),
            TenantClass("beta", "small", rate=4.0, slo=10.0),
        ]
        scheduler = FleetScheduler(registry, cluster, net)
        big = registry.get("big")
        made, closes = [], []

        def make_transport(entry):
            transport = backend(entry.model, entry.weights)
            real_close = transport.close
            transport.close = lambda: (closes.append(transport), real_close())
            made.append(transport)
            return transport

        workloads = {
            "alpha": (_frames(big.model, 2, seed=1), [0.0, 0.0]),
            "beta": (
                _frames(registry.get("small").model, 2, seed=2),
                [0.0, 0.0],
            ),
        }
        with FleetServer(registry, scheduler, make_transport) as fleet:
            placements = fleet.admit(tenants)
            result = fleet.serve(workloads)
        # one transport per tenant, each closed by the fleet exactly
        # once: no live worker, and (the conftest guard) no /dev/shm residue
        assert len(made) == len(tenants) and closes == made
        assert all(t._torn_down for t in made) and not _live_workers()
        for tenant in tenants:
            shared = result.tenants[tenant.name].result
            assert len(shared.completed) == 2
            entry = registry.get(tenant.model)
            program = registry.compile(
                tenant.model, placements[tenant.name].plan
            )
            alone_t = backend(entry.model, entry.weights)
            alone_server = PipelineServer(
                program, alone_t, tenant.server_config()
            )
            try:
                alone = alone_server.serve(
                    workloads[tenant.name][0],
                    arrivals=workloads[tenant.name][1],
                )
            finally:
                alone_server.close()
            for i in range(2):
                assert np.array_equal(shared.outputs[i], alone.outputs[i])


# ---------------------------------------------------------------------------
# Fleet churn: one death, every affected tenant replans, nothing lost
# ---------------------------------------------------------------------------


class TestFleetChurn:
    def test_death_replans_both_tenants_no_silent_loss(
        self, registry, net
    ):
        cluster = heterogeneous_cluster([1000.0, 800.0])
        # min_devices=2 forces both tenants onto both devices, so one
        # death strands them both
        tenants = [
            TenantClass(
                "alpha", "big", rate=1.0, slo=60.0, priority=1,
                min_devices=2,
            ),
            TenantClass(
                "beta", "small", rate=1.0, slo=60.0, min_devices=2,
            ),
        ]
        # scout the deterministic placement to pick a victim both hold
        scout = FleetScheduler(registry, cluster, net)
        scout_pl = scout.place(tenants)
        victims = set(scout_pl["alpha"].devices) & set(
            scout_pl["beta"].devices
        )
        assert victims, "tenants must overlap for a fleet-wide death"
        victim = sorted(victims)[0]
        faults = FaultSchedule().crash(victim, at_frame=1)
        scheduler = FleetScheduler(registry, cluster, net)

        big = registry.get("big")
        n = 4
        workloads = {
            "alpha": (_frames(big.model, n, seed=3), [0.0] * n),
            "beta": (
                _frames(registry.get("small").model, n, seed=4),
                [0.0] * n,
            ),
        }
        with FleetServer(
            registry, scheduler,
            lambda entry: InProcTransport(entry.engine, faults=faults),
            runtime_config=RuntimeConfig(),
        ) as fleet:
            placements = fleet.admit(tenants)
            result = fleet.serve(workloads)

        assert victim in scheduler.pool.dead
        for tenant in tenants:
            res = result.tenants[tenant.name].result
            accounted = (
                len(res.completed) + len(res.shed) + len(res.failed)
            )
            assert res.submitted == n and accounted == n, (
                f"{tenant.name}: silent frame loss"
            )
            assert not res.failed and not res.shed
            # outputs still correct: replayed frames ran on the
            # re-planned geometry, so float-close rather than bit-equal
            entry = registry.get(tenant.model)
            baseline_server = PipelineServer(
                registry.compile(tenant.model, placements[tenant.name].plan),
                InProcTransport(Engine(entry.model, entry.weights)),
                tenant.server_config(),
            )
            try:
                baseline = baseline_server.serve(
                    workloads[tenant.name][0],
                    arrivals=workloads[tenant.name][1],
                )
            finally:
                baseline_server.close()
            for i in range(n):
                assert np.allclose(
                    res.outputs[i], baseline.outputs[i], atol=1e-4
                ), f"{tenant.name} frame {i} corrupted by fleet churn"
            # both tenants moved off the victim
            assert victim not in scheduler.placements[tenant.name].devices

    @pytest.mark.parametrize("backend", ["tcp", "shm"])
    def test_death_reaches_every_worker_tenant(self, registry, net, backend):
        """Worker tenants cannot re-plan, so the plan must leave every
        stage a survivor: layer-wise plans put both devices in every
        stage.  The one crash is one ``device_dead`` fleet-wide; every
        tenant retires the device through the shared dead set and
        completes its frames on the survivor."""
        from repro.runtime.coordinator import ShmTransport, TcpTransport
        from repro.runtime.trace import Tracer

        cls = {"tcp": TcpTransport, "shm": ShmTransport}[backend]
        cluster = heterogeneous_cluster([1000.0, 800.0])
        tenants = [
            TenantClass(
                "alpha", "big", rate=1.0, slo=60.0, priority=1,
                min_devices=2,
            ),
            TenantClass(
                "beta", "small", rate=1.0, slo=60.0, min_devices=2,
            ),
        ]
        schemes = {t.name: LayerWiseScheme() for t in tenants}
        victim = cluster.devices[1].name
        faults = FaultSchedule().crash(victim, at_frame=1)
        scheduler = FleetScheduler(registry, cluster, net)
        n = 3
        workloads = {
            t.name: (_frames(registry.get(t.model).model, n, seed=5), [0.0] * n)
            for t in tenants
        }
        tracer = Tracer()
        with FleetServer(
            registry, scheduler,
            lambda entry: cls(entry.model, entry.weights, faults=faults),
            runtime_config=RuntimeConfig(), trace=tracer,
        ) as fleet:
            placements = fleet.admit(tenants, schemes)
            result = fleet.serve(workloads)
            transports = {t.name: fleet.servers[t.name].transport for t in tenants}
        assert not _live_workers()
        dead = [e for e in tracer.events if e.kind == "device_dead"]
        assert [e.device for e in dead] == [victim]
        for tenant in tenants:
            plan = placements[tenant.name].plan
            assert all(len(s.assignments) == 2 for s in plan.stages)
            res = result.tenants[tenant.name].result
            assert len(res.completed) == n and not res.failed
            assert transports[tenant.name].dead_devices() == {victim}
            engine = registry.get(tenant.model).engine
            for i, x in enumerate(workloads[tenant.name][0]):
                assert np.allclose(
                    res.outputs[i], engine.forward_features(x), atol=1e-4
                ), f"{tenant.name} frame {i} corrupted by fleet churn"
