"""Edge device and cluster descriptions.

A device is characterised by its floating-point computing capacity
``vartheta`` (FLOP/s, paper §III-A) and the regression coefficient
``alpha`` of Eq. (5) that maps a FLOP count to wall-clock time.  The
paper's testbed is Raspberry-Pi 4Bs pinned to one core with the CPU
frequency scaled between 600 MHz and 1.5 GHz; :func:`raspberry_pi`
reproduces that knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Set, Tuple

__all__ = [
    "Device",
    "Cluster",
    "DeviceLease",
    "DevicePool",
    "raspberry_pi",
    "pi_cluster",
    "heterogeneous_cluster",
]

#: Effective single-core FLOP/s per Hz for a Cortex-A72 running NNPACK
#: convolutions.  Only sets the absolute time unit; every paper result we
#: reproduce is a ratio, so the exact value is immaterial.
FLOPS_PER_CYCLE = 2.0


@dataclass(frozen=True)
class Device:
    """One edge device.

    ``capacity`` is FLOP/s; ``alpha`` the Eq. (5) calibration
    coefficient (1.0 = the cost model's FLOP counts are exact).
    """

    name: str
    capacity: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.alpha <= 0:
            raise ValueError(f"{self.name}: alpha must be positive")

    def compute_time(self, flops: float) -> float:
        """Eq. (5): wall-clock seconds for ``flops`` floating operations."""
        return self.alpha * flops / self.capacity


@dataclass(frozen=True)
class Cluster:
    """An ordered collection of devices."""

    devices: Tuple[Device, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise ValueError("cluster needs at least one device")
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names: {names}")

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    @property
    def total_capacity(self) -> float:
        return sum(d.capacity for d in self.devices)

    @property
    def average_capacity(self) -> float:
        return self.total_capacity / len(self.devices)

    @property
    def fastest(self) -> Device:
        return max(self.devices, key=lambda d: d.capacity)

    def homogenized(self) -> "Cluster":
        """Eq. (12): same size, every device gets the average capacity."""
        avg = self.average_capacity
        avg_alpha = sum(d.alpha for d in self.devices) / len(self.devices)
        return Cluster(
            tuple(
                Device(f"avg{i}", avg, avg_alpha)
                for i in range(len(self.devices))
            )
        )

    def sorted_by_capacity(self) -> Tuple[Device, ...]:
        """The devices, fastest first."""
        return tuple(sorted(self.devices, key=lambda d: d.capacity, reverse=True))

    def subset(self, names: "Sequence[str]") -> "Cluster":
        """The sub-cluster holding exactly ``names`` (cluster order)."""
        wanted = set(names)
        unknown = wanted - {d.name for d in self.devices}
        if unknown:
            raise KeyError(f"unknown devices: {sorted(unknown)}")
        return Cluster(tuple(d for d in self.devices if d.name in wanted))


@dataclass(frozen=True)
class DeviceLease:
    """One tenant's grant on one device.

    ``share`` is the capacity fraction the scheduler granted — ``1.0``
    for an exclusive device, ``1/k`` when ``k`` tenant pipelines share
    it (the contention model: a shared single-core device time-slices
    fairly, so each holder sees proportionally scaled capacity).
    """

    device: str
    tenant: str
    share: float

    def __post_init__(self) -> None:
        if not 0.0 < self.share <= 1.0:
            raise ValueError(f"lease share must be in (0, 1], got {self.share}")


class DevicePool:
    """Occupancy-tracked view of a :class:`Cluster` shared by tenants.

    The fleet scheduler places every tenant pipeline through this book:
    :meth:`lease` records which tenant holds which devices, and
    :meth:`effective` answers what capacity a holder actually sees —
    the device's nominal capacity divided by its occupancy, the
    scaled-effective-capacity contention model the placement re-costing
    uses.  Dead devices (:meth:`mark_dead`) leave every tenant's lease
    set and stop being offered, which is what turns one death into a
    fleet-wide re-placement of every affected tenant.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._by_name: "Dict[str, Device]" = {d.name: d for d in cluster}
        self._holders: "Dict[str, List[str]]" = {d.name: [] for d in cluster}
        self._dead: "Set[str]" = set()

    # -- liveness ------------------------------------------------------
    def mark_dead(self, name: str) -> "Tuple[str, ...]":
        """Retire a device; returns the tenants whose leases it voids."""
        if name not in self._by_name:
            raise KeyError(f"unknown device {name!r}")
        affected = tuple(self._holders[name])
        self._dead.add(name)
        self._holders[name] = []
        return affected

    @property
    def dead(self) -> "frozenset":
        return frozenset(self._dead)

    def alive(self) -> "Tuple[Device, ...]":
        return tuple(d for d in self.cluster if d.name not in self._dead)

    # -- leases --------------------------------------------------------
    def occupancy(self, name: str) -> int:
        """How many tenants currently hold ``name``."""
        return len(self._holders[name])

    def holders(self, name: str) -> "Tuple[str, ...]":
        return tuple(self._holders[name])

    def devices_of(self, tenant: str) -> "Tuple[str, ...]":
        return tuple(
            name
            for name, holders in sorted(self._holders.items())
            if tenant in holders
        )

    def lease(self, tenant: str, names: "Sequence[str]") -> "Tuple[DeviceLease, ...]":
        """Grant ``tenant`` every device in ``names`` or, if one is
        unknown or dead, none (idempotent)."""
        for name in names:
            if name not in self._by_name:
                raise KeyError(f"unknown device {name!r}")
            if name in self._dead:
                raise ValueError(f"device {name!r} is dead")
        leases = []
        for name in names:
            if tenant not in self._holders[name]:
                self._holders[name].append(tenant)
            leases.append(
                DeviceLease(name, tenant, 1.0 / len(self._holders[name]))
            )
        return tuple(leases)

    def release(self, tenant: str) -> None:
        """Void every lease ``tenant`` holds."""
        for holders in self._holders.values():
            if tenant in holders:
                holders.remove(tenant)

    # -- contention-scaled views ---------------------------------------
    def effective(self, name: str, extra_holders: int = 0) -> Device:
        """``name`` as its holders see it: capacity / occupancy.

        ``extra_holders`` previews the capacity *after* that many more
        tenants join — the scheduler scores candidate placements with
        ``extra_holders=1`` before committing a lease.
        """
        device = self._by_name[name]
        k = max(1, len(self._holders[name]) + extra_holders)
        if k == 1:
            return device
        return Device(device.name, device.capacity / k, device.alpha)

    def effective_cluster(
        self, names: "Sequence[str]", extra_holders: int = 0
    ) -> Cluster:
        """A contention-scaled :class:`Cluster` over ``names``."""
        return Cluster(
            tuple(self.effective(n, extra_holders) for n in names)
        )

    def candidates(self) -> "Tuple[Device, ...]":
        """Live devices, least-occupied first (capacity breaks ties)."""
        return tuple(
            sorted(
                self.alive(),
                key=lambda d: (self.occupancy(d.name), -d.capacity, d.name),
            )
        )


def raspberry_pi(name: str, freq_mhz: float = 1500.0) -> Device:
    """A Raspberry-Pi 4B pinned to one core at ``freq_mhz``."""
    if freq_mhz <= 0:
        raise ValueError("frequency must be positive")
    return Device(name, capacity=freq_mhz * 1e6 * FLOPS_PER_CYCLE)


def pi_cluster(n: int, freq_mhz: float = 1500.0) -> Cluster:
    """A homogeneous cluster of ``n`` Raspberry-Pis (the paper's testbed)."""
    return Cluster(tuple(raspberry_pi(f"pi{i}", freq_mhz) for i in range(n)))


def heterogeneous_cluster(freqs_mhz: "Sequence[float]") -> Cluster:
    """A heterogeneous Pi cluster from a list of CPU frequencies, e.g. the
    paper's Table I mix ``[1200, 1200, 800, 800, 600, 600, 600, 600]``."""
    return Cluster(
        tuple(
            raspberry_pi(f"pi{i}@{int(f)}MHz", f) for i, f in enumerate(freqs_mhz)
        )
    )
