"""Communication cost model (paper Eq. 7–8).

All devices share one WLAN of bandwidth ``b`` (paper §III-A assumes a
uniform bandwidth, the common smart-home / factory case).  The transfer
time of a feature region between the stage's frame device ``d_f`` and a
compute device is ``(bytes_in + bytes_out) / b``; stage communication is
the *sum* over compute devices because the wireless medium is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.partition.regions import Region

__all__ = ["NetworkModel", "coerce_network", "region_bytes", "wifi_50mbps"]


@dataclass(frozen=True)
class NetworkModel:
    """A shared-medium network with fixed bandwidth and optional
    per-message latency (extension; the paper uses pure bandwidth)."""

    bandwidth_bytes_per_s: float
    per_message_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.per_message_latency_s < 0:
            raise ValueError("latency must be non-negative")

    @classmethod
    def from_mbps(cls, mbps: float, per_message_latency_s: float = 0.0) -> "NetworkModel":
        """Construct from megabits per second (the paper's 50 Mbps AP)."""
        return cls(mbps * 1e6 / 8.0, per_message_latency_s)

    @property
    def mbps(self) -> float:
        return self.bandwidth_bytes_per_s * 8.0 / 1e6

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` over the shared medium."""
        if nbytes <= 0:
            return 0.0
        return self.per_message_latency_s + nbytes / self.bandwidth_bytes_per_s


def coerce_network(network) -> "NetworkModel":
    """Normalise a ``network=`` argument to a flat :class:`NetworkModel`.

    ``None`` means the paper's 50 Mbps WiFi; a
    :class:`~repro.sim.topology.Topology` collapses through its
    ``as_network_model()`` summary (bottleneck bandwidth, mean link
    latency) — the planners cost against the flat view while the event
    engine charges the real per-link times.  Duck-typed so the cost
    layer never imports the topology layer.
    """
    if network is None:
        return wifi_50mbps()
    if isinstance(network, NetworkModel):
        return network
    collapse = getattr(network, "as_network_model", None)
    if callable(collapse):
        return collapse()
    raise TypeError(
        "network must be a NetworkModel, a Topology or None, not "
        f"{type(network).__name__}"
    )


#: Bytes of one feature-map or weight value: float32.
BYTES_PER_VALUE = 4


def region_bytes(channels: int, region: Region) -> int:
    """Size of a feature-map region: ``c × h × w`` values (Eq. 7's φ)."""
    return channels * region.area * BYTES_PER_VALUE


def wifi_50mbps() -> NetworkModel:
    """The paper's testbed access point: 50 Mbps WiFi."""
    return NetworkModel.from_mbps(50.0)
