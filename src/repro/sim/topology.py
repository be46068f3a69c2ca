"""Network topologies: named links, builders and shortest-path routing.

The paper (and the pre-2.0 simulator) models one shared-bandwidth WLAN.
Real edge deployments are multi-hop: devices hang off heterogeneous
access links, traffic crosses switches, and link-level bandwidth
asymmetry — not just device heterogeneity — dominates placement quality
(Parthasarathy & Krishnamachari, arXiv:2210.12219).  A
:class:`Topology` is a set of named point-to-point
:class:`NetworkLink` objects with per-link bandwidth and propagation
latency; the event engine gives each link its own FIFO, so concurrent transfers contend exactly where their routes
overlap and nowhere else.

The degenerate case is :meth:`Topology.bus`: every pair of nodes
shares one link backed by a plain :class:`~repro.cost.comm.NetworkModel`
— that is the pre-2.0 simulator, bit for bit (uncontended folds
communication into stage service; ``contended=True`` is the old
``shared_medium=True`` single-token WLAN).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cost.comm import NetworkModel, wifi_50mbps

__all__ = ["NetworkLink", "Topology"]

#: Reference payload for routing weights: one VGG-ish feature tile.
_ROUTE_REF_BYTES = 1_000_000.0


@dataclass(frozen=True)
class NetworkLink:
    """A point-to-point link between two named nodes.

    ``transfer_time`` is latency plus serialisation time, a pure
    function of ``(self, nbytes)``: the event engine relies on it to
    compute each route's hop times once per plan instead of once per
    hop.
    """

    name: str
    a: str
    b: str
    bandwidth_bytes_per_s: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")

    @classmethod
    def from_mbps(
        cls, name: str, a: str, b: str, mbps: float, latency_s: float = 0.0
    ) -> "NetworkLink":
        return cls(name, a, b, mbps * 1e6 / 8.0, latency_s)

    @property
    def mbps(self) -> float:
        return self.bandwidth_bytes_per_s * 8.0 / 1e6

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of link {self.name!r}")

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to push ``nbytes`` across this link (one hop)."""
        return self.latency_s + max(0.0, float(nbytes)) / self.bandwidth_bytes_per_s


class Topology:
    """A routed network of :class:`NetworkLink` objects.

    Routing is shortest-path (Dijkstra) under the weight ``latency +
    ref_bytes / bandwidth``, cached per (src, dst) pair and
    deterministic (ties break on node name).  ``entry`` names the node
    where stage-0 inputs originate (a camera/gateway); ``None`` means
    inputs appear on the first stage's own devices.
    """

    def __init__(self, entry: Optional[str] = None, name: str = "topology") -> None:
        self.name = name
        self.entry = entry
        self._links: "List[NetworkLink]" = []
        self._adjacency: "Dict[str, List[NetworkLink]]" = {}
        self._route_cache: "Dict[Tuple[str, str], Tuple[NetworkLink, ...]]" = {}
        #: Degenerate shared-medium flags (see :meth:`bus`).
        self.is_bus = False
        self.contended = False
        self._bus_network: Optional[NetworkModel] = None

    # -- construction -------------------------------------------------

    def add_link(self, link: NetworkLink) -> None:
        if any(l.name == link.name for l in self._links):
            raise ValueError(f"duplicate link name {link.name!r}")
        self._links.append(link)
        self._adjacency.setdefault(link.a, []).append(link)
        self._adjacency.setdefault(link.b, []).append(link)
        self._route_cache.clear()

    # -- queries ------------------------------------------------------

    @property
    def links(self) -> "Tuple[NetworkLink, ...]":
        return tuple(self._links)

    @property
    def nodes(self) -> "Tuple[str, ...]":
        return tuple(sorted(self._adjacency))

    def __contains__(self, node: str) -> bool:
        return self.is_bus or node in self._adjacency

    def route(self, src: str, dst: str) -> "Tuple[NetworkLink, ...]":
        """The link sequence from ``src`` to ``dst`` (empty if equal)."""
        if src == dst:
            return ()
        if self.is_bus:
            return (self._links[0],)
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        for node in key:
            if node not in self._adjacency:
                raise ValueError(
                    f"node {node!r} is not on topology {self.name!r} "
                    f"(nodes: {', '.join(self.nodes)})"
                )
        dist: "Dict[str, float]" = {src: 0.0}
        prev: "Dict[str, Tuple[str, NetworkLink]]" = {}
        heap: "List[Tuple[float, str]]" = [(0.0, src)]
        seen = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in seen:
                continue
            seen.add(node)
            if node == dst:
                break
            for link in sorted(self._adjacency[node], key=lambda l: l.name):
                peer = link.other(node)
                weight = (
                    link.latency_s
                    + _ROUTE_REF_BYTES / link.bandwidth_bytes_per_s
                )
                nd = d + weight
                if nd < dist.get(peer, math.inf):
                    dist[peer] = nd
                    prev[peer] = (node, link)
                    heapq.heappush(heap, (nd, peer))
        if dst not in prev:
            raise ValueError(
                f"no route from {src!r} to {dst!r} on topology {self.name!r}"
            )
        hops: "List[NetworkLink]" = []
        node = dst
        while node != src:
            node, link = prev[node]
            hops.append(link)
        hops.reverse()
        route = tuple(hops)
        self._route_cache[key] = route
        return route

    def path_time(self, src: str, dst: str, nbytes: float) -> float:
        """Expected store-and-forward time for ``nbytes`` src → dst."""
        return sum(l.transfer_time(nbytes) for l in self.route(src, dst))

    def as_network_model(self) -> NetworkModel:
        """Collapse to a flat :class:`NetworkModel` for the planners.

        The planner's cost model (Eq. 7–8) only understands a single
        shared medium, so it sees the *bottleneck* bandwidth and the
        mean per-link latency — a coarse but monotone summary; the
        event engine then charges the real per-link, per-route times.
        """
        if self._bus_network is not None:
            return self._bus_network
        if not self._links:
            return wifi_50mbps()
        bandwidth = min(l.bandwidth_bytes_per_s for l in self._links)
        latency = sum(l.latency_s for l in self._links) / len(self._links)
        return NetworkModel(bandwidth, latency)

    def __repr__(self) -> str:
        kind = "bus" if self.is_bus else f"{len(self._links)} links"
        return f"Topology({self.name!r}, {kind}, {len(self.nodes)} nodes)"

    # -- builders -----------------------------------------------------

    @classmethod
    def bus(
        cls,
        network: Optional[NetworkModel] = None,
        contended: bool = False,
    ) -> "Topology":
        """The degenerate one-link topology: the pre-2.0 simulator.

        Every node implicitly sits on the single shared link.
        ``contended=False`` folds communication into stage service
        (the old default); ``contended=True`` serialises all stages'
        transfers over the one link (the old ``shared_medium=True``).
        Both are bit-compatible with the legacy event loop.
        """
        network = network or wifi_50mbps()
        topo = cls(name="wlan")
        topo.add_link(
            NetworkLink(
                "wlan",
                "*",
                "*",
                network.bandwidth_bytes_per_s,
                network.per_message_latency_s,
            )
        )
        topo.is_bus = True
        topo.contended = contended
        topo._bus_network = network
        return topo

    @classmethod
    def star(
        cls,
        devices: "Sequence[str]",
        hub: str = "hub",
        mbps: float = 50.0,
        latency_s: float = 0.0,
        entry: Optional[str] = None,
    ) -> "Topology":
        """One access point: every device gets a private uplink to
        ``hub``; device↔device traffic crosses two hops and contends
        only on the two uplinks involved (unlike the bus, where it
        contends with everyone)."""
        if not devices:
            raise ValueError("star topology needs at least one device")
        topo = cls(name="star", entry=None)
        for device in devices:
            topo.add_link(
                NetworkLink.from_mbps(
                    f"{device}<->{hub}", device, hub, mbps, latency_s
                )
            )
        topo.entry = entry if entry is not None else hub
        return topo

    @classmethod
    def mesh(
        cls,
        devices: "Sequence[str]",
        mbps: float = 50.0,
        latency_s: float = 0.0,
        entry: Optional[str] = None,
    ) -> "Topology":
        """Full mesh: a direct link between every device pair."""
        if len(devices) < 2:
            raise ValueError("mesh topology needs at least two devices")
        topo = cls(name="mesh", entry=entry)
        for i, a in enumerate(devices):
            for b in devices[i + 1:]:
                topo.add_link(
                    NetworkLink.from_mbps(
                        f"{a}<->{b}", a, b, mbps, latency_s
                    )
                )
        return topo

    @classmethod
    def fat_tree(
        cls,
        devices: "Sequence[str]",
        k: Optional[int] = None,
        mbps: float = 50.0,
        fabric_mbps: Optional[float] = None,
        latency_s: float = 0.0,
        entry: Optional[str] = None,
    ) -> "Topology":
        """A k-ary fat tree (k pods of k/2 edge + k/2 aggregation
        switches, (k/2)² cores) with the devices as hosts.

        ``k`` defaults to the smallest even arity whose ``k³/4`` host
        capacity fits the device list.  Fabric (edge↔agg↔core) links
        run at ``fabric_mbps`` (default 4× the host speed), so the
        tree has genuine oversubscription structure for the engine's
        per-link contention to bite on.
        """
        if not devices:
            raise ValueError("fat tree needs at least one device")
        if k is None:
            k = 2
            while k * k * k // 4 < len(devices):
                k += 2
        if k < 2 or k % 2:
            raise ValueError("fat-tree arity k must be even and >= 2")
        if k * k * k // 4 < len(devices):
            raise ValueError(
                f"k={k} fat tree hosts {k * k * k // 4} devices, "
                f"got {len(devices)}"
            )
        fabric = fabric_mbps if fabric_mbps is not None else mbps * 4.0
        half = k // 2
        topo = cls(name=f"fat-tree(k={k})")
        cores = [f"core{i}" for i in range(half * half)]
        for pod in range(k):
            aggs = [f"agg{pod}.{j}" for j in range(half)]
            edges = [f"edge{pod}.{j}" for j in range(half)]
            for j, agg in enumerate(aggs):
                for edge in edges:
                    topo.add_link(
                        NetworkLink.from_mbps(
                            f"{edge}<->{agg}", edge, agg, fabric,
                            latency_s,
                        )
                    )
                for c in range(half):
                    core = cores[j * half + c]
                    topo.add_link(
                        NetworkLink.from_mbps(
                            f"{agg}<->{core}", agg, core, fabric,
                            latency_s,
                        )
                    )
        for i, device in enumerate(devices):
            e = i // half  # `half` hosts per edge switch
            edge = f"edge{e // half}.{e % half}"
            topo.add_link(
                NetworkLink.from_mbps(
                    f"{device}<->{edge}", device, edge, mbps, latency_s
                )
            )
        topo.entry = entry if entry is not None else "core0"
        return topo
