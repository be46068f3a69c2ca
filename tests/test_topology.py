"""Tests for the 2.0 topology layer (links, routing, builders)."""

from __future__ import annotations

import pytest

from repro.cost.comm import NetworkModel, coerce_network, wifi_50mbps
from repro.sim import NetworkLink, Topology


def _topology(*links):
    topo = Topology()
    for link in links:
        topo.add_link(link)
    return topo


class TestNetworkLink:
    def test_mbps_roundtrip(self):
        link = NetworkLink.from_mbps("l", "a", "b", 50.0)
        assert link.mbps == pytest.approx(50.0)
        assert link.bandwidth_bytes_per_s == pytest.approx(50e6 / 8)

    def test_other_endpoint(self):
        link = NetworkLink("l", "a", "b", 1e6)
        assert link.other("a") == "b"
        assert link.other("b") == "a"

    def test_transfer_time_deterministic_expectation(self):
        link = NetworkLink("l", "a", "b", 1e6, latency_s=0.01)
        # latency + bytes/bw, the same float every call
        assert link.transfer_time(500_000) == 0.01 + 0.5
        assert link.transfer_time(500_000) == link.transfer_time(500_000)

    def test_transfer_time_zero_bytes_pays_latency(self):
        link = NetworkLink("l", "a", "b", 1e6, latency_s=0.02)
        assert link.transfer_time(0) == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkLink("l", "a", "b", 0.0)
        with pytest.raises(ValueError):
            NetworkLink("l", "a", "b", 1e6, latency_s=-1)


class TestTopologyRouting:
    def test_star_routes_via_hub(self):
        topo = Topology.star(["a", "b", "c"], hub="hub", mbps=50)
        route = topo.route("a", "b")
        assert len(route) == 2
        assert route[0].other("a") == "hub"
        assert route[1].other("hub") == "b"
        assert len(topo.route("hub", "c")) == 1

    def test_self_route_is_empty(self):
        topo = Topology.star(["a", "b"], mbps=50)
        assert topo.route("a", "a") == ()

    def test_mesh_is_single_hop(self):
        topo = Topology.mesh(["a", "b", "c"], mbps=50)
        for src in "abc":
            for dst in "abc":
                if src != dst:
                    assert len(topo.route(src, dst)) == 1

    def test_route_prefers_fast_path(self):
        # a--b direct but slow; a--r--b fast: Dijkstra picks two fast hops.
        topo = _topology(
            NetworkLink.from_mbps("slow", "a", "b", 1.0),
            NetworkLink.from_mbps("ar", "a", "r", 1000.0),
            NetworkLink.from_mbps("rb", "r", "b", 1000.0),
        )
        assert [l.name for l in topo.route("a", "b")] == ["ar", "rb"]

    def test_unknown_node_raises(self):
        topo = Topology.star(["a", "b"], mbps=50)
        with pytest.raises(ValueError):
            topo.route("a", "nope")

    def test_disconnected_raises(self):
        topo = _topology(
            NetworkLink("l1", "a", "b", 1e6),
            NetworkLink("l2", "c", "d", 1e6),
        )
        with pytest.raises(ValueError):
            topo.route("a", "c")

    def test_duplicate_link_name_rejected(self):
        topo = _topology(NetworkLink("l", "a", "b", 1e6))
        with pytest.raises(ValueError):
            topo.add_link(NetworkLink("l", "b", "c", 1e6))

    def test_add_link_invalidates_routes(self):
        topo = Topology.star(["a", "b"], mbps=50)
        assert len(topo.route("a", "b")) == 2
        topo.add_link(NetworkLink.from_mbps("direct", "a", "b", 1000.0))
        assert [l.name for l in topo.route("a", "b")] == ["direct"]

    def test_path_time_sums_links(self):
        topo = Topology.star(["a", "b"], mbps=8, latency_s=0.01)
        # two hops, each 0.01s latency + nbytes/1e6
        assert topo.path_time("a", "b", 1e6) == pytest.approx(2 * (0.01 + 1.0))


class TestBuilders:
    def test_fat_tree_connects_all_hosts(self):
        devices = [f"d{i}" for i in range(6)]
        topo = Topology.fat_tree(devices, mbps=50)
        assert topo.entry == "core0"
        for device in devices:
            assert device in topo
            assert len(topo.route(topo.entry, device)) >= 2

    def test_fat_tree_core_paths_between_pods(self):
        devices = [f"d{i}" for i in range(8)]
        topo = Topology.fat_tree(devices, k=4, mbps=50)
        # d0 and d7 sit in different pods: host-edge-agg-core-agg-edge-host.
        assert len(topo.route("d0", "d7")) == 6

    def test_bus_degenerate(self):
        net = wifi_50mbps()
        topo = Topology.bus(net)
        assert topo.is_bus and not topo.contended
        assert len(topo.links) == 1
        assert topo.as_network_model() == net

    def test_star_summary_is_bottleneck(self):
        topo = Topology.star(["a", "b"], mbps=50, latency_s=0.005)
        model = topo.as_network_model()
        assert isinstance(model, NetworkModel)
        assert model.mbps == pytest.approx(50.0)
        assert model.per_message_latency_s == pytest.approx(0.005)

    def test_coerce_network_collapses_topology(self):
        topo = Topology.star(["a", "b"], mbps=25)
        assert coerce_network(topo).mbps == pytest.approx(25.0)
        assert coerce_network(None) == wifi_50mbps()
        with pytest.raises(TypeError):
            coerce_network(42)
