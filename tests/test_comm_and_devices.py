"""Tests for the network model and device/cluster descriptions."""

from __future__ import annotations

import pytest

from repro.cluster.device import (
    Cluster,
    Device,
    heterogeneous_cluster,
    pi_cluster,
    raspberry_pi,
)
from repro.cost.comm import NetworkModel, region_bytes, wifi_50mbps
from repro.partition.regions import Region


class TestNetworkModel:
    def test_from_mbps(self):
        net = NetworkModel.from_mbps(50.0)
        assert net.bandwidth_bytes_per_s == pytest.approx(6.25e6)
        assert net.mbps == pytest.approx(50.0)

    def test_transfer_time(self):
        net = NetworkModel.from_mbps(8.0)  # 1 MB/s
        assert net.transfer_time(2_000_000) == pytest.approx(2.0)

    def test_zero_bytes_free(self):
        assert wifi_50mbps().transfer_time(0) == 0.0

    def test_latency_added_per_message(self):
        net = NetworkModel.from_mbps(8.0, per_message_latency_s=0.01)
        assert net.transfer_time(1_000_000) == pytest.approx(1.01)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(0.0)

    def test_invalid_latency_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(1.0, per_message_latency_s=-1.0)


class TestRegionBytes:
    def test_float32(self):
        assert region_bytes(16, Region.full(10, 10)) == 16 * 100 * 4

    def test_custom_width(self):
        assert region_bytes(2, Region.from_bounds(0, 3, 0, 5)) == 2 * 3 * 5 * 4


class TestDevice:
    def test_compute_time_eq5(self):
        device = Device("d", capacity=100.0, alpha=2.0)
        assert device.compute_time(500.0) == pytest.approx(10.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Device("d", capacity=0.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Device("d", capacity=1.0, alpha=0.0)

    def test_raspberry_pi_scales_with_frequency(self):
        slow = raspberry_pi("a", 600)
        fast = raspberry_pi("b", 1200)
        assert fast.capacity == pytest.approx(2 * slow.capacity)


class TestCluster:
    def test_average_and_total(self):
        cluster = heterogeneous_cluster([1200, 800, 600, 600])
        assert cluster.total_capacity == pytest.approx(
            sum(d.capacity for d in cluster)
        )
        assert cluster.average_capacity == pytest.approx(cluster.total_capacity / 4)

    def test_homogenized_eq12(self):
        cluster = heterogeneous_cluster([1200, 600])
        homo = cluster.homogenized()
        assert len(homo) == 2
        assert all(
            d.capacity == pytest.approx(cluster.average_capacity) for d in homo
        )

    def test_fastest(self):
        cluster = heterogeneous_cluster([600, 1200, 800])
        assert cluster.fastest.capacity == raspberry_pi("x", 1200).capacity

    def test_sorted_by_capacity(self):
        cluster = heterogeneous_cluster([600, 1200, 800])
        caps = [d.capacity for d in cluster.sorted_by_capacity()]
        assert caps == sorted(caps, reverse=True)

    def test_duplicate_names_rejected(self):
        d = Device("same", 1.0)
        with pytest.raises(ValueError):
            Cluster((d, d))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster(())

    def test_pi_cluster_names_unique(self):
        cluster = pi_cluster(8, 600)
        assert len({d.name for d in cluster}) == 8
