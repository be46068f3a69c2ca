"""Cluster substrate: devices, leases and utilisation metrics."""

from repro.cluster.device import (
    Cluster,
    Device,
    heterogeneous_cluster,
    pi_cluster,
    raspberry_pi,
)
from repro.cluster.metrics import DeviceReport, UtilizationTable, utilization_table

__all__ = [
    "Cluster",
    "Device",
    "DeviceReport",
    "UtilizationTable",
    "heterogeneous_cluster",
    "pi_cluster",
    "raspberry_pi",
    "utilization_table",
]
