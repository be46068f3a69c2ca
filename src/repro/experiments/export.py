"""Export experiment results as rows / CSV for external plotting.

Each experiment result dataclass flattens into a list of dict rows with
scalar values; ``write_csv`` serialises any such row list.  Keeps the
plotting toolchain (matplotlib, gnuplot, spreadsheets) out of the
library's dependencies.
"""

from __future__ import annotations

import csv
from typing import Any, Dict, List, Sequence

__all__ = ["rows_for", "write_csv"]


def _fig2_rows(result) -> "List[Dict[str, Any]]":
    return [
        {
            "model": result.model,
            "layer": l.name,
            "kind": l.kind,
            "computation_share": l.computation_share,
            "communication_share": l.communication_share,
        }
        for l in result.layers
    ]


def _fig4_rows(result) -> "List[Dict[str, Any]]":
    return [
        {
            "model": result.model,
            "n_devices": p.n_devices,
            "n_fused_units": p.n_fused_units,
            "per_device_gflops": p.per_device_gflops,
            "total_gflops": p.total_gflops,
            "single_device_gflops": p.single_device_gflops,
        }
        for p in result.points
    ]


def _capacity_rows(result) -> "List[Dict[str, Any]]":
    return [
        {
            "model": result.model,
            "scheme": p.scheme,
            "freq_mhz": p.freq_mhz,
            "n_devices": p.n_devices,
            "period_s": p.period_s,
            "latency_s": p.latency_s,
            "throughput_per_min": p.throughput_per_min,
        }
        for p in result.points
    ]


def _latency_rows(result) -> "List[Dict[str, Any]]":
    return [
        {
            "model": result.model,
            "scheme": p.scheme,
            "workload_fraction": p.workload_fraction,
            "arrival_rate": p.arrival_rate,
            "avg_latency_s": p.avg_latency_s,
            "p95_latency_s": p.p95_latency_s,
            "completed": p.completed,
        }
        for p in result.points
    ]


def _speedup_rows(result) -> "List[Dict[str, Any]]":
    return [
        {
            "model": p.model,
            "freq_mhz": p.freq_mhz,
            "n_devices": p.n_devices,
            "speedup": p.speedup,
        }
        for p in result.points
    ]


def _table1_rows(result) -> "List[Dict[str, Any]]":
    rows = []
    for table in result.tables:
        for d in table.devices:
            rows.append(
                {
                    "model": table.model,
                    "scheme": table.scheme,
                    "device": d.name,
                    "utilization": d.utilization,
                    "redundancy": d.redundancy_ratio,
                }
            )
    return rows


def _table2_rows(result) -> "List[Dict[str, Any]]":
    return [
        {
            "n_layers": r.n_layers,
            "n_devices": r.n_devices,
            "pico_seconds": r.pico_seconds,
            "bfs_seconds": r.bfs_seconds,
            "bfs_completed": r.bfs_completed,
            "period_gap": r.period_gap,
        }
        for r in result.rows
    ]


_EXPORTERS = {
    "Fig2Result": _fig2_rows,
    "Fig4Result": _fig4_rows,
    "CapacityResult": _capacity_rows,
    "LatencyResult": _latency_rows,
    "Fig12Result": _speedup_rows,
    "Table1Result": _table1_rows,
    "Table2Result": _table2_rows,
}


def rows_for(result) -> "List[Dict[str, Any]]":
    """Flatten an experiment result into scalar dict rows."""
    exporter = _EXPORTERS.get(type(result).__name__)
    if exporter is None:
        raise TypeError(
            f"no exporter for {type(result).__name__}; supported: "
            f"{sorted(_EXPORTERS)}"
        )
    return exporter(result)


def write_csv(rows: "Sequence[Dict[str, Any]]", path: str) -> None:
    """Write dict rows to a CSV file (header from the first row)."""
    if not rows:
        raise ValueError("no rows to write")
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
