"""Analytic cost model: FLOPs, communication, stage and pipeline timing."""

from repro.cost.comm import NetworkModel, region_bytes, wifi_50mbps
from repro.cost.flops import (
    CostOptions,
    LayerProfile,
    full_unit_flops,
    head_flops,
    layer_flops,
    layer_profiles,
    model_flops,
    segment_flops,
    segment_owned_flops,
    unit_flops,
)
from repro.cost.profiler import CalibrationResult, calibrate_host, fit_alpha
from repro.cost.stage_cost import (
    DeviceCost,
    StageCost,
    single_device_time,
    stage_time,
)
from repro.cost.tables import (
    SegmentCostTable,
    SegmentTable,
    get_cost_table,
    get_segment_table,
)

__all__ = [
    "CalibrationResult",
    "CostOptions",
    "DeviceCost",
    "LayerProfile",
    "NetworkModel",
    "SegmentCostTable",
    "SegmentTable",
    "StageCost",
    "get_cost_table",
    "get_segment_table",
    "calibrate_host",
    "fit_alpha",
    "full_unit_flops",
    "head_flops",
    "layer_flops",
    "layer_profiles",
    "model_flops",
    "region_bytes",
    "segment_flops",
    "segment_owned_flops",
    "single_device_time",
    "stage_time",
    "unit_flops",
    "wifi_50mbps",
]
