"""Planner benchmark: reference scalar DP vs vectorized cost tables.

Times Algorithm 1 end-to-end (DP + ``Ts`` evaluation) in three
configurations over the paper's evaluation models and the Table II
toy-chain grid:

* ``reference`` — :func:`repro.testing.plan_homogeneous_reference`,
  the seed implementation whose every ``Ts`` miss re-walks the segment
  through the scalar cost model;
* ``cold`` — the vectorized planner with a freshly built
  :class:`~repro.cost.tables.SegmentTable` (table construction is part
  of the measured time: the first-plan cost for a new model);
* ``warm`` — the vectorized planner against a shared, already-populated
  table: the online re-planning cost, what the adaptive switcher pays
  when the workload shifts.

Protocol matches :mod:`repro.bench.engine`: the three configurations are
run *interleaved* (ref, cold, warm, ref, cold, warm, ...) and summarised
by the median, which cancels the slow drift of shared-host machines.

Run it via ``make bench-json`` or directly::

    python -m repro.bench.planner --out BENCH_planner.json

The gate: in every case the cold and the warm plan equal the reference
DP's (stages, period, latency).  ``--check BENCH_planner.json`` re-runs
the cases and fails if that gate does, or if a deterministic field of
the committed report — case, unit/device/stage counts, period — no
longer reproduces; timings are ignored.  ``make bench-check`` runs it on
the ``--quick`` subset.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bench import common
from repro.cluster.device import Cluster, heterogeneous_cluster, pi_cluster
from repro.core.dp_planner import plan_homogeneous
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import SegmentCostTable, SegmentTable
from repro.models.graph import Model
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.testing import plan_homogeneous_reference

__all__ = ["BENCH", "run"]

#: (model name, input_hw) zoo cases — the paper's evaluation models at
#: benchmark-friendly resolutions, planned on an 8-Pi cluster.
DEFAULT_MODELS: "Tuple[Tuple[str, int], ...]" = (
    ("vgg16", 64),
    ("resnet34", 64),
    ("inception_v3", 96),
)

#: (layers, devices) toy-chain cases — the Table II grid cells that the
#: heuristic planner must clear "in under a second".
DEFAULT_GRID: "Tuple[Tuple[int, int], ...]" = (
    (4, 4), (8, 4), (12, 4), (16, 4), (8, 6), (8, 8),
)


def _bench_case(
    label: str,
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions,
    repeats: int,
) -> "Tuple[Dict[str, object], bool]":
    """One result row, plus whether cold and warm planned what the
    reference DP did."""
    device = cluster.homogenized().devices[0]
    # The warm table is built (and fully populated by the first round)
    # outside the clock; cold runs rebuild everything inside it.
    warm_table = SegmentCostTable(
        model, device, network, options, segments=SegmentTable(model, options)
    )

    plans = {}

    def run_reference() -> None:
        plans["reference"] = plan_homogeneous_reference(
            model, cluster, network, options
        )

    def run_cold() -> None:
        table = SegmentCostTable(
            model, device, network, options,
            segments=SegmentTable(model, options),
        )
        plans["cold"] = plan_homogeneous(
            model, cluster, network, options, table=table
        )

    def run_warm() -> None:
        plans["warm"] = plan_homogeneous(
            model, cluster, network, options, table=warm_table
        )

    ref_s, cold_s, warm_s = common.interleaved_medians(
        [run_reference, run_cold, run_warm], repeats
    )
    reference = plans["reference"]
    print(
        f"{label:>22} ref {ref_s * 1e3:8.2f} ms  "
        f"cold {cold_s * 1e3:7.2f} ms ({ref_s / cold_s:5.1f}x)  "
        f"warm {warm_s * 1e3:7.2f} ms ({ref_s / warm_s:5.1f}x)"
    )
    plans_equal = all(
        (plans[key].stages, plans[key].period, plans[key].latency)
        == (reference.stages, reference.period, reference.latency)
        for key in ("cold", "warm")
    )
    return {
        "case": label,
        "n_units": model.n_units,
        "n_devices": len(cluster),
        "reference_s": ref_s,
        "vectorized_cold_s": cold_s,
        "vectorized_warm_s": warm_s,
        "speedup_cold": ref_s / cold_s,
        "speedup_warm": ref_s / warm_s,
        "period": reference.period,
        "n_stages": reference.n_stages,
    }, plans_equal


#: The ``--quick`` case subset (CI smoke run).
QUICK_CASES = {"models": DEFAULT_MODELS[:1], "grid": ((8, 4),)}


def run(quick: bool = False, seed: int = 0, repeats: int = 5, n_devices: int = 8):
    """Benchmark every case; returns ``(sections, gates)``.  The planners
    draw nothing, so ``seed`` changes nothing."""
    models, grid = DEFAULT_MODELS, DEFAULT_GRID
    if quick:
        models, grid = QUICK_CASES["models"], QUICK_CASES["grid"]
    network = NetworkModel.from_mbps(50.0)
    options = DEFAULT_OPTIONS
    cases = []
    for name, hw in models:
        model = get_model(name, input_hw=hw)
        cluster = pi_cluster(n_devices, 600.0)
        cases.append(
            _bench_case(
                f"{name}@{hw}x{n_devices}dev",
                model, cluster, network, options, repeats,
            )
        )
    for n_layers, n_dev in grid:
        model = toy_chain(n_conv=n_layers, n_pool=2, input_hw=64)
        # Same all-distinct-capacity cluster as the Table II experiment.
        cluster = heterogeneous_cluster(
            [600.0 + 75.0 * i for i in range(n_dev)]
        )
        cases.append(
            _bench_case(
                f"toy{n_layers}x{n_dev}dev",
                model, cluster, network, options, repeats,
            )
        )
    gates = {
        "vectorized_plans_equal_reference": all(equal for _, equal in cases)
    }
    sections = {
        "repeats": repeats,
        "protocol": "interleaved median over (reference, cold, warm) rounds",
        "baseline_note": (
            "reference = scalar per-query cost model (seed); cold = "
            "vectorized planner including table construction; warm = "
            "vectorized planner reusing a populated shared table (the "
            "online re-planning path)"
        ),
        "results": [row for row, _ in cases],
    }
    return sections, gates


BENCH = common.Bench(
    name="planner",
    run=run,
    deterministic=(common.Section("results", key=("case",)),),
    timings=(
        "reference_s", "vectorized_cold_s", "vectorized_warm_s",
        "speedup_cold", "speedup_warm",
    ),
    extras={"--repeats": dict(type=int, default=5)},
)

if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
