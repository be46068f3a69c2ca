"""Planner benchmark: reference scalar DP vs vectorized cost tables.

Times Algorithm 1 end-to-end (DP + ``Ts`` evaluation) in three
configurations over the paper's evaluation models and the Table II
toy-chain grid:

* ``reference`` — :func:`repro.core.dp_planner.plan_homogeneous_reference`,
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

``--check BENCH_planner.json`` re-runs the cases (every round still
asserts cold/warm plans equal the reference DP) and fails if a
deterministic field of the committed report — case, unit/device/stage
counts, period — no longer reproduces; timings are ignored.  ``make
bench-check`` runs it on the ``--quick`` subset.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.device import Cluster, heterogeneous_cluster, pi_cluster
from repro.core.dp_planner import (
    plan_homogeneous,
    plan_homogeneous_reference,
)
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import SegmentCostTable, SegmentTable
from repro.models.graph import Model
from repro.models.toy import toy_chain
from repro.models.zoo import get_model

__all__ = ["run_suite", "main"]

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


def _interleaved_medians(fns: "Sequence", repeats: int) -> "List[float]":
    """Median seconds per thunk, alternating calls each round."""
    samples: "List[List[float]]" = [[] for _ in fns]
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            samples[i].append(time.perf_counter() - t0)
    return [float(np.median(s)) for s in samples]


def _bench_case(
    label: str,
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions,
    repeats: int,
) -> "Dict[str, object]":
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

    ref_s, cold_s, warm_s = _interleaved_medians(
        [run_reference, run_cold, run_warm], repeats
    )
    reference = plans["reference"]
    assert reference is not None
    for key in ("cold", "warm"):
        plan = plans[key]
        assert plan is not None
        assert (plan.stages, plan.period, plan.latency) == (
            reference.stages,
            reference.period,
            reference.latency,
        ), f"{label}: {key} plan diverged from the reference DP"
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
    }


def run_suite(
    models: "Sequence[Tuple[str, int]]" = DEFAULT_MODELS,
    grid: "Sequence[Tuple[int, int]]" = DEFAULT_GRID,
    repeats: int = 5,
    n_devices: int = 8,
) -> "Dict[str, object]":
    """Benchmark every case; returns the JSON-ready report dict."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    network = NetworkModel.from_mbps(50.0)
    options = DEFAULT_OPTIONS
    results: "List[Dict[str, object]]" = []
    for name, hw in models:
        model = get_model(name, input_hw=hw)
        cluster = pi_cluster(n_devices, 600.0)
        results.append(
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
        results.append(
            _bench_case(
                f"toy{n_layers}x{n_dev}dev",
                model, cluster, network, options, repeats,
            )
        )
    return {
        "benchmark": "planner_cost_tables",
        "repeats": repeats,
        "protocol": "interleaved median over (reference, cold, warm) rounds",
        "baseline_note": (
            "reference = scalar per-query cost model (seed); cold = "
            "vectorized planner including table construction; warm = "
            "vectorized planner reusing a populated shared table (the "
            "online re-planning path)"
        ),
        "meta": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "results": results,
    }


#: The ``--quick`` case subset (CI smoke run).
QUICK_CASES = {"models": (("vgg16", 64),), "grid": ((8, 4),)}

#: Host-independent fields of a result row — what ``--check`` compares.
DETERMINISTIC_FIELDS = ("n_units", "n_devices", "n_stages", "period")


def check_report(path: str, quick: bool, repeats: int) -> "List[str]":
    """Re-run the committed report's cases and list any drifts."""
    with open(path) as fh:
        committed = json.load(fh)
    suite = run_suite(repeats=repeats, **(QUICK_CASES if quick else {}))
    fresh = {r["case"]: r for r in suite["results"]}
    errors = []
    for entry in committed["results"]:
        case = entry["case"]
        now = fresh.get(case)
        if now is None:
            if not quick:
                errors.append(f"{case}: missing from fresh run")
            continue
        for key in DETERMINISTIC_FIELDS:
            if entry[key] != now[key]:
                errors.append(
                    f"{case}: {key} committed {entry[key]!r} != fresh {now[key]!r}"
                )
    return errors


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_planner.json", help="output JSON path"
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small case subset (CI smoke run)",
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="re-run the cases of a committed report and fail if a "
        "deterministic field drifted (with --quick only the quick subset)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.check:
        errors = check_report(args.check, args.quick, args.repeats)
        for err in errors:
            print(f"DRIFT: {err}", file=sys.stderr)
        if not errors:
            print(f"{args.check}: committed plans reproduce")
        return 1 if errors else 0
    report = run_suite(repeats=args.repeats, **(QUICK_CASES if args.quick else {}))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for entry in report["results"]:
        print(
            f"{entry['case']:>22} ref {entry['reference_s'] * 1e3:8.2f} ms  "
            f"cold {entry['vectorized_cold_s'] * 1e3:7.2f} ms "
            f"({entry['speedup_cold']:5.1f}x)  "
            f"warm {entry['vectorized_warm_s'] * 1e3:7.2f} ms "
            f"({entry['speedup_warm']:5.1f}x)"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
