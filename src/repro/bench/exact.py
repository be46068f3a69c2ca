"""Optimality-gap harness: greedy (Algorithm 1+2) vs exact planner.

For every (model, cluster mix) cell the harness runs the PICO pipeline
planner (the DP over the homogenised cluster, greedily adapted) and the
branch-and-bound exact heterogeneous search
(:func:`repro.core.exact.plan_exact`), and reports the greedy
optimality gap ``greedy_period / exact_period − 1``.

Two analytic gates are asserted on every run (they are the
``tests/test_exact_planner.py`` regressions, re-checked on the
committed numbers):

* on **homogeneous** mixes the exact period equals the Algorithm 1 DP
  period — the canonical realization makes the two search spaces
  coincide, so any difference is a planner bug;
* on every mix the exact period is ``<=`` the greedy period — the
  greedy plan seeds the search as its incumbent.

All quantities are analytic cost-model evaluations (no wall-clock
noise), so the committed ``BENCH_exact.json`` is reproducible
bit-for-bit; ``--check`` re-runs the committed cases and fails if any
period or gap drifts.  Run via ``make bench-exact`` or directly::

    python -m repro.bench.exact --out BENCH_exact.json
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.device import heterogeneous_cluster
from repro.core.dp_planner import plan_homogeneous
from repro.core.exact import plan_exact, realize_exact
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import DEFAULT_OPTIONS
from repro.models.graph import Model
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.schemes.pico import PicoScheme

__all__ = ["run_suite", "main"]

#: Cluster mixes (MHz).  Heterogeneous mixes use pairwise-distinct
#: capacities so Algorithm 2's strongest-first stage realization is the
#: canonical one and "exact <= greedy" is an identity on plans, not an
#: approximation.
DEFAULT_MIXES: "Tuple[Tuple[str, Tuple[float, ...]], ...]" = (
    ("hom4", (1000.0, 1000.0, 1000.0, 1000.0)),
    ("het3", (1500.0, 900.0, 600.0)),
    ("het4", (1200.0, 1000.0, 800.0, 600.0)),
    ("het5", (1500.0, 1200.0, 900.0, 700.0, 500.0)),
)

#: The paper's 8-Pi testbed at two frequency mixes (repeated
#: capacities: three and four classes), run on the real models only —
#: does the greedy gap survive at the scale the paper evaluates?
TESTBED_MIXES: "Tuple[Tuple[str, Tuple[float, ...]], ...]" = (
    ("het8", (1200.0, 1200.0, 800.0, 800.0, 600.0, 600.0, 600.0, 600.0)),
    ("pi8", (1200.0, 1200.0, 1000.0, 1000.0, 800.0, 800.0, 600.0, 600.0)),
)
TESTBED_MODELS = ("vgg16@64", "resnet34@64")

#: The CI smoke subset: a tiny model on 2–3 devices.
QUICK_MIXES: "Tuple[Tuple[str, Tuple[float, ...]], ...]" = (
    ("hom2", (1000.0, 1000.0)),
    ("het3", (1500.0, 900.0, 600.0)),
)


def _zoo(quick: bool) -> "Tuple[Tuple[str, Model], ...]":
    toy = toy_chain(4, 1, input_hw=24, in_channels=3, base_channels=8)
    if quick:
        return (("toy", toy),)
    return (
        ("toy", toy),
        ("vggish", toy_chain(6, 2, input_hw=32, in_channels=3, base_channels=8)),
        ("vgg16@64", get_model("vgg16", input_hw=64)),
        ("resnet34@64", get_model("resnet34", input_hw=64)),
    )


def _bench_cell(
    model_name: str,
    model: Model,
    mix_name: str,
    freqs: "Tuple[float, ...]",
    network: NetworkModel,
) -> "Dict[str, object]":
    options = DEFAULT_OPTIONS
    cluster = heterogeneous_cluster(freqs)
    homogeneous = len(set(freqs)) == 1

    greedy = plan_cost(
        model, PicoScheme().plan(model, cluster, network, options), network
    )
    t0 = time.perf_counter()
    exact = plan_exact(model, cluster, network, options)
    search_s = time.perf_counter() - t0
    realized = plan_cost(model, realize_exact(model, exact), network)

    # Gates (mirrored by tests/test_exact_planner.py).
    assert realized.period == exact.period, (
        f"{model_name}/{mix_name}: realized plan diverged from search"
    )
    assert exact.period <= exact.incumbent_period, (
        f"{model_name}/{mix_name}: exact worse than its own incumbent"
    )
    if homogeneous:
        homo = plan_homogeneous(model, cluster, network, options)
        assert homo is not None and exact.period == homo.period, (
            f"{model_name}/{mix_name}: exact != DP on a homogeneous cluster"
        )

    gap = exact.gap
    return {
        "case": f"{model_name}/{mix_name}",
        "model": model_name,
        "mix": mix_name,
        "freqs_mhz": list(freqs),
        "homogeneous": homogeneous,
        "n_units": model.n_units,
        "n_devices": len(cluster),
        "greedy_period_s": greedy.period,
        "exact_period_s": exact.period,
        "exact_latency_s": exact.latency,
        "gap_pct": gap * 100.0,
        "improved": exact.improved,
        "n_stages_greedy": len(greedy.stage_costs),
        "n_stages_exact": exact.n_stages,
        "nodes": exact.nodes,
        "pruned": exact.pruned,
        "search_s": search_s,
    }


def run_suite(quick: bool = False) -> "Dict[str, object]":
    """Run every (model, mix) cell; returns the JSON-ready report."""
    network = NetworkModel.from_mbps(50.0)
    mixes = QUICK_MIXES if quick else DEFAULT_MIXES
    results = [
        _bench_cell(name, model, *mix, network)
        for name, model in _zoo(quick)
        for mix in mixes + (TESTBED_MIXES if name in TESTBED_MODELS else ())
    ]
    return {
        "benchmark": "exact_planner_gap",
        "quick": quick,
        "network_mbps": 50.0,
        "baseline_note": (
            "greedy = Algorithm 1 DP on the homogenised cluster + "
            "Algorithm 2 strongest-first adaptation; exact = "
            "branch-and-bound over heterogeneous stage x per-class "
            "device-count space with the greedy plan as incumbent; "
            "gap_pct = incumbent/exact - 1 (analytic periods, "
            "deterministic; the incumbent is the greedy plan under the "
            "canonical realization, equal to greedy_period_s whenever "
            "a stage's capacities are pairwise distinct)"
        ),
        "meta": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "results": results,
    }


def check_report(path: str, quick: bool = False) -> "List[str]":
    """Re-run the committed report's cells and list any drifts."""
    with open(path) as fh:
        committed = json.load(fh)
    fresh = {r["case"]: r for r in run_suite(quick=quick)["results"]}
    errors = []
    for entry in committed["results"]:
        case = entry["case"]
        now = fresh.get(case)
        if now is None:
            if not quick:
                errors.append(f"{case}: missing from fresh run")
            continue
        for key in ("greedy_period_s", "exact_period_s", "gap_pct"):
            if not math.isclose(entry[key], now[key], rel_tol=1e-9, abs_tol=1e-12):
                errors.append(
                    f"{case}: {key} committed {entry[key]!r} != fresh {now[key]!r}"
                )
        if entry["homogeneous"] and entry["gap_pct"] != 0.0:
            errors.append(f"{case}: committed homogeneous gap is nonzero")
    return errors


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_exact.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny model on 2-3 devices (CI smoke run)",
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="re-run the cells of a committed report and fail on drift "
        "(with --quick only the quick subset of cases is compared)",
    )
    args = parser.parse_args(argv)
    if args.check:
        errors = check_report(args.check, quick=args.quick)
        if errors:
            for err in errors:
                print(f"DRIFT: {err}", file=sys.stderr)
            return 1
        print(f"{args.check}: committed gaps reproduce")
        return 0
    report = run_suite(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for entry in report["results"]:
        print(
            f"{entry['case']:>18} greedy {entry['greedy_period_s'] * 1e3:8.3f} ms  "
            f"exact {entry['exact_period_s'] * 1e3:8.3f} ms  "
            f"gap {entry['gap_pct']:6.2f}%  "
            f"nodes {entry['nodes']:6d}  {entry['search_s'] * 1e3:7.1f} ms"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
