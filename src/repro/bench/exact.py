"""Optimality-gap harness: greedy (Algorithm 1+2) vs exact planner.

For every (model, cluster mix) cell the harness runs the PICO pipeline
planner (the DP over the homogenised cluster, greedily adapted) and the
branch-and-bound exact heterogeneous search
(:func:`repro.core.exact.plan_exact`), and reports the greedy
optimality gap ``greedy_period / exact_period − 1``.

Three analytic gates hold over every cell (they are the
``tests/test_exact_planner.py`` regressions, re-checked on the
committed cells):

* on **homogeneous** mixes the exact period equals the Algorithm 1 DP
  period — the canonical realization makes the two search spaces
  coincide, so any difference is a planner bug;
* on every mix the exact period is ``<=`` its incumbent's — the greedy
  plan seeds the search;
* the realized plan costs exactly what the search said it would.

All quantities but ``search_s`` are analytic cost-model evaluations (no
wall-clock noise), so the committed ``BENCH_exact.json`` is reproducible
bit-for-bit; ``--check`` re-runs the committed cases and fails if any
period, gap or search statistic drifts.  Run via ``make bench-json`` or
directly::

    python -m repro.bench.exact --out BENCH_exact.json
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from repro.bench import common
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

__all__ = ["BENCH", "run"]

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
) -> "Tuple[Dict[str, object], Dict[str, bool]]":
    """One result row, plus the cell's verdict on each gate."""
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

    # Mirrored by tests/test_exact_planner.py.
    verdicts = {
        "realized_equals_search": realized.period == exact.period,
        "exact_le_incumbent": exact.period <= exact.incumbent_period,
        "homogeneous_equals_dp": not homogeneous or (
            exact.period
            == plan_homogeneous(model, cluster, network, options).period
        ),
    }

    gap = exact.gap
    print(
        f"{model_name + '/' + mix_name:>18} greedy {greedy.period * 1e3:8.3f} ms  "
        f"exact {exact.period * 1e3:8.3f} ms  gap {gap * 100.0:6.2f}%  "
        f"nodes {exact.nodes:6d}  {search_s * 1e3:7.1f} ms"
    )
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
    }, verdicts


def run(quick: bool = False, seed: int = 0):
    """Run every (model, mix) cell; returns ``(sections, gates)``.  The
    cells are analytic, so ``seed`` changes nothing."""
    network = NetworkModel.from_mbps(50.0)
    mixes = QUICK_MIXES if quick else DEFAULT_MIXES
    cells = [
        _bench_cell(name, model, *mix, network)
        for name, model in _zoo(quick)
        for mix in mixes + (TESTBED_MIXES if name in TESTBED_MODELS else ())
    ]
    sections = {
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
        "results": [row for row, _ in cells],
    }
    gates = {
        gate: all(verdicts[gate] for _, verdicts in cells)
        for gate in cells[0][1]
    }
    return sections, gates


BENCH = common.Bench(
    name="exact",
    run=run,
    deterministic=(common.Section("results", key=("case",)),),
    timings=("search_s",),
)

if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
