"""The paper's evaluation on the bench spine: Figs. 2, 4, 8–13, Tables I–II
and the extensions EXPERIMENTS.md reports, in one re-checkable report.

Every section is a list of rows keyed by what produced them (model, CPU
frequency, device count, scheme, load, ...), and a row's values depend
on its key alone: the harnesses in :mod:`repro.experiments` plan with
the analytic cost model and simulate seeded workloads in virtual time,
so everything except the fields in ``TIMINGS`` (Table II's planner
seconds and the host measurements of the runtime validation) is
deterministic and ``--check`` compares it exactly.  ``--quick`` runs a
keyed subset of the same rows, which a quick check holds against the
committed full report leaf by leaf; gates are evaluated on whatever rows
a run has (a gate whose rows a quick run lacks is left out).

Each qualitative claim of the paper is a named gate, and
:func:`tables` renders EXPERIMENTS.md's markdown tables from a report,
with the paper's own numbers (the ``paper_*`` fields) beside ours::

    python -m repro.bench.paper                  # BENCH_paper.json + the tables
    python -m repro.bench.paper --check BENCH_paper.json
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, Dict, List, Tuple

from repro.bench import common
from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.dp_planner import plan_homogeneous
from repro.core.pareto import plan_pareto
from repro.core.plan import PipelinePlan, StagePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, segment_flops
from repro.cost.stage_cost import branch_stage_time
from repro.cost.tables import get_cost_table
from repro.experiments import (
    fig02_layer_profile,
    fig04_fused_redundancy,
    fig08_capacity,
    fig10_latency,
    fig12_speedup,
    fig13_pico_vs_bfs,
    runtime_validation,
    table1_utilization,
    table2_optimization_cost,
)
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.partition.branches import assign_paths_lpt, is_branchable, path_flops
from repro.partition.fused import segment_input_region
from repro.partition.grid import grid_partition, grid_shape_for
from repro.partition.regions import Region
from repro.partition.strips import equal_partition, strip_regions, weighted_partition
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.pico import PicoScheme
from repro.sim import Topology, simulate_scenario
from repro.testing.planner import homogeneous_stage_time
from repro.workload.arrivals import saturation_arrivals

__all__ = ["BENCH", "run", "tables"]

NET = NetworkModel.from_mbps(50.0)

#: The paper's own numbers.  Conv share of the FLOPs (Fig. 2), PICO
#: speedup with 8 devices (Fig. 12), average utilisation (Fig. 13) and
#: Table I's (average utilisation, average redundancy).
PAPER_CONV_SHARE = {"vgg16": 0.9919, "yolov2": 0.9959}
PAPER_SPEEDUP_AT_8 = {"resnet34": 5.0, "inception_v3": 4.0}
PAPER_FIG13_UTILIZATION = {"PICO": 0.80, "BFS": 0.95}
PAPER_TABLE1 = {
    ("vgg16", "LW"): (0.372, 0.021), ("vgg16", "EFL"): (0.685, 0.188),
    ("vgg16", "OFL"): (0.695, 0.110), ("vgg16", "PICO"): (0.772, 0.055),
    ("yolov2", "LW"): (0.360, 0.008), ("yolov2", "EFL"): (0.685, 0.365),
    ("yolov2", "OFL"): (0.754, 0.121), ("yolov2", "PICO"): (0.949, 0.076),
}

#: Figs. 8/9: (model, CPU MHz, device counts) per run.
CAPACITY = (
    ("vgg16", (600.0, 800.0, 1000.0), (1, 2, 4, 8)),
    ("yolov2", (600.0, 1000.0), (1, 4, 8)),
)
#: Figs. 10/11: Poisson load as a fraction of EFL capacity, 600 s horizon.
LOADS = {"vgg16": (0.4, 0.6, 0.8, 1.0, 1.2, 1.5), "yolov2": (0.4, 0.8, 1.0, 1.2, 1.5)}
TIMINGS = (
    "pico_seconds", "bfs_seconds",
    "host_gflops", "predicted_period_s", "measured_period_s", "sim_period_s", "ratio",
)

Rows = List[Dict[str, Any]]


# -- sections: one per figure or table, then one per extension -----------------
def _fig02(quick: bool, seed: int) -> Rows:
    return [
        {
            "model": name,
            "conv_share": result.conv_computation_share,
            "paper_conv_share": PAPER_CONV_SHARE[name],
            "layers": [
                {"name": l.name, "kind": l.kind, "computation_share": l.computation_share,
                 "communication_share": l.communication_share}
                for l in result.layers
            ],
        }
        for name in ("vgg16", "yolov2")
        for result in [fig02_layer_profile.run(name)]
    ]


def _fig04(quick: bool, seed: int) -> Rows:
    result = fig04_fused_redundancy.run(device_counts=(1, 2, 4, 8), fused_counts=(4, 7, 10, 13))
    return [asdict(p) for p in result.points]


def _capacity(quick: bool, seed: int) -> Rows:
    runs = (("vgg16", (600.0,), (2, 4, 8)),) if quick else CAPACITY
    return [
        {"model": model, **asdict(p)}
        for model, freqs, devices in runs
        for p in fig08_capacity.run(model, freqs, devices).points
    ]


def _latency(quick: bool, seed: int) -> Rows:
    loads = {"vgg16": (0.4, 1.2)} if quick else LOADS
    return [
        {"model": model, **asdict(p)}
        for model, fractions in loads.items()
        for p in fig10_latency.run(model, fractions, horizon_s=600.0, seed=seed).points
    ]


def _fig12(quick: bool, seed: int) -> Rows:
    models, freqs, devices = (
        (("resnet34",), (600.0,), (2, 8)) if quick
        else (("resnet34", "inception_v3"), (600.0, 1000.0), (2, 4, 8))
    )
    return [
        {**asdict(p), "speedup": p.speedup,
         "paper_speedup": PAPER_SPEEDUP_AT_8[p.model] if p.n_devices == 8 else None}
        for p in fig12_speedup.run(models, freqs, devices).points
    ]


def _fig13(quick: bool, seed: int) -> Rows:
    result = fig13_pico_vs_bfs.run()
    return [
        {"planner": table.scheme, "period_s": period, "proven_optimal": proven,
         "avg_utilization": table.average_utilization,
         "paper_utilization": PAPER_FIG13_UTILIZATION[table.scheme],
         "avg_redundancy": table.average_redundancy,
         "device_utilization": [d.utilization for d in table.devices]}
        for table, period, proven in (
            (result.pico, result.pico_period_s, None),
            (result.bfs, result.bfs_period_s, result.bfs_optimal_proven),
        )
    ]


def _table1(quick: bool, seed: int) -> Rows:
    result = table1_utilization.run(("vgg16",) if quick else ("vgg16", "yolov2"))
    return [
        {"model": t.model, "scheme": t.scheme,
         "avg_utilization": t.average_utilization, "avg_redundancy": t.average_redundancy,
         "paper_utilization": PAPER_TABLE1[t.model, t.scheme][0],
         "paper_redundancy": PAPER_TABLE1[t.model, t.scheme][1],
         "devices": [{"name": d.name, "utilization": d.utilization,
                      "redundancy": d.redundancy_ratio} for d in t.devices]}
        for t in result.tables
    ]


def _table2(quick: bool, seed: int) -> Rows:
    grid = ((4, 4), (8, 4)) if quick else table2_optimization_cost.PAPER_GRID
    return [asdict(r) for r in table2_optimization_cost.run(grid, bfs_budget_s=45.0).rows]


def _bandwidth(quick: bool, seed: int) -> Rows:
    """PICO vs EFL across WLAN bandwidths (the abstract's "various
    network settings")."""
    model, cluster = get_model("vgg16"), pi_cluster(8, 600)
    rows = []
    for mbps in (10.0, 50.0) if quick else (10.0, 25.0, 50.0, 100.0, 300.0):
        net = NetworkModel.from_mbps(mbps)
        pico_plan = PicoScheme().plan(model, cluster, net)
        pico = plan_cost(model, pico_plan, net).period
        efl = plan_cost(model, EarlyFusedScheme().plan(model, cluster, net), net).period
        rows.append({"mbps": mbps, "pico_period_s": pico, "efl_period_s": efl,
                     "gain": efl / pico, "pico_stages": pico_plan.n_stages})
    return rows


def _contention(quick: bool, seed: int) -> Rows:
    """PICO's VGG16 period under Eq. 10's contention-free transfers, the
    analytic shared-medium bound and event-level simulation with one
    network token."""
    model, cluster = get_model("vgg16"), pi_cluster(8, 600)
    rows = []
    for mbps in (10.0, 50.0, 300.0):
        net = NetworkModel.from_mbps(mbps)
        plan = PicoScheme().plan(model, cluster, net)
        sim = simulate_scenario(
            model, plan, topology=Topology.bus(net, contended=True), network=net,
            arrivals=saturation_arrivals(40),
        ).steady_state(5)
        rows.append({
            "mbps": mbps, "eq10_period_s": plan_cost(model, plan, net).period,
            "shared_bound_s": plan_cost(model, plan, net, CostOptions(shared_medium=True)).period,
            "event_period_s": 1.0 / sim.throughput,
        })
    return rows


def _partitioning(quick: bool, seed: int) -> Rows:
    """Equal strips vs a DeepThings-style 2-D grid over a 9-unit VGG16
    prefix: total FLOPs and the largest input tile any device holds."""
    model, n_fused = get_model("vgg16"), 9
    _, h, w = model.out_shape(n_fused - 1)
    rows = []
    for n in (2, 8):
        for layout, regions in (
            ("strips", strip_regions(h, w, equal_partition(h, n))),
            ("grid", grid_partition(h, w, *grid_shape_for(n))),
        ):
            regions = [r for r in regions if not r.empty]
            rows.append({
                "layout": layout, "n_devices": n,
                "flops": sum(segment_flops(model, 0, n_fused, r) for r in regions),
                "peak_tile_bytes": max(
                    segment_input_region(model, 0, n_fused, r).area * model.input_shape[0] * 4
                    for r in regions
                ),
            })
    return rows


def _planners(quick: bool, seed: int) -> Rows:
    """Pareto-frontier DP vs Algorithm 1 under shrinking latency budgets,
    then Algorithm 2's capacity-weighted strips vs equal strips on one
    3x-skewed stage."""
    model, cluster = toy_chain(10, 2, input_hw=64, base_channels=32), pi_cluster(6, 800)
    free = plan_pareto(model, cluster, NET)
    # Feasible budgets lie between the best single-stage latency and the
    # unconstrained optimum's latency.
    ts = get_cost_table(model, cluster.homogenized().devices[0], NET)
    lat_min = min(ts(0, model.n_units, p) for p in range(1, len(cluster) + 1))
    rows = []
    for budget in (1.0, 0.75, 0.5, 0.25, 0.05):
        t_lim = lat_min + budget * (free.latency - lat_min)
        alg1 = plan_homogeneous(model, cluster, NET, t_lim=t_lim)
        pareto = plan_pareto(model, cluster, NET, t_lim=t_lim)
        rows.append({"case": f"budget {budget:.0%}",
                     "alg1_period_s": alg1.period if alg1 else None,
                     "pareto_period_s": pareto.period if pareto else None})
    model, cluster = toy_chain(6, 1, input_hw=64, base_channels=32), heterogeneous_cluster(
        [1800, 1200, 600, 600])
    _, h, w = model.final_shape
    weighted = [Region.from_bounds(iv.start, iv.end, 0, w)
                for iv in weighted_partition(h, [d.capacity for d in cluster])]
    equal = strip_regions(h, w, equal_partition(h, len(cluster)))
    stage = lambda regions: plan_cost(model, PipelinePlan(  # noqa: E731
        model.name, (StagePlan(0, model.n_units, tuple(zip(cluster, regions))),)), NET).period
    rows.append({"case": "het4 stage", "weighted_stage_s": stage(weighted),
                 "equal_stage_s": stage(equal)})
    return rows


def _branch_parallel(quick: bool, seed: int) -> Rows:
    """Intra-block (branch) layout vs spatial strips per InceptionV3 block
    at 8 devices, then the whole pipeline with and without it."""
    model, cluster = get_model("inception_v3"), pi_cluster(8, 600)
    dev = cluster.devices[0]
    rows = []
    for idx, unit in enumerate(model.units):
        if is_branchable(unit):
            groups = assign_paths_lpt(path_flops(model, idx), [dev.capacity] * 8)
            rows.append({
                "case": unit.name, "map_hw": model.out_shape(idx)[1],
                "strips_s": homogeneous_stage_time(model, idx, idx + 1, 8, dev, NET).total,
                "branch_s": branch_stage_time(
                    model, idx, tuple((dev, g) for g in groups), NET).total,
            })
    period = lambda branch: plan_cost(  # noqa: E731
        model, PicoScheme(branch_parallel=branch).plan(model, cluster, NET), NET).period
    rows.append({"case": "pipeline (8 devices)", "map_hw": None,
                 "strips_s": period(False), "branch_s": period(True)})
    return rows


def _runtime_validation(quick: bool, seed: int) -> Rows:
    if quick:  # worker processes and a host calibration: the full run only
        return []
    r = runtime_validation.run(n_workers=2, n_tasks=10, seed=seed)
    return [{"n_workers": 2, "n_tasks": 10, **asdict(r), "ratio": r.ratio}]


#: Section name -> (the fields keying its rows, the function computing them).
SECTIONS: "Dict[str, Tuple[Tuple[str, ...], Callable[[bool, int], Rows]]]" = {
    "fig02": (("model",), _fig02),
    "fig04": (("n_fused_units", "n_devices"), _fig04),
    "capacity": (("model", "freq_mhz", "n_devices", "scheme"), _capacity),
    "latency": (("model", "workload_fraction", "scheme"), _latency),
    "fig12": (("model", "freq_mhz", "n_devices"), _fig12),
    "fig13": (("planner",), _fig13),
    "table1": (("model", "scheme"), _table1),
    "table2": (("n_layers", "n_devices"), _table2),
    "bandwidth": (("mbps",), _bandwidth),
    "contention": (("mbps",), _contention),
    "partitioning": (("layout", "n_devices"), _partitioning),
    "planners": (("case",), _planners),
    "branch_parallel": (("case",), _branch_parallel),
    "runtime_validation": (("n_workers", "n_tasks"), _runtime_validation),
}


# -- gates: each of the paper's qualitative claims, by name ------------------
def _claims(at: "Callable[..., Dict[str, Any]]", rows: "Callable[[str], Rows]"):
    """``name -> check``; ``at(section, *key)`` is one row (KeyError when
    the run lacks it), ``rows(section)`` all of a section's rows."""
    period = lambda m, f, n, s: at("capacity", m, f, n, s)["period_s"]  # noqa: E731
    thpt = lambda m, f, n, s: at("capacity", m, f, n, s)["throughput_per_min"]  # noqa: E731
    lat = lambda m, load, s: at("latency", m, load, s)["avg_latency_s"]  # noqa: E731
    speedup = lambda m, f, n: at("fig12", m, f, n)["speedup"]  # noqa: E731
    fused = lambda n_fused, n: at("fig04", n_fused, n)  # noqa: E731
    redundancy = lambda p: p["total_gflops"] / p["single_device_gflops"]  # noqa: E731
    t1 = lambda m, s: at("table1", m, s)  # noqa: E731
    pico13, bfs13 = at("fig13", "PICO"), at("fig13", "BFS")  # Fig. 13 always runs whole
    cells = {(r["model"], r["freq_mhz"], r["n_devices"]) for r in rows("capacity")}
    t1_models = {r["model"] for r in rows("table1")}
    blocks = [r for r in rows("branch_parallel") if r["map_hw"] is not None]
    bandwidth = sorted(rows("bandwidth"), key=lambda r: r["mbps"])
    contention = sorted(rows("contention"), key=lambda r: r["mbps"])
    penalty = lambda r: r["event_period_s"] / r["eq10_period_s"]  # noqa: E731
    by_layout = lambda layout, n: at("partitioning", layout, n)  # noqa: E731
    rv = lambda: at("runtime_validation", 2, 10)  # noqa: E731
    return {
        # Fig. 2
        "conv_share_gt_99pct": lambda: all(r["conv_share"] > 0.99 for r in rows("fig02")),
        "comm_share_varies_3x": lambda: all(
            max(c) > 3 * min(x for x in c if x > 0)
            for c in ([l["communication_share"] for l in r["layers"]] for r in rows("fig02"))),
        "fig02_shares_sum_to_one": lambda: all(
            abs(sum(l[k] for l in r["layers"]) - 1.0) < 1e-9
            for r in rows("fig02") for k in ("computation_share", "communication_share")),
        # Fig. 4
        "per_device_flops_shrink": lambda: all(
            fused(f, 8)["per_device_gflops"] < fused(f, 1)["per_device_gflops"]
            for f in (4, 7, 10, 13)),
        "total_flops_grow_with_devices": lambda: all(
            fused(f, a)["total_gflops"] < fused(f, b)["total_gflops"]
            for f in (4, 7, 10, 13) for a, b in ((1, 2), (2, 4), (4, 8))),
        "redundancy_grows_with_depth": lambda: all(
            redundancy(fused(a, 8)) < redundancy(fused(b, 8))
            for a, b in ((4, 7), (7, 10), (10, 13))),
        # Figs. 8/9
        "pico_lowest_period": lambda: all(
            period(*c, "PICO") <= period(*c, "OFL") <= period(*c, "EFL")
            for c in cells if c[2] > 1),
        "pico_period_scales_2_to_8": lambda: all(
            period("vgg16", f, 8, "PICO") < period("vgg16", f, 2, "PICO")
            for f in {c[1] for c in cells if c[0] == "vgg16"}),
        "pico_gain_over_efl_in_band": lambda: (
            1.5 < thpt("vgg16", 600.0, 8, "PICO") / thpt("vgg16", 600.0, 8, "EFL") < 8.0),
        "pico_throughput_gt_efl_at_4": lambda: (
            thpt("vgg16", 600.0, 4, "PICO") > thpt("vgg16", 600.0, 4, "EFL")),
        "lw_flat_in_devices": lambda: (
            period("yolov2", 1000.0, 8, "LW") > 0.5 * period("yolov2", 1000.0, 1, "LW")),
        "pico_scales_where_lw_does_not": lambda: (
            period("yolov2", 1000.0, 8, "PICO") < 0.5 * period("yolov2", 1000.0, 1, "PICO")),
        # Figs. 10/11
        "latency_reduction_gt_1p7_at_150pct": lambda: all(
            lat(m, 1.5, "EFL") / min(lat(m, 1.5, "PICO"), lat(m, 1.5, "APICO")) > 1.7
            for m in LOADS),
        "efl_latency_explodes_pico_flat": lambda: all(
            lat(m, 1.5, "PICO") / lat(m, 0.4, "PICO") < 3.0
            and lat(m, 1.5, "EFL") / lat(m, 0.4, "EFL") > 4.0 for m in LOADS),
        "efl_explodes_by_120pct": lambda: (
            lat("vgg16", 1.2, "EFL") / lat("vgg16", 0.4, "EFL") > 2.0
            and lat("vgg16", 1.2, "PICO") / lat("vgg16", 0.4, "PICO") < 2.0
            and lat("vgg16", 1.2, "EFL") > 2.5 * lat("vgg16", 1.2, "PICO")),
        "apico_within_2x_best_at_120pct": lambda: lat("vgg16", 1.2, "APICO") <= 2.0 * min(
            lat("vgg16", 1.2, s) for s in ("EFL", "OFL", "PICO")),
        "ofl_beats_pico_at_40pct": lambda: lat("vgg16", 0.4, "OFL") < lat("vgg16", 0.4, "PICO"),
        "apico_tracks_ofl_at_40pct": lambda: (
            lat("vgg16", 0.4, "APICO") <= 1.05 * lat("vgg16", 0.4, "PICO")),
        "apico_never_collapses": lambda: (
            lat("vgg16", 1.5, "APICO") <= lat("vgg16", 1.5, "EFL") / 1.7),
        "pico_apico_below_efl_at_100pct": lambda: (
            max(lat("yolov2", 1.0, "PICO"), lat("yolov2", 1.0, "APICO"))
            < lat("yolov2", 1.0, "EFL")),
        "apico_usage_reported": lambda: all(
            r["plan_usage"] for r in rows("latency") if r["scheme"] == "APICO"),
        # Fig. 12
        "resnet34_speedup_band": lambda: 3.0 < speedup("resnet34", 600.0, 8) < 8.0,
        "inception_speedup_band": lambda: 2.0 < speedup("inception_v3", 600.0, 8) < 7.0,
        "resnet_beats_inception_at_1ghz": lambda: (
            speedup("resnet34", 1000.0, 8) > speedup("inception_v3", 1000.0, 8)),
        "speedup_grows_with_devices": lambda: (
            speedup("resnet34", 600.0, 8) > speedup("resnet34", 600.0, 2)),
        "low_freq_speedup_at_least_high": lambda: (
            speedup("resnet34", 600.0, 8) >= speedup("resnet34", 1000.0, 8) - 0.25),
        # Fig. 13
        "bfs_optimal_proven": lambda: bfs13["proven_optimal"],
        "bfs_period_le_pico": lambda: bfs13["period_s"] <= pico13["period_s"],
        "pico_within_1p5x_bfs": lambda: pico13["period_s"] <= 1.5 * bfs13["period_s"],
        "pico_utilization_gt_40pct": lambda: pico13["avg_utilization"] > 0.4,
        "bfs_utilization_ge_pico_minus_15pts": lambda: (
            bfs13["avg_utilization"] >= pico13["avg_utilization"] - 0.15),
        "fig13_redundancy_lt_15pct": lambda: max(
            pico13["avg_redundancy"], bfs13["avg_redundancy"]) < 0.15,
        # Table I
        "lw_min_redundancy": lambda: all(
            t1(m, "LW")["avg_redundancy"]
            <= min(t1(m, s)["avg_redundancy"] for s in ("EFL", "OFL", "PICO"))
            for m in t1_models),
        "lw_worst_utilization": lambda: all(
            t1(m, "LW")["avg_utilization"]
            <= min(t1(m, s)["avg_utilization"] for s in ("EFL", "OFL"))
            and t1(m, "LW")["avg_utilization"] < t1(m, "PICO")["avg_utilization"]
            for m in t1_models),
        "pico_top_utilization_table1": lambda: all(
            t1(m, "PICO")["avg_utilization"]
            >= max(t1(m, s)["avg_utilization"] for s in ("LW", "EFL", "OFL"))
            for m in t1_models),
        "pico_redundancy_below_fused": lambda: all(
            t1(m, "PICO")["avg_redundancy"]
            < min(t1(m, s)["avg_redundancy"] for s in ("EFL", "OFL")) for m in t1_models),
        "fused_redundancy_gt_2pct": lambda: all(
            t1(m, s)["avg_redundancy"] > 0.02 for m in t1_models for s in ("EFL", "OFL")),
        # Table II
        "pico_plans_under_1s": lambda: all(r["pico_seconds"] < 1.0 for r in rows("table2")),
        "bfs_nodes_grow_with_layers": lambda: (
            at("table2", 16, 4)["bfs_nodes"] > at("table2", 4, 4)["bfs_nodes"]),
        "bfs_nodes_grow_with_devices": lambda: (
            at("table2", 8, 6)["bfs_nodes"] > at("table2", 8, 4)["bfs_nodes"]),
        "pico_near_optimal": lambda: all(
            r["period_gap"] >= -0.02 for r in rows("table2") if r["bfs_completed"]),
        # Extensions
        "bandwidth_gain_in_band": lambda: all(1.5 < r["gain"] < 8.0 for r in bandwidth),
        "pico_period_monotone_in_bandwidth": lambda: all(
            a["pico_period_s"] >= b["pico_period_s"] for a, b in zip(bandwidth, bandwidth[1:])),
        "shared_bound_sandwiches_event_level": lambda: all(
            r["shared_bound_s"] >= r["eq10_period_s"] - 1e-9
            and r["event_period_s"] >= 0.98 * r["shared_bound_s"]
            and r["event_period_s"] <= 2.0 * max(r["shared_bound_s"], r["eq10_period_s"])
            for r in contention),
        "contention_penalty_shrinks_with_bandwidth": lambda: (
            penalty(contention[0]) >= penalty(contention[-1]) - 0.05),
        "grid_le_strips_at_8": lambda: all(
            by_layout("grid", 8)[k] <= by_layout("strips", 8)[k]
            for k in ("flops", "peak_tile_bytes")),
        "grid_equals_strips_at_2": lambda: all(
            by_layout("grid", 2)[k] == by_layout("strips", 2)[k]
            for k in ("flops", "peak_tile_bytes")),
        "pareto_never_worse_than_alg1": lambda: all(
            (r["pareto_period_s"] or float("inf"))
            <= (r["alg1_period_s"] or float("inf")) + 1e-12
            for r in rows("planners") if r["case"].startswith("budget")),
        "weighted_strips_beat_equal": lambda: (
            at("planners", "het4 stage")["weighted_stage_s"]
            < at("planners", "het4 stage")["equal_stage_s"]),
        "branch_wins_17x17_blocks": lambda: sum(
            r["branch_s"] < r["strips_s"] for r in blocks
            if r["map_hw"] == 17 and "6a" not in r["case"]) >= 3,
        "branch_wins_3_blocks": lambda: sum(r["branch_s"] < r["strips_s"] for r in blocks) >= 3,
        "branch_parallel_never_worse": lambda: (
            at("branch_parallel", "pipeline (8 devices)")["branch_s"]
            <= at("branch_parallel", "pipeline (8 devices)")["strips_s"] + 1e-12),
        "distributed_outputs_exact": lambda: rv()["max_output_error"] < 1e-3,
        "sim_outputs_exact": lambda: rv()["sim_output_error"] == 0.0,
        "period_prediction_within_factor": lambda: 0.2 < rv()["ratio"] < 25.0,
    }


def _gates(sections: "Dict[str, Rows]", quick: bool) -> "Dict[str, bool]":
    index = {
        name: {tuple(row[k] for k in SECTIONS[name][0]): row for row in rows}
        for name, rows in sections.items()
    }
    at = lambda section, *key: index[section][key]  # noqa: E731
    gates: "Dict[str, bool]" = {}
    for name, check in _claims(at, lambda section: sections[section]).items():
        try:
            gates[name] = bool(check())
        except KeyError:  # a --quick run lacks the rows this claim reads
            if not quick:
                raise
    return gates


def run(quick: bool = False, seed: int = 0):
    """Every section, then its gates; returns ``(sections, gates)``."""
    sections = {name: compute(quick, seed) for name, (_, compute) in SECTIONS.items()}
    print("\n\n".join(tables(sections)))
    return sections, _gates(sections, quick)


BENCH = common.Bench(
    name="paper",
    run=run,
    deterministic=tuple(common.Section(name, key=key) for name, (key, _) in SECTIONS.items()),
    timings=TIMINGS,
)


# -- EXPERIMENTS.md's tables ---------------------------------------------------
def _md(header: "List[str]", body: "List[List[Any]]") -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return "\n".join(lines + ["| " + " | ".join(map(str, row)) + " |" for row in body])


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f} %"


def tables(report: "Dict[str, Any]") -> "List[str]":
    """EXPERIMENTS.md's markdown tables, in document order, rendered from
    a report (or a run's sections); rows the report lacks are absent."""
    r = {name: report.get(name, []) for name in SECTIONS}
    pivot = lambda section, key: {  # noqa: E731
        tuple(row[k] for k in key): {} for row in r[section]}
    out = [_md(
        ["model", "conv share (paper)", "conv share (ours)", "comm share max/min"],
        [[row["model"], f"{100 * row['paper_conv_share']:.2f} %",
          f"{100 * row['conv_share']:.2f} %",
          f"{max(c) / min(x for x in c if x > 0):.0f}×"]
         for row in r["fig02"]
         for c in [[l["communication_share"] for l in row["layers"]]]],
    )]
    fig04 = pivot("fig04", ("n_devices",))
    for row in r["fig04"]:
        fig04[row["n_devices"],][row["n_fused_units"]] = (
            f"{row['total_gflops']:.2f} GF "
            f"(+{100 * (row['total_gflops'] / row['single_device_gflops'] - 1):.1f} %)")
    fused = sorted({row["n_fused_units"] for row in r["fig04"]})
    out.append(_md(["devices"] + [f"fused={f} total" for f in fused],
                   [[n] + [cols[f] for f in fused] for (n,), cols in fig04.items()]))
    cap = pivot("capacity", ("model", "freq_mhz", "n_devices"))
    for row in r["capacity"]:
        cap[row["model"], row["freq_mhz"], row["n_devices"]][row["scheme"]] = row
    out.append(_md(
        ["model", "freq", "devices", "LW", "EFL", "OFL", "PICO", "PICO tasks/min",
         "PICO gain vs EFL"],
        [[m, f"{f:.0f} MHz", n]
         + [f"{s[k]['period_s']:.1f} s" for k in ("LW", "EFL", "OFL", "PICO")]
         + [f"{s['PICO']['throughput_per_min']:.1f}",
            f"{s['EFL']['period_s'] / s['PICO']['period_s']:.1f}×"]
         for (m, f, n), s in cap.items()],
    ))
    lat = pivot("latency", ("model", "workload_fraction"))
    for row in r["latency"]:
        lat[row["model"], row["workload_fraction"]][row["scheme"]] = row
    out.append(_md(
        ["model", "load", "arrivals/min", "EFL", "OFL", "PICO", "APICO", "APICO plans"],
        [[m, f"{100 * load:.0f} %", f"{60 * s['EFL']['arrival_rate']:.1f}"]
         + [f"{s[k]['avg_latency_s']:.1f} s" for k in ("EFL", "OFL", "PICO", "APICO")]
         + [", ".join(f"{p} {c}" for p, c in s["APICO"]["plan_usage"])]
         for (m, load), s in lat.items()],
    ))
    out.append(_md(
        ["model", "freq", "devices", "speedup", "paper"],
        [[row["model"], f"{row['freq_mhz']:.0f} MHz", row["n_devices"], f"{row['speedup']:.2f}×",
          f"≈{row['paper_speedup']:.0f}×" if row["paper_speedup"] else ""]
         for row in r["fig12"]],
    ))
    out.append(_md(
        ["planner", "avg util (paper)", "avg util (ours)", "per-device util", "avg redu",
         "period"],
        [[row["planner"], f"≈{100 * row['paper_utilization']:.0f} %",
          _pct(row["avg_utilization"]),
          "–".join(f"{100 * f(row['device_utilization']):.0f}" for f in (min, max)) + " %",
          _pct(row["avg_redundancy"]),
          f"{1e3 * row['period_s']:.1f} ms"
          + (" (proven optimal)" if row["proven_optimal"] else "")]
         for row in r["fig13"]],
    ))
    out.append(_md(
        ["model", "scheme", "avg util (paper)", "avg util (ours)", "avg redu (paper)",
         "avg redu (ours)"],
        [[row["model"], row["scheme"], _pct(row["paper_utilization"]),
          _pct(row["avg_utilization"]), _pct(row["paper_redundancy"]),
          _pct(row["avg_redundancy"])] for row in r["table1"]],
    ))
    out.append(_md(
        ["(layers, devices)", "PICO", "BFS", "BFS nodes", "period gap"],
        [[f"({row['n_layers']}, {row['n_devices']})", f"{row['pico_seconds']:.3f} s",
          f"{row['bfs_seconds']:.2f} s" + ("" if row["bfs_completed"] else " (budget)"),
          row["bfs_nodes"], f"{100 * row['period_gap']:+.1f} %"] for row in r["table2"]],
    ))
    out.append(_md(
        ["Mbps", "PICO period", "EFL period", "gain", "PICO stages"],
        [[f"{row['mbps']:.0f}", f"{row['pico_period_s']:.3f} s", f"{row['efl_period_s']:.3f} s",
          f"{row['gain']:.2f}×", row["pico_stages"]] for row in r["bandwidth"]],
    ))
    out.append(_md(
        ["Mbps", "Eq. 10 period", "shared-medium bound", "event-level", "over Eq. 10"],
        [[f"{row['mbps']:.0f}", f"{row['eq10_period_s']:.3f} s", f"{row['shared_bound_s']:.3f} s",
          f"{row['event_period_s']:.3f} s",
          f"+{100 * (row['event_period_s'] / row['eq10_period_s'] - 1):.0f} %"]
         for row in r["contention"]],
    ))
    out.append(_md(
        ["layout", "devices", "total FLOPs", "peak input tile"],
        [[row["layout"], row["n_devices"], f"{row['flops'] / 1e9:.2f} GF",
          f"{row['peak_tile_bytes'] / 1e6:.2f} MB"] for row in r["partitioning"]],
    ))
    out.append(_md(
        ["case", "Alg. 1", "Pareto DP", "weighted strips", "equal strips"],
        [[row["case"]] + [
            f"{row[k]:.4f} s" if row.get(k) is not None else ""
            for k in ("alg1_period_s", "pareto_period_s", "weighted_stage_s", "equal_stage_s")]
         for row in r["planners"]],
    ))
    out.append(_md(
        ["block", "map", "strips", "branch", "winner"],
        [[row["case"], f"{row['map_hw']}×{row['map_hw']}" if row["map_hw"] else "",
          f"{row['strips_s']:.3f} s", f"{row['branch_s']:.3f} s",
          "tie" if row["branch_s"] == row["strips_s"]
          else "branch" if row["branch_s"] < row["strips_s"] else "strips"]
         for row in r["branch_parallel"]],
    ))
    out.append(_md(
        ["workers", "frames", "host GFLOP/s", "predicted period", "measured period", "ratio",
         "max output error", "sim output error"],
        [[row["n_workers"], row["n_tasks"], f"{row['host_gflops']:.1f}",
          f"{1e3 * row['predicted_period_s']:.1f} ms", f"{1e3 * row['measured_period_s']:.1f} ms",
          f"{row['ratio']:.1f}×", f"{row['max_output_error']:.1e}",
          f"{row['sim_output_error']:.1e}"] for row in r["runtime_validation"]],
    ))
    return out


if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
