"""Command-line interface.

Subcommands::

    python -m repro models                       # list the zoo
    python -m repro describe vgg16               # architecture summary
    python -m repro plan vgg16 --devices 8 --freq 600 [--save plan.json]
    python -m repro compare yolov2 --devices 8 --freq 600
    python -m repro sim vgg16 --topology star --arrivals flash-crowd
    python -m repro timeline vgg16 --devices 8
    python -m repro trace vgg16 --devices 4 --frames 2 --backend both
    python -m repro serve vgg16 --hw 64 --load 0.7 --frames 200
    python -m repro fleet --tenant cam:vgg16:2.0:5.0 --tenant iot:resnet18:6.0:1.5
    python -m repro gap resnet34 --freqs 1500,900,600

Frequencies are per-device MHz; ``--freqs`` takes a comma list for a
heterogeneous cluster and overrides ``--devices/--freq``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.adaptive.switcher import build_apico_switcher
from repro.cluster.device import Cluster, heterogeneous_cluster, pi_cluster
from repro.core.plan import plan_cost
from repro.core.serialize import dump_plan
from repro.cost.comm import NetworkModel
from repro.models.zoo import available_models, get_model
from repro.report import render_plan, render_timeline
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.layer_wise import LayerWiseScheme
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme

__all__ = ["main", "build_parser"]


def _cluster_from_args(args: argparse.Namespace) -> Cluster:
    if args.freqs:
        freqs = [float(f) for f in args.freqs.split(",")]
        return heterogeneous_cluster(freqs)
    return pi_cluster(args.devices, args.freq)


def _setup_from_args(args: argparse.Namespace):
    """``(model, cluster, network)`` of one invocation: the zoo model
    (at ``--hw`` when the command has that flag and it is set), the
    cluster flags, the flat WLAN."""
    hw = getattr(args, "hw", 0)
    model = get_model(args.model, input_hw=hw) if hw else get_model(args.model)
    return model, _cluster_from_args(args), NetworkModel.from_mbps(args.mbps)


def _add_planner_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--planner", choices=["greedy", "exact"], default="greedy",
        help="pipeline planner: greedy = Algorithm 1+2 (default), exact "
             "= branch-and-bound heterogeneous search (pico scheme; "
             "up to 255 device allocations per stage, e.g. eight "
             "distinct devices or the 8-Pi testbed mixes)",
    )


def _scheme_from_args(args: argparse.Namespace):
    """The scheme instance for ``--scheme`` honouring ``--planner``."""
    from repro.schemes import get_scheme

    if getattr(args, "planner", "greedy") == "exact":
        if args.scheme.strip().lower() != "pico":
            raise SystemExit(
                "--planner exact replaces the PICO pipeline planner; "
                "it does not apply to --scheme " + args.scheme
            )
        from repro.core.exact import ExactScheme

        return ExactScheme()
    return get_scheme(args.scheme)


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--devices", type=int, default=8, help="device count")
    parser.add_argument("--freq", type=float, default=600.0, help="CPU MHz")
    parser.add_argument(
        "--freqs", type=str, default="",
        help="comma list of per-device MHz (heterogeneous cluster)",
    )
    parser.add_argument("--mbps", type=float, default=50.0, help="WLAN bandwidth")


def _add_scheme_arg(
    parser: argparse.ArgumentParser, what: str = "scheme name from the registry"
) -> None:
    parser.add_argument("--scheme", type=str, default="pico",
                        help=what + " (pico, lw, efl, ofl, iop)")


def _add_hw_arg(
    parser: argparse.ArgumentParser,
    help: str = "override input resolution (0 = model default)",
) -> None:
    parser.add_argument("--hw", type=int, default=0, help=help)


def _add_seed_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PICO pipelined edge inference (ICDCS'21)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list available models")

    p = sub.add_parser("describe", help="print a model's architecture")
    p.add_argument("model")

    p = sub.add_parser("plan", help="plan a pipeline")
    p.add_argument("model")
    _add_cluster_args(p)
    _add_scheme_arg(p)
    p.add_argument("--t-lim", type=float, default=0.0,
                   help="pipeline latency bound in seconds (0 = none, "
                        "pico only)")
    p.add_argument("--save", type=str, default="", help="write plan JSON here")
    p.add_argument("--memory", action="store_true",
                   help="print per-device peak memory")

    p = sub.add_parser("compare", help="compare all four schemes")
    p.add_argument("model")
    _add_cluster_args(p)

    p = sub.add_parser(
        "sim",
        help="scenario simulator: multi-hop topologies, arrival "
             "processes, device churn",
    )
    p.add_argument("model")
    _add_cluster_args(p)
    _add_scheme_arg(p)
    _add_planner_arg(p)
    p.add_argument(
        "--topology", choices=["one-link", "star", "mesh", "fat-tree"],
        default="one-link",
        help="network shape; one-link is the classic shared WLAN",
    )
    p.add_argument("--contended", action="store_true",
                   help="one-link only: serialise every stage's transfer "
                        "on the shared medium (802.11-style token)")
    p.add_argument("--latency-ms", type=float, default=0.0,
                   help="per-link latency for multi-hop topologies")
    p.add_argument("--arrivals", type=str, default="poisson",
                   help="arrival process from the workload registry "
                        "(poisson, uniform, saturation, day-night, "
                        "diurnal, flash-crowd, trace-replay)")
    p.add_argument("--rate", type=float, default=0.0,
                   help="base arrival rate in tasks/s "
                        "(0 = --load of the plan's 1/period)")
    p.add_argument("--load", type=float, default=0.7,
                   help="base rate as a fraction of the plan's capacity")
    p.add_argument("--peak", type=float, default=0.0,
                   help="peak rate for diurnal/flash-crowd/day-night "
                        "(0 = 4x the base rate)")
    p.add_argument("--horizon", type=float, default=60.0, help="seconds")
    p.add_argument("--tasks", type=int, default=0,
                   help="count bound for poisson/saturation/trace-replay "
                        "(0 = horizon-bound; saturation defaults to 40)")
    p.add_argument("--trace", type=str, default="",
                   help="submit-time file for --arrivals trace-replay "
                        "(one float per line, # comments)")
    p.add_argument(
        "--churn", action="append", default=[],
        metavar="DEVICE:TIME[:REJOIN]",
        help="DEVICE leaves at TIME seconds and, with :REJOIN, comes "
             "back REJOIN seconds later; each change re-plans the "
             "survivors (repeatable)",
    )
    p.add_argument("--capacity", type=int, default=0,
                   help="admission queue bound (0 = unbounded)")
    _add_seed_arg(p)
    p.add_argument("--stats", action="store_true",
                   help="constant-memory counters instead of per-task "
                        "records (the million-request mode)")

    p = sub.add_parser("timeline", help="draw the pipeline Gantt chart")
    p.add_argument("model")
    _add_cluster_args(p)
    p.add_argument("--tasks", type=int, default=6)

    p = sub.add_parser(
        "trace", help="run frames through the runtime core and print traces"
    )
    p.add_argument("model")
    _add_cluster_args(p)
    p.add_argument("--frames", type=int, default=2, help="frames to run")
    p.add_argument(
        "--backend",
        choices=["inproc", "sim", "shm", "both", "all"],
        default="both",
        help="transport backend (both = inproc+sim, all = inproc+sim+shm; "
        "multi-backend runs diff canonical traces)",
    )
    _add_hw_arg(p)
    _add_seed_arg(p)
    _add_scheme_arg(p)
    p.add_argument(
        "--crash", action="append", default=[], metavar="DEVICE:FRAME",
        help="inject a crash: kill DEVICE from frame FRAME on "
             "(repeatable); recovery events land in the printed trace",
    )

    p = sub.add_parser(
        "serve", help="serve a frame stream through the pipelined runtime"
    )
    p.add_argument("model")
    _add_cluster_args(p)
    _add_scheme_arg(p)
    _add_planner_arg(p)
    _add_hw_arg(p)
    p.add_argument(
        "--backend", choices=["sim", "inproc"], default="sim",
        help="sim = virtual clock (default), inproc = real threaded run",
    )
    p.add_argument("--rate", type=float, default=0.0,
                   help="Poisson arrival rate in frames/s (0 = use --load)")
    p.add_argument("--load", type=float, default=0.7,
                   help="arrival rate as a fraction of the plan's 1/period")
    p.add_argument("--horizon", type=float, default=0.0,
                   help="generate Poisson arrivals over this many seconds "
                        "(0 = exactly --frames arrivals)")
    p.add_argument("--frames", type=int, default=64, help="frame count")
    p.add_argument("--capacity", type=int, default=8,
                   help="admission queue bound (frames in system)")
    p.add_argument("--policy", choices=["shed", "block"], default="shed",
                   help="full-queue behaviour: shed or backpressure")
    p.add_argument("--max-batch", type=int, default=1,
                   help="cross-frame micro-batching: coalesce up to this "
                        "many queued frames into one batched pass per stage")
    p.add_argument("--batch-timeout", type=float, default=0.0,
                   help="seconds a forming batch holds the entrance open "
                        "for stragglers (0 = take only what is queued)")
    _add_seed_arg(p)
    p.add_argument("--adaptive", action="store_true",
                   help="APICO switching fed by the measured queue depth "
                        "(the sim and inproc backends)")
    p.add_argument("--no-compute", action="store_true",
                   help="sim backend: skip kernels, timing only")

    p = sub.add_parser(
        "fleet",
        help="co-schedule several tenants' pipelines on one shared pool",
    )
    _add_cluster_args(p)
    p.add_argument(
        "--tenant", action="append", default=[],
        metavar="NAME:MODEL:RATE:SLO[:PRIORITY]",
        help="a tenant request class (repeatable): model from the zoo, "
             "Poisson rate in frames/s, latency SLO in seconds, optional "
             "placement priority (higher places first)",
    )
    _add_scheme_arg(p, "scheme used for every tenant's pipeline")
    _add_planner_arg(p)
    _add_hw_arg(p, "override input resolution for every model "
                   "(0 = model defaults)")
    p.add_argument("--frames", type=int, default=32,
                   help="frames per tenant")
    _add_seed_arg(p)
    p.add_argument("--compute", action="store_true",
                   help="run real kernels in the virtual clock "
                        "(default: timing only)")

    p = sub.add_parser(
        "gap",
        help="greedy vs exact planner: the optimality gap on one cell "
             "(any cluster up to 255 device allocations per stage)",
    )
    p.add_argument("model")
    _add_cluster_args(p)
    p.add_argument("--period-bound", type=float, default=0.0,
                   help="prune the search against this period in seconds "
                        "(0 = none; the incumbent greedy plan is always "
                        "returned when everything prunes)")
    return parser


def _cmd_models(args: argparse.Namespace) -> int:
    for name in available_models():
        print(name)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    print(get_model(args.model).describe())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.schemes import get_scheme

    model, cluster, network = _setup_from_args(args)
    kwargs = {}
    if args.t_lim > 0 and args.scheme.lower() == "pico":
        kwargs["t_lim"] = args.t_lim
    scheme = get_scheme(args.scheme, **kwargs)
    plan = scheme.plan(model, cluster, network)
    print(render_plan(model, plan, network))
    if args.memory:
        from repro.cost.memory import plan_memory

        print(f"\n{'device':>16s} {'weights':>10s} {'activations':>12s} {'total':>10s}")
        for entry in plan_memory(model, plan):
            print(
                f"{entry.device_name:>16s} "
                f"{entry.weight_bytes / 1e6:>9.2f}M "
                f"{entry.activation_bytes / 1e6:>11.2f}M "
                f"{entry.total_bytes / 1e6:>9.2f}M"
            )
    if args.save:
        dump_plan(plan, args.save)
        print(f"\nplan written to {args.save}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    model, cluster, network = _setup_from_args(args)
    print(
        f"{'scheme':>7s} {'stages':>7s} {'period':>9s} {'latency':>9s} "
        f"{'thpt/min':>9s}"
    )
    for scheme in (
        LayerWiseScheme(), EarlyFusedScheme(), OptimalFusedScheme(), PicoScheme()
    ):
        plan = scheme.plan(model, cluster, network)
        cost = plan_cost(model, plan, network)
        print(
            f"{scheme.name:>7s} {plan.n_stages:>7d} {cost.period:>8.2f}s "
            f"{cost.latency:>8.2f}s {60 * cost.throughput:>9.1f}"
        )
    return 0


def _parse_churn(specs: "Sequence[str]"):
    """``DEVICE:TIME[:REJOIN]`` specs → ChurnEvent tuple."""
    from repro.sim import ChurnEvent

    events = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(
                f"--churn expects DEVICE:TIME[:REJOIN], got {spec!r}"
            )
        try:
            leave_at = float(parts[1])
            events.append(ChurnEvent(leave_at, parts[0], "leave"))
            if len(parts) == 3:
                events.append(
                    ChurnEvent(leave_at + float(parts[2]), parts[0], "join")
                )
        except ValueError as exc:
            raise SystemExit(f"--churn {spec!r}: {exc}") from None
    return tuple(sorted(events, key=lambda e: (e.time, e.device)))


def _build_arrival_process(args: argparse.Namespace, rate: float):
    """Map the ``sim`` flags onto a registry arrival process."""
    from repro.workload import available_arrivals, get_arrivals

    name = args.arrivals.strip().lower().replace("_", "-").replace(" ", "-")
    peak = args.peak if args.peak > 0 else 4.0 * rate
    horizon = args.horizon
    if name == "poisson":
        if args.tasks > 0:
            return get_arrivals(name, rate=rate, n_tasks=args.tasks)
        return get_arrivals(name, rate=rate, horizon_s=horizon)
    if name == "uniform":
        return get_arrivals(name, rate=rate, horizon_s=horizon)
    if name == "saturation":
        return get_arrivals(name, n_tasks=args.tasks or 40)
    if name == "day-night":
        return get_arrivals(
            name, light_rate=rate, heavy_rate=peak,
            phase_duration_s=horizon / 2.0,
        )
    if name == "diurnal":
        return get_arrivals(
            name, base_rate=rate, peak_rate=peak,
            period_s=horizon, horizon_s=horizon,
        )
    if name == "flash-crowd":
        return get_arrivals(
            name, base_rate=rate, peak_rate=peak,
            t_start=horizon / 4.0, ramp_s=horizon / 8.0,
            hold_s=horizon / 4.0, decay_s=horizon / 8.0,
            horizon_s=horizon,
        )
    if name == "trace-replay":
        if not args.trace:
            raise SystemExit("--arrivals trace-replay needs --trace FILE")
        return get_arrivals(
            name, source=args.trace, n_tasks=args.tasks or None
        )
    raise SystemExit(
        f"--arrivals {args.arrivals!r} has no CLI mapping; available: "
        + ", ".join(n for n in available_arrivals() if n != "composite")
    )


def _cmd_sim(args: argparse.Namespace) -> int:
    from repro.runtime.trace import Tracer
    from repro.sim import SimResult, Topology, simulate_scenario

    model, cluster, _ = _setup_from_args(args)
    names = [d.name for d in cluster]
    latency_s = args.latency_ms / 1e3
    if args.contended and args.topology != "one-link":
        raise SystemExit("--contended only applies to --topology one-link")
    if args.topology == "one-link":
        topology = Topology.bus(
            NetworkModel.from_mbps(args.mbps, latency_s),
            contended=args.contended,
        )
    else:
        build = {
            "star": Topology.star,
            "mesh": Topology.mesh,
            "fat-tree": Topology.fat_tree,
        }[args.topology]
        topology = build(names, mbps=args.mbps, latency_s=latency_s)
    network = topology.as_network_model()

    scheme = _scheme_from_args(args)
    plan = scheme.plan(model, cluster, network)
    cost = plan_cost(model, plan, network)
    rate = args.rate if args.rate > 0 else args.load / cost.period
    process = _build_arrival_process(args, rate)
    churn = _parse_churn(args.churn)
    tracer = Tracer() if churn else None

    print(
        f"topology {topology.name}: {len(topology.links)} link(s), "
        f"{len(topology.nodes)} node(s)"
        + (f", entry {topology.entry}" if topology.entry else "")
    )
    print(
        f"workload {args.arrivals}: base rate {rate:.2f}/s over "
        f"{args.horizon:g}s "
        f"({args.scheme} period {cost.period:.3f}s on the flat summary)"
    )
    result = simulate_scenario(
        model, scheme, cluster,
        topology=topology, arrivals=process, churn=churn,
        trace=tracer, queue_capacity=args.capacity or None,
        seed=args.seed, keep_records=not args.stats,
    )

    is_full = isinstance(result, SimResult)
    shed = len(result.shed) if is_full else result.shed_count
    print(
        f"served: {result.completed} done, {shed} shed "
        f"of {result.submitted} over {result.makespan:.2f}s "
        f"({result.throughput:.2f}/s)"
    )
    if is_full:
        if result.tasks:
            print(
                f"latency: avg {result.avg_latency:.3f}s, "
                f"p95 {result.percentile_latency(95):.3f}s, "
                f"max {result.max_latency:.3f}s"
            )
        usage = ", ".join(
            f"{k}:{v}" for k, v in sorted(result.plan_usage.items())
        )
        if usage:
            print(f"plan usage: {usage}")
    else:
        print(
            f"latency: avg {result.avg_latency:.3f}s, "
            f"max {result.max_latency:.3f}s  "
            f"({result.n_events} events, constant memory)"
        )
    if tracer is not None:
        from repro.runtime.trace import RECOVERY_KINDS

        recovery = [e for e in tracer.events if e.kind in RECOVERY_KINDS]
        print(f"churn: {len(recovery)} recovery event(s)")
        for event in recovery:
            print(f"  t={event.start:8.2f}s {event.kind:>12s} {event.device}")
    return 0


def _parse_crashes(specs: "Sequence[str]"):
    """``DEVICE:FRAME`` specs → a FaultSchedule (None when empty)."""
    from repro.runtime.faults import FaultSchedule

    if not specs:
        return None
    schedule = FaultSchedule()
    for spec in specs:
        device, sep, frame = spec.rpartition(":")
        if not sep or not device:
            raise SystemExit(
                f"--crash expects DEVICE:FRAME, got {spec!r}"
            )
        try:
            schedule = schedule.crash(device, int(frame))
        except ValueError as exc:
            raise SystemExit(f"--crash {spec!r}: {exc}") from None
    return schedule


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.nn.executor import Engine
    from repro.runtime.core import (
        InProcTransport,
        PipelineSession,
        SimTransport,
    )
    from repro.runtime.faults import RuntimeConfig
    from repro.runtime.trace import Tracer, diff_traces, format_timeline
    from repro.schemes import get_scheme

    model, cluster, network = _setup_from_args(args)
    plan = get_scheme(args.scheme).plan(model, cluster, network)
    engine = Engine(model, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    frames = [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(args.frames)
    ]
    faults = _parse_crashes(args.crash)
    config = RuntimeConfig() if faults is not None else None

    backends = []
    if args.backend in ("inproc", "both", "all"):
        backends.append(("inproc", InProcTransport(engine, faults=faults)))
    if args.backend in ("sim", "both", "all"):
        backends.append(("sim", SimTransport(engine, network, faults=faults)))
    if args.backend in ("shm", "all"):
        if faults is not None:
            raise SystemExit(
                "--crash cannot run on the shm backend: its workers "
                "recover by rebalancing the stage, which is float-close, "
                "so it cannot join the bit-exact backend comparison"
            )
        from repro.runtime.coordinator import ShmTransport

        backends.append(("shm", ShmTransport(model, engine.weights)))

    runs = {}
    for name, transport in backends:
        tracer = Tracer()
        session = PipelineSession.from_plan(
            model, plan, transport, tracer, config
        )
        outputs = [session.run_frame(x) for x in frames]
        session.close()
        runs[name] = (outputs, tracer.events)
        print(f"--- {name} backend ({len(tracer.events)} events) ---")
        print(format_timeline(tracer.events))
        print()

    if len(runs) > 1:
        names = list(runs)
        base, (out_a, ev_a) = names[0], runs[names[0]]
        failed = False
        for other in names[1:]:
            out_b, ev_b = runs[other]
            mismatch = diff_traces(ev_a, ev_b)
            exact = all(
                np.array_equal(a, b) for a, b in zip(out_a, out_b)
            )
            if mismatch or not exact:
                failed = True
                print(f"{base} vs {other}:")
                for line in mismatch:
                    print(line)
                if not exact:
                    print("outputs differ between backends")
        if failed:
            return 1
        print("backends agree: identical outputs, identical canonical traces")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.adaptive.queueing import stable, validate_md1
    from repro.nn.executor import Engine
    from repro.runtime.core import InProcTransport, SimTransport
    from repro.serve import PipelineServer, ServerConfig
    from repro.workload.arrivals import poisson_arrivals, poisson_arrivals_count

    model, cluster, network = _setup_from_args(args)
    plan = _scheme_from_args(args).plan(model, cluster, network)
    cost = plan_cost(model, plan, network)
    rate = args.rate if args.rate > 0 else args.load / cost.period
    rng = np.random.default_rng(args.seed)
    if args.horizon > 0:
        arrivals = poisson_arrivals(rate, args.horizon, rng)
    else:
        arrivals = poisson_arrivals_count(rate, args.frames, rng)
    if not arrivals:
        print("no arrivals in the horizon; nothing to serve")
        return 0

    # --no-compute never reads a weight: an empty dict skips building them
    engine = Engine(
        model, weights={} if args.no_compute else None, seed=args.seed
    )
    if args.backend == "sim":
        transport = SimTransport(
            engine, network, compute=not args.no_compute
        )
    else:
        if args.no_compute:
            raise SystemExit("--no-compute needs --backend sim")
        transport = InProcTransport(engine)
    switcher = None
    if args.adaptive:
        switcher = build_apico_switcher(model, cluster, network)
    config = ServerConfig(
        queue_capacity=args.capacity, policy=args.policy,
        max_batch=args.max_batch, batch_timeout=args.batch_timeout,
    )
    server = PipelineServer.from_plan(
        model, plan, transport, config=config, switcher=switcher
    )
    try:
        result = server.serve(len(arrivals), arrivals=arrivals)
    finally:
        server.close()

    print(
        f"{args.scheme} plan: {plan.n_stages} stage(s), "
        f"period {cost.period:.4f}s, latency {cost.latency:.4f}s"
    )
    print(
        f"offered: {len(arrivals)} frames at {rate:.2f}/s "
        f"(utilisation {rate * cost.period:.2f}), "
        f"capacity {args.capacity}, policy {args.policy}"
    )
    print(
        f"served: {len(result.completed)} done, {len(result.shed)} shed, "
        f"{len(result.failed)} failed over {result.makespan:.2f}s"
    )
    print(
        f"throughput: {result.throughput:.2f}/s overall, "
        f"{result.steady_throughput(warmup=plan.n_stages):.2f}/s steady "
        f"(1/period = {1.0 / cost.period:.2f}/s)"
    )
    if result.sojourns:
        print(
            "sojourn: "
            f"mean {result.mean_sojourn:.4f}s, "
            f"p50 {result.percentile_sojourn(50):.4f}s, "
            f"p95 {result.percentile_sojourn(95):.4f}s, "
            f"p99 {result.percentile_sojourn(99):.4f}s"
        )
    if args.max_batch > 1 and result.batch_sizes:
        print(
            "batching: "
            f"mean {result.mean_batch:.2f} frames/batch, "
            f"p50 {result.percentile_batch(50):.0f}, "
            f"p95 {result.percentile_batch(95):.0f} "
            f"(max {args.max_batch}, timeout {args.batch_timeout:g}s)"
        )
    if switcher is not None:
        usage = ", ".join(
            f"{k}:{v}" for k, v in sorted(result.plan_usage.items())
        )
        print(f"plan usage: {usage}")
    elif (
        args.max_batch == 1
        and result.sojourns
        and stable(cost.period, rate)
        and not result.shed
    ):
        check = validate_md1(
            result.sojourns, cost.period, cost.latency, rate
        )
        print(
            "Theorem 2 (M/D/1): "
            f"predicted {check['predicted_mean']:.4f}s, "
            f"measured {check['measured_mean']:.4f}s "
            f"({check['rel_error']:.1%} off)"
        )
    return 0


def _parse_tenants(specs: "Sequence[str]"):
    """``NAME:MODEL:RATE:SLO[:PRIORITY]`` specs → TenantClass list."""
    from repro.fleet import TenantClass

    tenants = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (4, 5):
            raise SystemExit(
                f"--tenant expects NAME:MODEL:RATE:SLO[:PRIORITY], "
                f"got {spec!r}"
            )
        try:
            tenants.append(
                TenantClass(
                    name=parts[0],
                    model=parts[1],
                    rate=float(parts[2]),
                    slo=float(parts[3]),
                    priority=int(parts[4]) if len(parts) == 5 else 0,
                )
            )
        except ValueError as exc:
            raise SystemExit(f"--tenant {spec!r}: {exc}") from None
    return tenants


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetScheduler, FleetServer, ModelRegistry
    from repro.runtime.core import SimTransport
    from repro.workload.arrivals import poisson_arrivals_count

    if not args.tenant:
        raise SystemExit("fleet needs at least one --tenant spec")
    tenants = _parse_tenants(args.tenant)
    cluster = _cluster_from_args(args)
    network = NetworkModel.from_mbps(args.mbps)

    registry = ModelRegistry()
    for tenant in tenants:
        model = (
            get_model(tenant.model, input_hw=args.hw) if args.hw
            else get_model(tenant.model)
        )
        # without --compute no weight is ever read: skip building them
        registry.register(
            tenant.model, model,
            weights=None if args.compute else {}, seed=args.seed,
        )

    scheduler = FleetScheduler(registry, cluster, network)
    rng = np.random.default_rng(args.seed)
    schemes = {t.name: _scheme_from_args(args) for t in tenants}
    with FleetServer(
        registry, scheduler,
        lambda entry: SimTransport(entry.engine, network, compute=args.compute),
    ) as fleet:
        placements = fleet.admit(tenants, schemes=schemes)
        print(
            f"{'tenant':>10s} {'model':>10s} {'devices':>24s} "
            f"{'period':>9s} {'est lat':>9s} {'SLO':>7s}"
        )
        for tenant in tenants:
            pl = placements[tenant.name]
            mark = "ok" if pl.meets_slo else "MISS"
            print(
                f"{tenant.name:>10s} {tenant.model:>10s} "
                f"{','.join(pl.devices):>24s} {pl.period:>8.3f}s "
                f"{pl.estimate:>8.3f}s {mark:>7s}"
            )
        workloads = {
            t.name: (
                args.frames,
                poisson_arrivals_count(t.rate, args.frames, rng),
            )
            for t in tenants
        }
        result = fleet.serve(workloads)
    print()
    attainment = result.attainment()
    for tenant in tenants:
        tr = result.tenants[tenant.name]
        print(
            f"{tenant.name}: {len(tr.result.completed)} done, "
            f"{len(tr.result.shed)} shed, "
            f"{attainment[tenant.name]:.0%} in SLO, "
            f"goodput {tr.goodput:.2f}/s"
        )
    print(
        f"fleet: {result.completed} completions "
        f"({result.in_slo} in SLO) over {result.makespan:.2f}s — "
        f"aggregate goodput {result.aggregate_goodput:.2f}/s"
    )
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    import math
    import time

    from repro.core.exact import plan_exact

    model, cluster, network = _setup_from_args(args)
    greedy_plan = PicoScheme().plan(model, cluster, network)
    greedy = plan_cost(model, greedy_plan, network)
    bound = args.period_bound if args.period_bound > 0 else math.inf
    t0 = time.perf_counter()
    exact = plan_exact(model, cluster, network, period_bound=bound)
    search_s = time.perf_counter() - t0
    print(
        f"greedy (Algorithm 1+2): period {greedy.period:.6f}s over "
        f"{greedy_plan.n_stages} stage(s)"
    )
    print(
        f"exact (branch-and-bound): period {exact.period:.6f}s over "
        f"{exact.n_stages} stage(s)  "
        f"[{exact.nodes} nodes, {exact.pruned} pruned, {search_s:.3f}s]"
    )
    print(f"optimality gap: {exact.gap:.2%}")
    if not exact.improved:
        print("greedy plan is optimal for this cell")
    else:
        for stage in exact.stages:
            devices = ",".join(d.name for d in stage.devices)
            print(
                f"  units [{stage.start}, {stage.end}) on {devices}: "
                f"{stage.cost:.6f}s"
            )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    model, cluster, network = _setup_from_args(args)
    plan = PicoScheme().plan(model, cluster, network)
    print(render_timeline(model, plan, network, n_tasks=args.tasks))
    return 0


_COMMANDS = {
    "models": _cmd_models,
    "describe": _cmd_describe,
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "sim": _cmd_sim,
    "timeline": _cmd_timeline,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "gap": _cmd_gap,
}


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
