"""Scenario-simulator gate: million-request throughput, bit-exactness
and a flash-crowd churn scenario.

Five sections land in ``BENCH_sim.json``:

* **throughput** — one million Poisson requests streamed lazily
  through :func:`repro.sim.simulate_scenario` in the constant-memory
  stats mode; the headline figure is simulator **events per second**
  (heap pops of the discrete-event engine).  This is the folded bus:
  three events a request, no link ever contended.
* **throughput_routed** — the shape a what-if user runs (and the
  ``vgg16_virtual`` workload of ``benchmarks/e2e`` times): vgg16@64 on
  an eight-device star at 50 Mbps, ρ = 0.8, admission capped at 16, two
  devices leaving and rejoining — about eighteen events a request,
  most of them hops over per-link FIFOs.
* **before_after** — events/s of both rows at a parent checkout and at
  this one, from interleaved subprocess runs (``--before-after
  PARENT_SRC``; both sides need :mod:`repro.bench.common`); host
  numbers, carried over from the committed report when not re-measured
  and never part of ``--check``.
* **bit_exact** — the one-link bus must still produce, bit for bit,
  what the pre-2.0 single-WLAN simulator produced: a sha256 over the
  full ``SimResult`` (records, busy totals, shed set, trace) in both
  the folded and the contended communication mode, held against the
  reference digests committed in ``BENCH_sim.json`` (recorded through
  the legacy adapter the commit before it was deleted).
* **flash_crowd** — an eight-device fleet rides a viral-clip arrival
  spike (:class:`~repro.workload.FlashCrowdProcess`) while a
  correlated churn burst drops two devices mid-crowd and returns them
  later; the gate demands the scheduler visibly reacts — ``replan``
  events present in the trace — with every request accounted for.

Exit status is non-zero when any gate fails; ``--check`` re-derives
every host-independent field of a committed report (event and request
counts, simulated makespans, the flash-crowd recovery sequence, both
digests, every gate) and fails on any difference::

    python -m repro.bench.sim --quick
    python -m repro.bench.sim --check BENCH_sim.json [--quick]
    python -m repro.bench.sim --before-after /path/to/parent/src
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Optional

import numpy as np

from repro.bench import common
from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.runtime.trace import RECOVERY_KINDS, Tracer
from repro.schemes.pico import PicoScheme
from repro.sim import Topology, correlated_churn, simulate_scenario
from repro.workload import get_arrivals
from repro.workload.arrivals import poisson_arrivals

__all__ = ["BENCH", "result_digest", "run"]

#: Conservative CI floor — the engine does several hundred thousand
#: events/s on a laptop; shared runners get an order of magnitude slack.
EVENTS_PER_S_GATE = 50_000.0


def result_digest(result) -> str:
    """sha256 over everything a ``SimResult`` holds; floats enter by
    ``repr``, which round-trips, so equal digests mean equal bits."""
    payload = (
        [
            (t.task_id, float(t.arrival), float(t.started),
             float(t.completion), t.plan_name)
            for t in result.tasks
        ],
        float(result.makespan),
        sorted((k, float(v)) for k, v in result.device_busy.items()),
        sorted(result.plan_usage.items()),
        list(result.shed),
        [
            (e.kind, e.frame, e.stage, e.device, float(e.start),
             float(e.end), e.nbytes)
            for e in result.trace
        ],
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _bench_model():
    return toy_chain(6, 1, input_hw=32, in_channels=3)


def _folded_row(n_tasks: int):
    """The one-link bus with communication folded into stage service."""
    model = _bench_model()
    cluster = pi_cluster(4, 800)
    network = NetworkModel.from_mbps(50.0)
    plan = PicoScheme().plan(model, cluster, network)
    period = plan_cost(model, plan, network).period
    rate = 0.95 / period  # steady utilisation, no unbounded backlog
    return model, plan, None, dict(
        topology=Topology.bus(network), network=network,
        arrivals=get_arrivals("poisson", rate=rate, n_tasks=n_tasks),
    )


def _routed_row(n_tasks: int):
    """A churn scenario on a star: every transfer crosses two uplinks."""
    model = get_model("vgg16", input_hw=64)
    cluster = heterogeneous_cluster(
        [1200.0, 1200.0, 1000.0, 1000.0, 800.0, 800.0, 600.0, 600.0]
    )
    names = [d.name for d in cluster]
    topology = Topology.star(names, mbps=50.0)
    network = topology.as_network_model()
    plan = PicoScheme().plan(model, cluster, network)
    period = plan_cost(model, plan, network).period
    rate = 0.8 / period
    horizon = n_tasks / rate
    churn = correlated_churn(
        names[-2:], at=0.4 * horizon, stagger_s=period,
        rejoin_after=0.2 * horizon,
    )
    return model, PicoScheme(), cluster, dict(
        topology=topology, churn=churn, queue_capacity=16,
        arrivals=get_arrivals("poisson", rate=rate, n_tasks=n_tasks),
    )


#: row -> (scenario builder, its share of the configured request count:
#: a routed request costs six times the events of a folded one).
_ROWS = {"folded": (_folded_row, 1), "routed": (_routed_row, 5)}


def _throughput(row: str, n_config: int, seed: int) -> Dict:
    """Time one row at ``n_config`` configured requests."""
    build, divisor = _ROWS[row]
    n_tasks = n_config // divisor
    model, target, cluster, kwargs = build(n_tasks)
    start = time.perf_counter()
    stats = simulate_scenario(
        model, target, cluster, seed=seed, keep_records=False, **kwargs
    )
    elapsed = time.perf_counter() - start
    events_per_s = stats.n_events / elapsed if elapsed > 0 else 0.0
    print(
        f"throughput[{row}]: {n_tasks} requests -> {stats.n_events} events "
        f"in {elapsed:.2f}s ({events_per_s:,.0f} events/s, "
        f"{n_tasks / elapsed:,.0f} requests/s)"
    )
    return {
        "n_requests": int(n_tasks),
        "completed": int(stats.completed),
        "shed": int(stats.shed_count),
        "n_events": int(stats.n_events),
        "elapsed_s": float(elapsed),
        "events_per_s": float(events_per_s),
        "requests_per_s": float(n_tasks / elapsed) if elapsed > 0 else 0.0,
        "sim_makespan_s": float(stats.makespan),
        "avg_latency_s": float(stats.avg_latency),
    }


def _before_after(parent_src: str, n_tasks: int, seed: int, rounds: int) -> Dict:
    """Events/s of both rows at ``parent_src`` and at this checkout,
    through :func:`repro.bench.common.parent_vs_change`.  The event
    counts must agree: same scenario, same engine semantics, only the
    speed may differ."""
    section: Dict = {
        "parent": common.parent_commit(parent_src), "rounds": int(rounds)
    }
    for row in _ROWS:
        runs = common.parent_vs_change(
            parent_src, __file__, "_throughput", (row, n_tasks, seed), rounds,
            agree=("n_requests", "n_events"),
        )
        before, after, wins = common.paired_rates(runs, "events_per_s")
        section[row] = {
            "n_requests": runs["change"][0]["n_requests"],
            "parent_events_per_s": before,
            "change_events_per_s": after,
            "speedup": after / before,
            "wins": wins,
        }
        print(
            f"before_after[{row}]: {before:,.0f} -> {after:,.0f} events/s "
            f"(x{after / before:.2f}, change ahead in {wins}/{rounds} rounds)"
        )
    return section


def _bit_exact(reference: Dict) -> Dict:
    """Digest the one-link replays and hold them against ``reference``
    (seed pinned to 0: the reference was recorded once, at one seed)."""
    model = _bench_model()
    cluster = pi_cluster(4, 800)
    network = NetworkModel.from_mbps(50.0)
    plan = PicoScheme().plan(model, cluster, network)
    arrivals = poisson_arrivals(2.0, 60.0, np.random.default_rng(0))
    section: Dict = {"reference": reference}
    for contended in (False, True):
        key = "contended" if contended else "folded"
        digest = result_digest(
            simulate_scenario(
                model, plan,
                topology=Topology.bus(network, contended=contended),
                network=network, arrivals=arrivals, trace=True,
                queue_capacity=8,
            )
        )
        section[key] = bool(digest == reference[key])
        print(
            f"bit_exact[{key}]: {len(arrivals)} arrivals -> {section[key]}"
            + ("" if section[key] else f" (got {digest})")
        )
    return section


def _flash_crowd(seed: int) -> Dict:
    model = _bench_model()
    cluster = heterogeneous_cluster(
        [1200.0, 1200.0, 1000.0, 1000.0, 800.0, 800.0, 600.0, 600.0]
    )
    names = [d.name for d in cluster]
    topology = Topology.star(names, mbps=50.0, latency_s=0.0005)
    network = topology.as_network_model()
    plan = PicoScheme().plan(model, cluster, network)
    period = plan_cost(model, plan, network).period

    base = 0.5 / period
    peak = 3.0 / period  # well past capacity at the spike
    horizon = 120.0 * period
    crowd = get_arrivals(
        "flash-crowd", base_rate=base, peak_rate=peak,
        t_start=40.0 * period, ramp_s=10.0 * period,
        hold_s=30.0 * period, decay_s=10.0 * period, horizon_s=horizon,
    )
    # A WiFi segment browns out mid-crowd and comes back after the hold.
    churn = correlated_churn(
        names[-2:], at=55.0 * period, stagger_s=period, rejoin_after=25.0 * period
    )
    tracer = Tracer()
    stats = simulate_scenario(
        model, PicoScheme(), cluster,
        topology=topology, arrivals=crowd, churn=churn, trace=tracer,
        queue_capacity=16, seed=seed, keep_records=False,
    )
    recovery = [e for e in tracer.events if e.kind in RECOVERY_KINDS]
    kinds = [e.kind for e in recovery]
    replans = kinds.count("replan") + kinds.count("degraded")
    print(
        f"flash_crowd: {stats.submitted} requests "
        f"({stats.completed} done, {stats.shed_count} shed), "
        f"{len(recovery)} recovery events "
        f"({replans} replans) over {stats.makespan:.1f}s simulated"
    )
    for event in recovery:
        print(f"  t={event.start:8.2f}s {event.kind:>12s} {event.device}")
    return {
        "base_rate_per_s": float(base),
        "peak_rate_per_s": float(peak),
        "submitted": int(stats.submitted),
        "completed": int(stats.completed),
        "shed": int(stats.shed_count),
        "sim_makespan_s": float(stats.makespan),
        "recovery_events": kinds,
        "replan_events": int(replans),
        "device_dead_events": int(kinds.count("device_dead")),
        "device_join_events": int(kinds.count("device_join")),
    }


def run(
    quick: bool = False,
    seed: int = 0,
    tasks: int = 0,
    before_after: Optional[str] = None,
    rounds: int = 5,
    *,
    committed: Dict,
):
    """Run every section; returns ``(sections, gates)``.  The bit-exact
    reference digests — and the before/after figures, unless
    ``before_after`` names a parent checkout's ``src`` to re-measure
    against — are carried over from the ``committed`` report."""
    n_tasks = tasks or (50_000 if quick else 1_000_000)
    throughput = _throughput("folded", n_tasks, seed)
    routed = _throughput("routed", n_tasks, seed)
    bit_exact = _bit_exact(committed["bit_exact"]["reference"])
    flash = _flash_crowd(seed)
    if before_after:
        parent_vs_change = _before_after(before_after, n_tasks, seed, rounds)
    else:
        parent_vs_change = committed.get("before_after")

    floor = int(EVENTS_PER_S_GATE)
    gates = {
        "all_requests_accounted": bool(
            throughput["completed"] == throughput["n_requests"]
        ),
        "routed_requests_accounted": bool(
            routed["completed"] + routed["shed"] == routed["n_requests"]
        ),
        f"events_per_s_ge_{floor}": bool(
            throughput["events_per_s"] >= EVENTS_PER_S_GATE
        ),
        f"routed_events_per_s_ge_{floor}": bool(
            routed["events_per_s"] >= EVENTS_PER_S_GATE
        ),
        "one_link_bit_exact_folded": bit_exact["folded"],
        "one_link_bit_exact_contended": bit_exact["contended"],
        "flash_crowd_replans_in_trace": bool(flash["replan_events"] >= 2),
        "flash_crowd_churn_traced": bool(
            flash["device_dead_events"] == 2
            and flash["device_join_events"] == 2
        ),
        "flash_crowd_accounted": bool(
            flash["completed"] + flash["shed"] == flash["submitted"]
        ),
    }
    sections = {
        "config": {"n_requests": int(n_tasks), "seed": int(seed)},
        "throughput": throughput,
        "throughput_routed": routed,
        "before_after": parent_vs_change,
        "bit_exact": bit_exact,
        "flash_crowd": flash,
    }
    return sections, gates


BENCH = common.Bench(
    name="sim",
    run=run,
    deterministic=(
        common.Section("bit_exact"),
        common.Section("flash_crowd"),
        common.Section("throughput", same_mode=True),
        common.Section("throughput_routed", same_mode=True),
    ),
    # every other field depends on (config, seed) only
    timings=("elapsed_s", "events_per_s", "requests_per_s"),
    extras={
        "--tasks": dict(
            type=int, default=0,
            help="override the request count (0 = mode default; the "
            "routed row streams a fifth of it)",
        ),
        "--before-after": dict(
            metavar="PARENT_SRC",
            help="also time both throughput rows against the src/ of a "
            "parent checkout, interleaved, and record the medians",
        ),
        "--rounds": dict(
            type=int, default=5,
            help="parent/change pairs per row for --before-after",
        ),
    },
    reads_committed=True,
)

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(common.main(BENCH))
