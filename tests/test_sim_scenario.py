"""Tests for the 2.0 scenario simulator.

The load-bearing guarantee: the degenerate one-link topology
reproduces the pre-2.0 single-WLAN simulator **bit for bit** — a
digest over the full ``SimResult``, traces, shed lists and device-busy
totals included, equals the one recorded through the legacy adapter
before it was deleted (``tests/data/sim_golden.json``) — across
schemes, both communication modes, admission control, frame-indexed
crashes and measured service times.  Routed topologies (star, fat
tree, mesh; per-link FIFOs, churn with rejoin) are
pinned the same way to the engine as it stood before its hot loop was
compiled into per-plan tables.  On top of that: churn replanning,
mobility joins, multi-hop behaviour, an event-accounting identity that
leans on no golden, and the constant-memory stats mode.
"""

from __future__ import annotations

import heapq
import json
import os
from collections import defaultdict, deque

import numpy as np
import pytest

from repro.adaptive.switcher import build_apico_switcher
from repro.bench.sim import result_digest
from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import DEFAULT_OPTIONS
from repro.models.toy import toy_chain
from repro.runtime.faults import FaultSchedule
from repro.runtime.timing import plan_timing
from repro.runtime.trace import Tracer
from repro.schemes.base import PlanningError
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.pico import PicoScheme
from repro.sim import (
    ChurnEvent,
    SimResult,
    SimStats,
    Topology,
    correlated_churn,
    simulate_scenario,
)
from repro.workload.arrivals import poisson_arrivals
from repro.workload.processes import PoissonProcess


@pytest.fixture
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(6, 1, input_hw=32, in_channels=3)


@pytest.fixture
def cluster():
    return pi_cluster(4, 800)


def arrivals_list(rate=2.0, horizon=20.0, seed=5):
    return poisson_arrivals(rate, horizon, np.random.default_rng(seed))


class FullClusterOnly(PicoScheme):
    """PICO that refuses any cluster but the full one — every re-plan
    over survivors takes the degraded arm."""

    def plan(self, model, cluster, network, options=DEFAULT_OPTIONS):
        if len(cluster) < 4:
            raise PlanningError("needs all four devices")
        return super().plan(model, cluster, network, options)


def golden_cases():
    """``name -> (plan_or_scheme factory, cluster, simulate_scenario
    kwargs)`` for every digest in ``tests/data/sim_golden.json``.

    The digests were recorded at the commit named in that file through
    the since-deleted ``simulate_plan`` / ``simulate_adaptive`` adapter
    (script in the PR 14 entry of CHANGES.md), so these cases pin the
    one door to what the legacy simulator produced, bit for bit.
    """
    net = NetworkModel.from_mbps(50.0)
    model = toy_chain(6, 1, input_hw=32, in_channels=3)
    homog = pi_cluster(4, 800)
    hetero = heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0])
    cases = {}

    def bus(contended):
        return "contended" if contended else "folded"

    # The three original adapter-vs-door differentials.
    light = arrivals_list()
    for scheme_cls in (PicoScheme, EarlyFusedScheme):
        plan = scheme_cls().plan(model, homog, net)
        for contended in (False, True):
            for capacity in (None, 3):
                cases[f"light-{scheme_cls.__name__}-{bus(contended)}-q{capacity}"] = (
                    lambda plan=plan: plan, None,
                    dict(topology=Topology.bus(net, contended=contended),
                         network=net, arrivals=light, trace=True,
                         queue_capacity=capacity),
                )
    cases["light-apico"] = (
        lambda: build_apico_switcher(model, homog, net), None,
        dict(topology=Topology.bus(net), network=net,
             arrivals=arrivals_list(rate=4.0)),
    )
    cases["lazy-poisson"] = (
        lambda: PicoScheme().plan(model, homog, net), None,
        dict(topology=Topology.bus(net), network=net,
             arrivals=PoissonProcess(2.0, horizon_s=20.0), seed=7),
    )

    # Under load: a calm stretch, then 2.5x the pipeline's capacity, so
    # queues build, admission sheds and the switcher switches.
    period = plan_cost(model, PicoScheme().plan(model, hetero, net), net).period
    calm = poisson_arrivals(0.3 / period, 40 * period, np.random.default_rng(1))
    rush = poisson_arrivals(2.5 / period, 40 * period, np.random.default_rng(2))
    loaded = calm + [40 * period + t for t in rush]
    targets = {
        "plan": lambda: PicoScheme().plan(model, hetero, net),
        "efl": lambda: "efl",
        "apico": lambda: build_apico_switcher(model, hetero, net),
    }
    for kind, factory in targets.items():
        for contended in (False, True):
            for capacity in (None, 6):
                cases[f"loaded-{kind}-{bus(contended)}-q{capacity}"] = (
                    factory, hetero,
                    dict(topology=Topology.bus(net, contended=contended),
                         network=net, arrivals=loaded, trace=True,
                         queue_capacity=capacity),
                )

    # Frame-indexed crashes: one device, two on the same arrival,
    # all but one — and a scheme that can only degrade.
    steady = poisson_arrivals(
        0.5 / period, 60 * period, np.random.default_rng(3)
    )
    schedules = {
        "one": FaultSchedule().crash("pi3", 5),
        "pair": FaultSchedule().crash("pi2", 4).crash("pi3", 4),
        "all-but-one": (
            FaultSchedule().crash("pi1", 3).crash("pi2", 6).crash("pi3", 9)
        ),
    }
    for label, faults in schedules.items():
        for contended in (False, True):
            cases[f"crash-{label}-{bus(contended)}"] = (
                lambda: "pico", homog,
                dict(topology=Topology.bus(net, contended=contended),
                     network=net, arrivals=steady, faults=faults,
                     trace=True, queue_capacity=6),
            )
    cases["crash-degraded"] = (
        FullClusterOnly, homog,
        dict(topology=Topology.bus(net), network=net, arrivals=steady,
             faults=schedules["one"], trace=True),
    )

    # Measured per-stage service times in place of the analytic ones.
    for contended in (False, True):
        cases[f"measured-{bus(contended)}"] = (
            lambda: PicoScheme().plan(model, homog, net), None,
            dict(topology=Topology.bus(net, contended=contended),
                 network=net, arrivals=steady, trace=True,
                 measured_services=[0.02, 0.015]),
        )
    cases.update(routed_cases())
    return model, cases


#: The routed cases' model and cluster: PICO spreads this chain over all
#: eight devices in four stages, so every stage has transfers to route.
ROUTED_MODEL = toy_chain(8, 2, input_hw=64, in_channels=3)
ROUTED_CLUSTER = heterogeneous_cluster(
    [1200.0, 1200.0, 1000.0, 1000.0, 800.0, 800.0, 600.0, 600.0]
)


def routed_topologies(**link):
    names = [d.name for d in ROUTED_CLUSTER]
    return {
        "star": Topology.star(names, **link),
        "fat_tree": Topology.fat_tree(names, **link),
        "mesh": Topology.mesh(names, entry=names[0], **link),
    }


def routed_cases():
    """The ``routed-*`` cases: multi-hop topologies on the 8-device
    heterogeneous cluster, two devices leaving in a calm stretch and
    rejoining inside a rush at twice the flat model's capacity (the
    routed hops make it more), with and without admission control.
    ``-expected`` names the time model: every hop is charged its
    link's deterministic transfer time.

    Their digests (and ``keep_records=False`` field tuples, under
    ``"stats"`` in the golden file) were recorded at the commit named
    by ``routed_recorded_at`` — the engine before its per-event lookups
    were compiled into per-plan tables (script in the PR 15 entry of
    CHANGES.md).
    """
    names = [d.name for d in ROUTED_CLUSTER]
    link = dict(mbps=50.0, latency_s=0.0005)
    cases = {}
    for kind, topo in routed_topologies(**link).items():
        net = topo.as_network_model()
        plan = PicoScheme().plan(ROUTED_MODEL, ROUTED_CLUSTER, net)
        period = plan_cost(ROUTED_MODEL, plan, net).period
        calm = poisson_arrivals(0.2 / period, 100 * period, np.random.default_rng(1))
        rush = poisson_arrivals(2.0 / period, 40 * period, np.random.default_rng(2))
        tail = poisson_arrivals(0.2 / period, 100 * period, np.random.default_rng(3))
        arrivals = (
            calm + [100 * period + t for t in rush]
            + [140 * period + t for t in tail]
        )
        churn = correlated_churn(
            names[-2:], at=50 * period, stagger_s=period,
            rejoin_after=70 * period,
        )
        for capacity in (None, 8):
            cases[f"routed-{kind}-q{capacity}-expected"] = (
                lambda: "pico", ROUTED_CLUSTER,
                dict(topology=topo, arrivals=arrivals, churn=churn,
                     trace=True, queue_capacity=capacity, seed=11),
            )
    return cases


def stats_fields(stats):
    """Every field of a ``SimStats`` as JSON-ready lists; floats survive
    the JSON round trip bit for bit."""
    return [
        stats.completed, stats.shed_count, stats.makespan,
        sorted([k, v] for k, v in stats.device_busy.items()),
        sorted([k, v] for k, v in stats.plan_usage.items()),
        stats.sum_latency, stats.max_latency, stats.n_events,
    ]


MODEL, GOLDEN_CASES = golden_cases()
with open(os.path.join(os.path.dirname(__file__), "data", "sim_golden.json")) as _fh:
    GOLDEN = json.load(_fh)


def run_golden(name, **overrides):
    factory, cluster, kwargs = GOLDEN_CASES[name]
    model = ROUTED_MODEL if name.startswith("routed-") else MODEL
    return simulate_scenario(
        model, factory(), cluster, **{**kwargs, **overrides}
    )


class TestOneLinkDifferential:
    """The one-link bus IS the pre-2.0 simulator, bit for bit: every
    case's digest equals the one the legacy adapter produced."""

    def test_every_golden_has_a_case(self):
        assert set(GOLDEN["digests"]) == set(GOLDEN_CASES)
        assert len(GOLDEN["recorded_at"]) == 40

    @pytest.mark.parametrize("scheme_cls", [PicoScheme, EarlyFusedScheme])
    @pytest.mark.parametrize("contended", [False, True])
    @pytest.mark.parametrize("queue_capacity", [None, 3])
    def test_plan_replay_is_bit_identical(
        self, scheme_cls, contended, queue_capacity
    ):
        bus = "contended" if contended else "folded"
        name = f"light-{scheme_cls.__name__}-{bus}-q{queue_capacity}"
        result = run_golden(name)
        assert isinstance(result, SimResult)
        assert result_digest(result) == GOLDEN["digests"][name]

    def test_adaptive_replay_is_bit_identical(self):
        digest = result_digest(run_golden("light-apico"))
        assert digest == GOLDEN["digests"]["light-apico"]

    def test_lazy_process_matches_materialised_list(self):
        digest = result_digest(run_golden("lazy-poisson"))
        assert digest == GOLDEN["digests"]["lazy-poisson"]

    @pytest.mark.parametrize(
        "name",
        [n for n in GOLDEN_CASES if not n.startswith(("light", "lazy", "routed"))],
    )
    def test_matches_legacy_digest(self, name):
        result = run_golden(name)
        assert result_digest(result) == GOLDEN["digests"][name]
        # The interesting cases really are interesting.
        kinds = {e.kind for e in result.trace}
        if name.endswith("q6"):
            assert result.shed
        if name.startswith("loaded-apico"):
            assert len(result.plan_usage) > 1
        if name.startswith("crash"):
            assert "device_dead" in kinds
            assert ("degraded" if "degraded" in name else "replan") in kinds


ROUTED = [n for n in GOLDEN_CASES if n.startswith("routed-")]


class TestRoutedGoldens:
    """Star / fat tree / mesh with churn and shedding:
    the engine's routed path, pinned to the loop it replaced."""

    def test_routed_cases_are_all_recorded(self):
        assert len(ROUTED) == 6
        assert set(GOLDEN["stats"]) == set(ROUTED)
        assert len(GOLDEN["routed_recorded_at"]) == 40

    @pytest.mark.parametrize("name", ROUTED)
    def test_traced_result_matches_digest(self, name):
        result = run_golden(name)
        assert result_digest(result) == GOLDEN["digests"][name]
        kinds = [e.kind for e in result.trace]
        assert kinds.count("device_dead") == kinds.count("device_join") == 2
        assert kinds.count("replan") == 4
        assert len(result.plan_usage) == 2  # the backlog did migrate
        assert bool(result.shed) == ("-q8-" in name)

    @pytest.mark.parametrize("name", ROUTED)
    def test_stats_mode_matches_field_tuple(self, name):
        stats = run_golden(name, trace=None, keep_records=False)
        assert isinstance(stats, SimStats)
        assert stats_fields(stats) == GOLDEN["stats"][name]


def replay_links(releases):
    """An independent model of the network alone: one FIFO per link,
    one transfer on a link at a time, store-and-forward hops.

    ``releases`` lists, in the order the stages started, ``(time,
    routes)`` with each route a list of ``(link name, hop seconds)``.
    Returns when each release's last hop landed and every link's
    occupancy intervals.
    """
    heap, order = [], 0
    for index, (at, _) in enumerate(releases):
        heap.append((at, order, "release", index))
        order += 1
    heapq.heapify(heap)
    waiting, busy = defaultdict(deque), set()
    outstanding = [len(routes) for _, routes in releases]
    landed = [at for at, _ in releases]  # nothing to send: lands at once
    occupancy = defaultdict(list)

    def serve(link, now):
        nonlocal order
        if link in busy or not waiting[link]:
            return
        transfer = waiting[link].popleft()
        busy.add(link)
        _, route, hop = transfer
        occupancy[link].append((now, now + route[hop][1]))
        heapq.heappush(heap, (now + route[hop][1], order, "hop", transfer))
        order += 1

    while heap:
        now, _, what, item = heapq.heappop(heap)
        if what == "release":
            for route in releases[item][1]:
                waiting[route[0][0]].append((item, route, 0))
                serve(route[0][0], now)
            continue
        index, route, hop = item
        freed = route[hop][0]
        busy.discard(freed)
        if hop + 1 < len(route):
            onward = route[hop + 1][0]
            waiting[onward].append((index, route, hop + 1))
            serve(onward, now)
        else:
            outstanding[index] -= 1
            if not outstanding[index]:
                landed[index] = now
        serve(freed, now)
    assert not any(outstanding)
    return landed, occupancy


class TestEventAccounting:
    """What the engine must do, counted and timed without it: no golden
    digest, only the plan's own timing table, the topology's routes and
    the FIFO-per-link model above."""

    @pytest.mark.parametrize("capacity", [None, 6])
    @pytest.mark.parametrize("kind", ["star", "mesh", "fat_tree"])
    def test_events_and_link_schedule_add_up(self, kind, capacity):
        topo = routed_topologies(mbps=50.0, latency_s=0.0005)[kind]
        net = topo.as_network_model()
        plan = PicoScheme().plan(ROUTED_MODEL, ROUTED_CLUSTER, net)
        timing = plan_timing(ROUTED_MODEL, plan, net)
        arrivals = poisson_arrivals(
            1.5 / timing.period, 80 * timing.period, np.random.default_rng(4)
        )
        kwargs = dict(topology=topo, arrivals=arrivals, queue_capacity=capacity)
        stats = simulate_scenario(
            ROUTED_MODEL, plan, keep_records=False, **kwargs
        )
        full = simulate_scenario(ROUTED_MODEL, plan, trace=True, **kwargs)

        # Every request ends one way, the same way in both modes.
        assert stats.completed + stats.shed_count == len(arrivals)
        assert (full.completed, len(full.shed)) == (
            stats.completed, stats.shed_count
        )
        assert bool(stats.shed_count) == (capacity is not None)

        # One plan throughout, so every completed task costs the same
        # events: per stage one ``done`` plus one ``hop`` per link of
        # every transfer that has anywhere to go.
        routes = [
            [
                [
                    (link.name, link.transfer_time(nbytes))
                    for link in topo.route(src, dst)
                ]
                for src, dst, nbytes in stage
                if src != dst
            ]
            for stage in timing.stage_transfers(net, entry=topo.entry)
        ]
        per_task = sum(
            1 + sum(len(route) for route in stage) for stage in routes
        )
        n_churn = 0  # a bare plan cannot be re-planned: no churn, no switch
        assert stats.n_events == len(arrivals) + n_churn + stats.completed * per_task
        multi_hop = any(len(route) > 1 for stage in routes for route in stage)
        assert multi_hop == (kind != "mesh")  # a mesh links every pair

        # Stage starts (in engine order) and stage ends, from the trace.
        starts = [e for e in full.trace if e.kind == "enqueue"]
        done = {(t.task_id, timing.n_stages - 1): t.completion for t in full.tasks}
        for e in starts:
            if e.stage:
                done[(e.frame, e.stage - 1)] = e.start  # joined the next queue
        landed, occupancy = replay_links(
            [(e.end, routes[e.stage]) for e in starts]
        )
        # No link ever carries two transfers at once ...
        assert len(occupancy) > 2
        for intervals in occupancy.values():
            intervals.sort()
            assert all(
                a[1] <= b[0] for a, b in zip(intervals, intervals[1:])
            )
        # ... and under exactly that discipline each stage's compute
        # starts when its last hop lands, never earlier.
        for e, last_hop in zip(starts, landed):
            compute_from = done[(e.frame, e.stage)] - timing.stages[e.stage].comp
            assert compute_from == pytest.approx(last_hop, abs=1e-12)
            assert last_hop >= e.end


class TestChurn:
    def test_correlated_burst_replans_and_rejoins(self, model, cluster, net):
        churn = correlated_churn(
            ["pi2", "pi3"], at=4.0, stagger_s=0.5, rejoin_after=8.0
        )
        tracer = Tracer()
        result = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.bus(net), network=net,
            arrivals=arrivals_list(rate=1.0, horizon=25.0),
            churn=churn, trace=tracer,
        )
        kinds = [e.kind for e in tracer.events if e.frame == -1]
        assert kinds.count("device_dead") == 2
        assert kinds.count("device_join") == 2
        assert kinds.count("replan") + kinds.count("degraded") == 4
        assert result.completed == result.submitted
        # The backlog migrates onto replanned pipelines eventually.
        assert any(name.startswith("PICO") for name in result.plan_usage)

    def test_scheme_accepted_by_name(self, model, cluster, net):
        result = simulate_scenario(
            model, "pico", cluster,
            topology=Topology.bus(net), network=net,
            arrivals=[0.0, 1.0],
            churn=[ChurnEvent(2.0, "pi3", "leave")],
        )
        assert result.completed == 2

    def test_join_only_device_starts_outside(self, model, cluster, net):
        tracer = Tracer()
        result = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.bus(net), network=net,
            arrivals=arrivals_list(rate=1.0, horizon=10.0),
            churn=[ChurnEvent(5.0, "pi3", "join")],
            trace=tracer,
        )
        kinds = [e.kind for e in tracer.events if e.frame == -1]
        assert kinds == ["device_join", "replan"]
        assert result.completed == result.submitted

    def test_churn_needs_a_scheme(self, model, cluster, net):
        plan = PicoScheme().plan(model, cluster, net)
        with pytest.raises(ValueError, match="scheme"):
            simulate_scenario(
                model, plan, cluster,
                topology=Topology.bus(net), network=net, arrivals=[0.0],
                churn=[ChurnEvent(1.0, "pi0", "leave")],
            )

    def test_churn_unknown_device_rejected(self, model, cluster, net):
        with pytest.raises(ValueError, match="not in the cluster"):
            simulate_scenario(
                model, PicoScheme(), cluster,
                topology=Topology.bus(net), network=net, arrivals=[0.0],
                churn=[ChurnEvent(1.0, "ghost", "leave")],
            )

    def test_time_and_frame_triggers_share_one_live_set(
        self, model, cluster, net
    ):
        """A timed leave and a frame-counted crash in one run: each
        marks the same live set and re-plans once, stamped with its own
        trigger (-1 for time, the arrival index for a crash)."""
        tracer = Tracer()
        result = simulate_scenario(
            model, PicoScheme(), cluster, network=net,
            arrivals=[0.5 * i for i in range(12)],
            churn=[ChurnEvent(1.2, "pi3", "leave"),
                   ChurnEvent(1.3, "pi3", "leave")],  # already gone: no-op
            faults=FaultSchedule().crash("pi2", 8).crash("pi3", 8),
            trace=tracer,
        )
        recovery = [
            (e.kind, e.frame, e.device) for e in tracer.events
            if e.kind in ("device_dead", "replan", "degraded")
        ]
        assert recovery == [
            ("device_dead", -1, "pi3"), ("replan", -1, "pi3"),
            ("device_dead", 8, "pi2"), ("replan", 8, "pi2,pi3"),
        ]
        assert result.completed == 12

    def test_unknown_crash_device_rejected(self, model, cluster, net):
        with pytest.raises(ValueError, match="not in the cluster: ghost"):
            simulate_scenario(
                model, PicoScheme(), cluster, network=net, arrivals=[0.0],
                faults=FaultSchedule().crash("ghost", 0),
            )

    def test_degrades_when_survivors_cannot_be_planned(
        self, model, cluster, net
    ):
        result = simulate_scenario(
            model, FullClusterOnly(), cluster, network=net,
            arrivals=[0.1 * i for i in range(6)],
            churn=[ChurnEvent(0.25, "pi0", "leave")], trace=True,
        )
        kinds = [e.kind for e in result.trace if e.frame == -1]
        assert kinds == ["device_dead", "degraded"]
        assert result.plan_usage["PICO+degraded"] >= 1

    def test_correlated_churn_validates(self):
        with pytest.raises(ValueError):
            correlated_churn([], at=1.0)
        events = correlated_churn(["a", "b"], at=2.0, stagger_s=1.0)
        assert [e.time for e in events] == [2.0, 3.0]


class TestMultiHop:
    def test_star_runs_and_contends(self, model, cluster, net):
        arrivals = arrivals_list(rate=1.0, horizon=10.0)
        bus = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.bus(net), network=net, arrivals=arrivals,
        )
        star = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.star([d.name for d in cluster], mbps=50.0),
            arrivals=arrivals,
        )
        assert star.completed == len(arrivals)
        # Two store-and-forward hops per transfer plus per-link FIFO
        # contention can only slow things down vs the folded one-link run.
        assert star.avg_latency >= bus.avg_latency - 1e-9

    def test_star_takes_crashes_and_measured_services(self, model, cluster):
        """Both were bus-only before the adapter's parameters moved to
        the one door: a routed topology now re-plans on a crash and
        honours measured stage times."""
        topo = Topology.star([d.name for d in cluster], mbps=50.0)
        arrivals = [0.05 * i for i in range(10)]
        crashed = simulate_scenario(
            model, "pico", cluster, topology=topo, arrivals=arrivals,
            faults=FaultSchedule().crash("pi3", 4), trace=True,
        )
        assert crashed.completed == 10
        assert [
            (e.kind, e.frame) for e in crashed.trace
            if e.kind in ("device_dead", "replan")
        ] == [("device_dead", 4), ("replan", 4)]

        plan = PicoScheme().plan(model, cluster, topo.as_network_model())
        analytic = simulate_scenario(
            model, plan, topology=topo, arrivals=arrivals
        )
        measured = simulate_scenario(
            model, plan, topology=topo, arrivals=arrivals,
            measured_services=[1.0] * plan.n_stages,
        )
        assert measured.avg_latency > analytic.avg_latency

    def test_tighter_links_hurt(self, model, cluster):
        arrivals = arrivals_list(rate=1.0, horizon=10.0)
        names = [d.name for d in cluster]
        fast = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.star(names, mbps=500.0), arrivals=arrivals,
        )
        slow = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.star(names, mbps=5.0), arrivals=arrivals,
        )
        assert slow.makespan > fast.makespan


class TestStatsMode:
    def test_stats_agree_with_records(self, model, cluster, net):
        arrivals = arrivals_list(rate=2.0, horizon=15.0)
        kwargs = dict(
            topology=Topology.bus(net), network=net, arrivals=arrivals,
            queue_capacity=4,
        )
        full = simulate_scenario(model, PicoScheme(), cluster, **kwargs)
        stats = simulate_scenario(
            model, PicoScheme(), cluster, keep_records=False, **kwargs
        )
        assert isinstance(stats, SimStats)
        assert stats.completed == full.completed
        assert stats.shed_count == len(full.shed)
        assert stats.makespan == full.makespan
        assert stats.avg_latency == pytest.approx(full.avg_latency)
        assert stats.max_latency == pytest.approx(full.max_latency)
        assert stats.device_busy == full.device_busy
        assert stats.n_events > 0

    def test_private_tracer_refused_in_stats_mode(self, model, cluster, net):
        """``trace=True`` would mint a Tracer that ``SimStats`` cannot
        hand back: an unreadable list growing with every event."""
        with pytest.raises(ValueError, match="your own Tracer.*keep_records=True"):
            simulate_scenario(
                model, PicoScheme(), cluster, network=net,
                arrivals=[0.0, 0.1], trace=True, keep_records=False,
            )

    def test_caller_owned_tracer_works_in_stats_mode(self, model, cluster, net):
        tracer = Tracer()
        kwargs = dict(network=net, arrivals=[0.0, 0.1, 0.2])
        stats = simulate_scenario(
            model, PicoScheme(), cluster, trace=tracer, keep_records=False,
            **kwargs,
        )
        full = simulate_scenario(
            model, PicoScheme(), cluster, trace=True, **kwargs
        )
        assert isinstance(stats, SimStats) and stats.completed == 3
        assert tuple(tracer.events) == tuple(full.trace) != ()


class TestValidation:
    def test_arrivals_required(self, model, cluster, net):
        with pytest.raises(ValueError, match="arrivals"):
            simulate_scenario(
                model, PicoScheme(), cluster, topology=Topology.bus(net)
            )

    def test_scheme_needs_cluster(self, model, net):
        with pytest.raises(ValueError, match="cluster"):
            simulate_scenario(
                model, PicoScheme(), topology=Topology.bus(net),
                arrivals=[0.0],
            )

    def test_unknown_target_rejected(self, model):
        with pytest.raises(TypeError, match="not int"):
            simulate_scenario(model, 42, arrivals=[0.0])

    def test_switcher_rejects_per_plan_inputs(self, model, cluster, net):
        for kwargs in (
            {"faults": FaultSchedule().crash("pi0", 1)},
            {"churn": [ChurnEvent(1.0, "pi0", "leave")]},
            {"measured_services": [0.1, 0.1]},
        ):
            with pytest.raises(ValueError, match="AdaptiveSwitcher"):
                simulate_scenario(
                    model, build_apico_switcher(model, cluster, net),
                    network=net, arrivals=[0.0], **kwargs,
                )

    def test_bare_plan_cannot_be_replanned(self, model, cluster, net):
        plan = PicoScheme().plan(model, cluster, net)
        with pytest.raises(ValueError, match="crash churn needs a scheme"):
            simulate_scenario(
                model, plan, network=net, arrivals=[0.0],
                faults=FaultSchedule().crash("pi0", 1),
            )
