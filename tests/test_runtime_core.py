"""Runtime core: PlanProgram IR, transports, and the exactness gate.

The refactor's central promise: every backend drives the same compiled
:class:`PlanProgram` through the same :func:`collect_stage` path, so
the in-process and virtual-clock backends must produce bit-identical
outputs and identical *canonical* traces (the timestamp-free event
projection).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.device import pi_cluster
from repro.cluster.metrics import utilization_table
from repro.cost.comm import NetworkModel
from repro.fleet import FleetScheduler, FleetServer, ModelRegistry, TenantClass
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.runtime.coordinator import TcpTransport
from repro.runtime.core import InProcTransport, PipelineSession, SimTransport
from repro.runtime.program import compile_plan
from repro.runtime.timing import plan_timing
from repro.runtime.trace import (
    EVENT_KINDS,
    TraceEvent,
    Tracer,
    canonical_trace,
    device_busy,
    diff_traces,
    dump_jsonl,
    trace_makespan,
)
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer
from repro.testing.formats import load_jsonl


@pytest.fixture(scope="module")
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture(scope="module")
def model():
    return toy_chain(6, 1, input_hw=40, in_channels=3, base_channels=8)


@pytest.fixture(scope="module")
def plan(model, net):
    return PicoScheme().plan(model, pi_cluster(4, 800), net)


def _frames(model, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(n)
    ]


class TestCompile:
    def test_program_structure(self, model, plan):
        program = compile_plan(model, plan)
        assert program.model_name == model.name
        assert program.mode == plan.mode
        assert program.n_stages == plan.n_stages
        assert program.n_units == len(model.units)
        for stage_plan, stage in zip(plan.stages, program.stages):
            assert (stage.start, stage.end) == (
                stage_plan.start, stage_plan.end,
            )
            assert stage.n_tasks >= 1
            for task in stage.tasks:
                assert task.capacity > 0
                assert task.program is not None

    def test_stages_cover_model_contiguously(self, model, plan):
        program = compile_plan(model, plan)
        cursor = 0
        for stage in program.stages:
            assert stage.start == cursor
            cursor = stage.end
        assert cursor == program.n_units

    def test_name_mismatch_rejected(self, model, plan):
        other = toy_chain(5, 0, input_hw=40)
        with pytest.raises(ValueError, match="plan is for"):
            compile_plan(other, plan)

    def test_describe_mentions_devices(self, model, plan):
        text = compile_plan(model, plan).describe()
        assert model.name in text and "stage 0" in text


class TestExactnessGate:
    """InProc and Sim must agree bit for bit — outputs and canonical trace."""

    def test_pipelined_outputs_and_traces_match(self, model, plan, net):
        engine = Engine(model, seed=0)
        program = compile_plan(model, plan)
        frames = _frames(model, 3)

        tr_a, tr_b = Tracer(), Tracer()
        with PipelineSession(program, InProcTransport(engine), tr_a) as s:
            outs_a = [s.run_frame(x) for x in frames]
        with PipelineSession(program, SimTransport(engine, net), tr_b) as s:
            outs_b = [s.run_frame(x) for x in frames]

        for a, b in zip(outs_a, outs_b):
            np.testing.assert_array_equal(a, b)
        assert diff_traces(tr_a.events, tr_b.events) == []
        # One enqueue plus send/compute/recv per task, per stage, per frame.
        expected = len(frames) * sum(
            1 + 3 * s.n_tasks for s in program.stages
        )
        assert len(tr_a.events) == expected

    def test_exclusive_plan_matches(self, model, net):
        plan = EarlyFusedScheme().plan(model, pi_cluster(3, 800), net)
        assert plan.mode == "exclusive"
        engine = Engine(model, seed=1)
        program = compile_plan(model, plan)
        frames = _frames(model, 2, seed=1)
        tr_a, tr_b = Tracer(), Tracer()
        with PipelineSession(program, InProcTransport(engine), tr_a) as s:
            outs_a = [s.run_frame(x) for x in frames]
        with PipelineSession(program, SimTransport(engine, net), tr_b) as s:
            outs_b = [s.run_frame(x) for x in frames]
        for a, b in zip(outs_a, outs_b):
            np.testing.assert_array_equal(a, b)
        assert diff_traces(tr_a.events, tr_b.events) == []

    def test_branch_plan_matches(self, net):
        from tests.test_branch_runtime import branch_plan, inception_like_model

        model = inception_like_model()
        plan = branch_plan(model, pi_cluster(4, 1000))
        engine = Engine(model, seed=11)
        program = compile_plan(model, plan)
        frames = _frames(model, 2, seed=2)
        tr_a, tr_b = Tracer(), Tracer()
        with PipelineSession(program, InProcTransport(engine), tr_a) as s:
            outs_a = [s.run_frame(x) for x in frames]
        with PipelineSession(program, SimTransport(engine, net), tr_b) as s:
            outs_b = [s.run_frame(x) for x in frames]
        for a, b in zip(outs_a, outs_b):
            np.testing.assert_array_equal(a, b)
        assert diff_traces(tr_a.events, tr_b.events) == []

    def test_session_matches_engine(self, model, plan, net):
        engine = Engine(model, seed=0)
        x = _frames(model, 1)[0]
        with PipelineSession.from_plan(
            model, plan, InProcTransport(engine)
        ) as s:
            out = s.run_frame(x)
        np.testing.assert_allclose(
            out, engine.forward_features(x), atol=1e-4, rtol=1e-4
        )

    def test_diff_traces_reports_mismatch(self):
        a = [TraceEvent("compute", 0, 0, "pi0", 0.0, 1.0)]
        b = [TraceEvent("compute", 0, 0, "pi1", 0.0, 1.0)]
        assert diff_traces(a, a) == []
        assert any("pi1" in line for line in diff_traces(a, b))
        assert any("count" in line for line in diff_traces(a, a + b))


class TestFaultStateFromConstruction:
    """A transport owns its dead set, lock and overrides from
    ``__init__`` — not from ``open()`` — and a fleet's shared set,
    handed over before ``open()``, survives it."""

    def test_never_opened_transport_and_fleet_parent(self, model, plan, net):
        program = compile_plan(model, plan)
        victim = program.stages[0].tasks[0].device_name
        engine = Engine(model, seed=0)
        for bare in (
            InProcTransport(engine),
            SimTransport(engine, net),
            TcpTransport(model),
        ):
            assert bare.dead_devices() == frozenset()
            assert not bare.needs_repartition(0)
            assert bare.capacity_lost() == 0.0
            assert bare.mark_dead(victim) and not bare.mark_dead(victim)
            assert bare.dead_devices() == {victim}
            if bare.rebindable:  # workers cannot rebind
                bare.rebind(program)  # adopts a program without an open()
                assert bare.needs_repartition(0)

        # The fleet's factory path: each tenant gets a fresh transport
        # that adopts the one fleet-wide set before it opens.
        registry = ModelRegistry()
        registry.register("toy", model, weights=engine.weights)
        made = []

        def make_transport(entry):
            made.append(SimTransport(entry.engine, net))
            return made[-1]

        # min_devices=2 on two devices: both plans touch both devices
        alpha, beta = (
            TenantClass(name, "toy", rate=1.0, slo=60.0, min_devices=2)
            for name in ("alpha", "beta")
        )
        scheduler = FleetScheduler(registry, pi_cluster(2, 800), net)
        with FleetServer(registry, scheduler, make_transport) as fleet:
            early, late = fleet.admit([alpha])["alpha"].devices
            assert made[0].mark_dead(early)  # before beta exists
            fleet.admit([beta])  # must keep the fleet-wide set, not fork it
            first, second = made  # one transport per tenant, none cloned
            assert second.dead_devices() == {early}
            assert not second.mark_dead(early)
            assert second.mark_dead(late)  # found while serving beta
            assert first.dead_devices() == {early, late}
            for name, transport in (("alpha", first), ("beta", second)):
                stages = range(fleet.servers[name].program.n_stages)
                assert all(transport.needs_repartition(i) for i in stages)


class TestTraceSchema:
    def test_events_well_formed(self, model, plan, net):
        engine = Engine(model, seed=0)
        tracer = Tracer()
        with PipelineSession.from_plan(
            model, plan, SimTransport(engine, net), tracer
        ) as s:
            for x in _frames(model, 2):
                s.run_frame(x)
        assert len(tracer.events) > 0
        devices = {d.name for d in pi_cluster(4, 800).devices}
        for e in tracer.events:
            assert e.kind in EVENT_KINDS
            assert e.end >= e.start >= 0.0
            assert 0 <= e.stage < plan.n_stages
            assert e.frame in (0, 1)
            if e.kind == "enqueue":
                assert e.device == "" and e.nbytes == 0
            else:
                assert e.device in devices
            if e.kind in ("send", "recv"):
                assert e.nbytes > 0

    def test_invalid_events_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TraceEvent("teleport", 0, 0, "pi0", 0.0, 1.0)
        with pytest.raises(ValueError, match="ends before"):
            TraceEvent("compute", 0, 0, "pi0", 2.0, 1.0)
        with pytest.raises(ValueError, match="nbytes"):
            TraceEvent("send", 0, 0, "pi0", 0.0, 1.0, nbytes=-1)

    def test_jsonl_roundtrip(self, tmp_path):
        events = [
            TraceEvent("enqueue", 0, 0, "", 0.0, 0.5),
            TraceEvent("compute", 0, 0, "pi0", 0.5, 1.5),
        ]
        path = str(tmp_path / "trace.jsonl")
        dump_jsonl(events, path)
        assert load_jsonl(path) == events

    def test_device_busy_and_makespan(self):
        events = [
            TraceEvent("enqueue", 0, 0, "", 0.0, 0.0),
            TraceEvent("send", 0, 0, "pi0", 0.0, 1.0, nbytes=8),
            TraceEvent("compute", 0, 0, "pi0", 1.0, 3.0),
            TraceEvent("recv", 0, 0, "pi0", 3.0, 3.5, nbytes=8),
        ]
        assert device_busy(events) == {"pi0": 3.5}
        assert trace_makespan(events) == 3.5
        assert trace_makespan([]) == 0.0


class TestSimSemantics:
    def test_back_to_back_period_matches_timing(self, model, plan, net):
        """Steady-state virtual inter-departure time equals the analytic
        period — the FIFO recurrence the event simulator uses."""
        engine = Engine(model, seed=0)
        timing = plan_timing(model, plan, net)
        transport = SimTransport(engine, net)
        with PipelineSession.from_plan(model, plan, transport) as s:
            exits = []
            for x in _frames(model, 4):
                s.run_frame(x)
                exits.append(transport.now)
        gaps = [b - a for a, b in zip(exits, exits[1:])]
        # After pipeline fill, departures are one period apart.
        assert gaps[-1] == pytest.approx(timing.period, rel=1e-9)

    def test_out_of_order_submission_rejected(self, model, plan, net):
        engine = Engine(model, seed=0)
        with PipelineSession.from_plan(
            model, plan, SimTransport(engine, net)
        ) as s:
            s.run_stacked(_frames(model, 1), at=5.0)
            with pytest.raises(ValueError, match="time order"):
                s.run_stacked(_frames(model, 1), at=1.0)

    def test_arrivals_shift_virtual_clock(self, model, plan, net):
        engine = Engine(model, seed=0)
        transport = SimTransport(engine, net)
        with PipelineSession.from_plan(model, plan, transport) as s:
            for x, at in zip(_frames(model, 2), [0.0, 100.0]):
                s.run_stacked((x,), at)
        # Second frame arrived long after the first drained: its latency
        # is the plan latency, so completion is arrival + latency.
        timing = plan_timing(model, plan, net)
        assert transport.now == pytest.approx(100.0 + timing.latency, rel=1e-9)


class TestAdapters:
    def test_local_executor_trace(self, model, plan):
        """A frame served in process traces the four stage kinds."""
        engine = Engine(model, seed=0)
        with PipelineServer.from_plan(
            model, plan, InProcTransport(engine), tracer=True
        ) as server:
            result = server.serve(_frames(model, 1))
        assert len(result.trace) > 0
        kinds = {e.kind for e in result.trace}
        assert kinds == set(EVENT_KINDS)

    def test_utilization_table_from_trace(self, model, plan, net):
        engine = Engine(model, seed=0)
        tracer = Tracer()
        with PipelineSession.from_plan(
            model, plan, SimTransport(engine, net), tracer
        ) as s:
            for x in _frames(model, 3):
                s.run_frame(x)
        table = utilization_table(
            model, plan, net, trace=tracer.events, scheme_name="PICO"
        )
        assert 0.0 < table.average_utilization <= 1.0
        busy = device_busy(tracer.events)
        window = trace_makespan(tracer.events)
        for row in table.devices:
            assert row.utilization == pytest.approx(
                min(1.0, busy.get(row.name, 0.0) / window)
            )

    def test_utilization_table_rejects_both_sources(self, model, plan, net):
        with pytest.raises(ValueError, match="at most one"):
            utilization_table(
                model, plan, net,
                sim=object(), trace=[],  # type: ignore[arg-type]
            )

    def test_canonical_trace_projection(self):
        e = TraceEvent("send", 2, 1, "pi3", 0.5, 0.7, nbytes=64)
        assert canonical_trace([e]) == [(2, 1, "send", "pi3", 64)]


class TestBatchedExecution:
    """Cross-frame batches: bit-exact outputs, batched virtual timing."""

    def test_run_stacked_matches_per_frame(self, model, plan, net):
        engine = Engine(model, seed=0)
        program = compile_plan(model, plan)
        frames = _frames(model, 3)
        with PipelineSession(program, InProcTransport(engine)) as s:
            want = [s.run_frame(x) for x in frames]
        with PipelineSession(program, InProcTransport(engine)) as s:
            got = s.run_stacked(frames)
        assert len(got) == len(frames)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_run_stacked_singleton_and_empty(self, model, plan, net):
        engine = Engine(model, seed=0)
        program = compile_plan(model, plan)
        frame = _frames(model, 1)[0]
        with PipelineSession(program, InProcTransport(engine)) as s:
            want = s.run_frame(frame)
        with PipelineSession(program, InProcTransport(engine)) as s:
            (got,) = s.run_stacked([frame])
            with pytest.raises(ValueError, match="empty"):
                s.run_stacked([])
        np.testing.assert_array_equal(got, want)

    def test_sim_singleton_batch_keeps_exact_timestamps(self, model, plan,
                                                        net):
        engine = Engine(model, seed=0)
        frames = _frames(model, 2)
        t_plain = SimTransport(engine, net)
        with PipelineSession.from_plan(model, plan, t_plain) as s:
            for x in frames:
                s.run_frame(x)
        t_stacked = SimTransport(engine, net)
        with PipelineSession.from_plan(model, plan, t_stacked) as s:
            for x in frames:
                s.run_stacked([x])
        assert t_stacked.now == t_plain.now

    def test_sim_batched_service_charge(self, model, plan, net):
        """A B-frame batch finishes at batched_service of the per-frame
        stage costs: dearer than one frame, but cheaper than B frames'
        worth of un-pipelined latency (compute is partially amortised;
        comm still scales with B)."""
        from repro.cost.tables import BATCH_AMORTIZED_FRACTION, batched_service

        engine = Engine(model, seed=0)
        frames = _frames(model, 3)

        t_one = SimTransport(engine, net)
        with PipelineSession.from_plan(model, plan, t_one) as s:
            s.run_frame(frames[0])
        single_latency = t_one.now

        t_batch = SimTransport(engine, net)
        with PipelineSession.from_plan(model, plan, t_batch) as s:
            s.run_stacked(frames)

        assert single_latency < t_batch.now < 3 * single_latency
        # Exact charge: every stage service is batched_service(comm, comp, 3).
        assert batched_service(0.0, 1.0, 3) == pytest.approx(
            BATCH_AMORTIZED_FRACTION + 3 * (1 - BATCH_AMORTIZED_FRACTION)
        )

    def test_stage_free_time_advances(self, model, plan, net):
        engine = Engine(model, seed=0)
        transport = SimTransport(engine, net)
        program = compile_plan(model, plan)
        assert transport.stage_free_time(0) == 0.0
        with PipelineSession(program, transport) as s:
            s.run_frame(_frames(model, 1)[0])
            assert transport.stage_free_time(0) > 0.0

    def test_batched_trace_scales_comm_with_b(self, model, plan, net):
        """Each batch member's traced send span covers the B×-wide wire
        interval; its compute span is the amortised share (< B×).  Events
        replicate per member, so filter to one frame before comparing."""
        engine = Engine(model, seed=0)
        tr_one, tr_batch = Tracer(), Tracer()
        frames = _frames(model, 3)
        with PipelineSession.from_plan(
            model, plan, SimTransport(engine, net), tr_one
        ) as s:
            s.run_frame(frames[0])
        with PipelineSession.from_plan(
            model, plan, SimTransport(engine, net), tr_batch
        ) as s:
            s.run_stacked(frames)

        def span(events, kind, frame=0):
            return sum(
                e.end - e.start
                for e in events
                if e.kind == kind and e.frame == frame
            )

        assert span(tr_batch.events, "send") == pytest.approx(
            3 * span(tr_one.events, "send"), rel=1e-9
        )
        comp_one = span(tr_one.events, "compute")
        assert comp_one < span(tr_batch.events, "compute") < 3 * comp_one
        # Every member carries the same canonical sequence.
        for f in (1, 2):
            assert span(tr_batch.events, "send", f) == span(
                tr_batch.events, "send", 0
            )


class TestBatchedTiming:
    """batched_service and the StageTiming/PlanTiming projections."""

    def test_batched_service_formula(self):
        from repro.cost.tables import batched_service

        # service(B) = B·comm + comp·(f + B·(1−f))
        assert batched_service(2.0, 4.0, 1) == 6.0
        assert batched_service(2.0, 4.0, 3, amortized=0.5) == pytest.approx(
            3 * 2.0 + 4.0 * (0.5 + 3 * 0.5)
        )
        # amortized=0: no sharing — B independent frames.
        assert batched_service(2.0, 4.0, 3, amortized=0.0) == pytest.approx(
            3 * 6.0
        )
        # amortized=1: compute paid once.
        assert batched_service(2.0, 4.0, 3, amortized=1.0) == pytest.approx(
            3 * 2.0 + 4.0
        )
        with pytest.raises(ValueError, match="batch"):
            batched_service(1.0, 1.0, 0)
        with pytest.raises(ValueError, match="amortized"):
            batched_service(1.0, 1.0, 2, amortized=1.5)

    def test_stage_timing_batched_service(self, model, plan, net):
        timing = plan_timing(model, plan, net)
        for st in timing.stages:
            assert st.batched_service(1) == st.service
            b4 = st.batched_service(4)
            assert b4 < 4 * st.service or st.comp == 0.0
            assert b4 >= 4 * st.comm

    def test_plan_timing_batched_projections(self, model, plan, net):
        timing = plan_timing(model, plan, net)
        assert timing.batched_period(1) == timing.period
        assert timing.batched_latency(1) == timing.latency
        for b in (2, 4, 8):
            # Per-frame period shrinks (or holds) as compute amortises…
            assert timing.batched_period(b) <= timing.period
            # …while the batch as a unit takes longer than one frame.
            assert timing.batched_latency(b) > timing.latency
        # Full amortisation is monotone in B; none is flat.
        assert timing.batched_period(8, amortized=1.0) < timing.batched_period(
            2, amortized=1.0
        )
        assert timing.batched_period(4, amortized=0.0) == pytest.approx(
            timing.period
        )
