"""Pipelined serving: admission control, throughput, Theorem 2.

The serving layer's contract, from three angles:

* **Exactness** — the virtual server's completion times replay the
  discrete-event simulator exactly (same bounded queue, same FIFO
  service), and served outputs are bit-identical to plain single-frame
  execution on every backend.
* **Pipelining** — with frames in flight, steady-state throughput
  approaches ``1/period``; the ``max_in_flight=1`` baseline stays
  latency-bound.
* **Accounting** — every submitted frame ends as exactly one of
  done / shed / failed; nothing is silently lost.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.adaptive.queueing import (
    average_inference_latency,
    backlog_latency,
    validate_md1,
)
from repro.adaptive.switcher import build_apico_switcher
from repro.cluster.device import pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.core import InProcTransport, SimTransport
from repro.runtime.program import compile_plan
from repro.schemes.pico import PicoScheme
from repro.serve import FrameRecord, PipelineServer, ServeResult, ServerConfig
from repro.sim import simulate_scenario
from repro.workload.arrivals import poisson_arrivals_count, uniform_arrivals


@pytest.fixture(scope="module")
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture(scope="module")
def model():
    return toy_chain(4, 1, input_hw=32, in_channels=3, base_channels=8)


@pytest.fixture(scope="module")
def cluster():
    return pi_cluster(4, 1000.0)


@pytest.fixture(scope="module")
def plan(model, cluster, net):
    return PicoScheme().plan(model, cluster, net)


@pytest.fixture(scope="module")
def program(model, plan):
    return compile_plan(model, plan)


@pytest.fixture(scope="module")
def weights(model):
    return init_weights(model, seed=0)


def _sim_server(model, weights, net, program, config=None, compute=False,
                **kwargs):
    transport = SimTransport(Engine(model, weights), net, compute=compute)
    return PipelineServer(program, transport, config=config, **kwargs)


# ---------------------------------------------------------------------------
# ServerConfig / FrameRecord / ServeResult plumbing
# ---------------------------------------------------------------------------


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServerConfig(policy="drop-newest")
        with pytest.raises(ValueError):
            ServerConfig(max_in_flight=0)

    def test_shed_record_has_no_sojourn(self):
        record = FrameRecord(0, 1.0, "shed")
        assert not record.admitted
        with pytest.raises(ValueError):
            record.sojourn

    def test_result_partitions_records(self):
        records = [
            FrameRecord(0, 0.0, "done", admitted_at=0.0, completion=1.0),
            FrameRecord(1, 0.5, "shed"),
            FrameRecord(2, 0.6, "failed", admitted_at=0.6),
        ]
        result = ServeResult(records, {0: np.zeros(1)}, 1.0)
        assert result.submitted == 3
        assert [r.frame for r in result.completed] == [0]
        assert [r.frame for r in result.shed] == [1]
        assert [r.frame for r in result.failed] == [2]
        assert result.sojourns == [1.0]

    def test_serve_input_validation(self, model, weights, net, program):
        server = _sim_server(model, weights, net, program)
        with pytest.raises(ValueError, match="align"):
            server.serve(3, arrivals=[0.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            server.serve(2, arrivals=[1.0, 0.5])
        server.close()


# ---------------------------------------------------------------------------
# Virtual path: pipelining and exact agreement with the event simulator
# ---------------------------------------------------------------------------


class TestVirtualPipelining:
    def test_saturated_throughput_tracks_inv_period(self, model, weights,
                                                    net, plan, program):
        cost = plan_cost(model, plan, net)
        cfg = ServerConfig(queue_capacity=8, policy="block")
        server = _sim_server(model, weights, net, program, cfg)
        result = server.serve(24, arrivals=[0.0] * 24)
        server.close()
        steady = result.steady_throughput(warmup=program.n_stages)
        assert steady == pytest.approx(1.0 / cost.period, rel=0.15)

    def test_pipelined_beats_frame_at_a_time(self, model, weights, net,
                                             program):
        cfg = ServerConfig(queue_capacity=8, policy="block")
        pipelined = _sim_server(model, weights, net, program, cfg)
        res_pipe = pipelined.serve(16, arrivals=[0.0] * 16)
        pipelined.close()
        baseline_cfg = ServerConfig(
            queue_capacity=8, policy="block", max_in_flight=1
        )
        baseline = _sim_server(model, weights, net, program, baseline_cfg)
        res_base = baseline.serve(16, arrivals=[0.0] * 16)
        baseline.close()
        assert res_pipe.makespan < res_base.makespan
        speedup = res_pipe.steady_throughput(
            warmup=program.n_stages
        ) / res_base.steady_throughput(warmup=1)
        assert speedup >= 1.5

    def test_frame_at_a_time_is_latency_bound(self, model, weights, net,
                                              plan, program):
        cost = plan_cost(model, plan, net)
        cfg = ServerConfig(queue_capacity=8, policy="block", max_in_flight=1)
        server = _sim_server(model, weights, net, program, cfg)
        result = server.serve(8, arrivals=[0.0] * 8)
        server.close()
        assert result.steady_throughput(warmup=1) == pytest.approx(
            1.0 / cost.latency, rel=0.05
        )

    def test_completions_match_event_simulator(self, model, weights, net,
                                               plan, program):
        arrivals = poisson_arrivals_count(
            40.0, 30, np.random.default_rng(3)
        )
        cfg = ServerConfig(queue_capacity=10_000)  # effectively unbounded
        server = _sim_server(model, weights, net, program, cfg)
        result = server.serve(len(arrivals), arrivals=arrivals)
        server.close()
        sim = simulate_scenario(model, plan, network=net, arrivals=arrivals)
        assert len(result.completed) == sim.completed
        got = [r.completion for r in result.completed]
        want = [t.completion for t in sim.tasks]
        assert np.allclose(sorted(got), sorted(want))

    def test_shed_parity_with_event_simulator(self, model, weights, net,
                                              plan, program):
        cost = plan_cost(model, plan, net)
        rate = 3.0 / cost.period  # overload: the bounded queue must shed
        arrivals = poisson_arrivals_count(
            rate, 60, np.random.default_rng(11)
        )
        cfg = ServerConfig(queue_capacity=3, policy="shed")
        server = _sim_server(model, weights, net, program, cfg)
        result = server.serve(len(arrivals), arrivals=arrivals)
        server.close()
        sim = simulate_scenario(
            model, plan, network=net,
            arrivals=arrivals, queue_capacity=3,
        )
        assert [r.frame for r in result.shed] == list(sim.shed)
        assert len(result.shed) > 0
        got = [r.completion for r in result.completed]
        want = [t.completion for t in sim.tasks]
        assert np.allclose(sorted(got), sorted(want))
        assert len(result.completed) + len(result.shed) == result.submitted

    def test_block_policy_delays_instead_of_shedding(self, model, weights,
                                                     net, plan, program):
        cost = plan_cost(model, plan, net)
        rate = 3.0 / cost.period
        arrivals = poisson_arrivals_count(
            rate, 40, np.random.default_rng(11)
        )
        cfg = ServerConfig(queue_capacity=3, policy="block")
        server = _sim_server(model, weights, net, program, cfg)
        result = server.serve(len(arrivals), arrivals=arrivals)
        server.close()
        assert not result.shed
        assert len(result.completed) == result.submitted
        delayed = [r for r in result.completed if r.admitted_at > r.arrival]
        assert delayed, "overload under backpressure must delay admissions"

    def test_compute_false_matches_compute_true_timestamps(
        self, model, weights, net, program
    ):
        arrivals = list(uniform_arrivals(50.0, 0.5))
        timed = _sim_server(model, weights, net, program, compute=True)
        res_full = timed.serve(len(arrivals), arrivals=arrivals)
        timed.close()
        fast = _sim_server(model, weights, net, program, compute=False)
        res_fast = fast.serve(len(arrivals), arrivals=arrivals)
        fast.close()
        assert [r.completion for r in res_full.records] == [
            r.completion for r in res_fast.records
        ]

    def test_served_outputs_bit_exact(self, model, weights, net, program):
        rng = np.random.default_rng(5)
        frames = [
            rng.standard_normal(model.input_shape).astype(np.float32)
            for _ in range(3)
        ]
        engine = Engine(model, weights)
        server = _sim_server(model, weights, net, program, compute=True)
        result = server.serve(frames, arrivals=[0.0, 0.0, 0.0])
        server.close()
        for i, frame in enumerate(frames):
            assert np.array_equal(
                result.outputs[i], engine.forward_features(frame)
            )


# ---------------------------------------------------------------------------
# Theorem 2 validation against measured sojourns
# ---------------------------------------------------------------------------


class TestQueueingValidation:
    def test_backlog_latency(self):
        assert backlog_latency(0.1, 0.5, 0) == pytest.approx(0.5)
        assert backlog_latency(0.1, 0.5, 4) == pytest.approx(0.9)
        with pytest.raises(ValueError):
            backlog_latency(0.1, 0.5, -1)

    def test_validate_md1_needs_data(self):
        with pytest.raises(ValueError):
            validate_md1([], 0.1, 0.5, 1.0)

    def test_measured_sojourn_matches_theorem2(self, model, weights, net,
                                               plan, program):
        cost = plan_cost(model, plan, net)
        rho = 0.5
        rate = rho / cost.period
        arrivals = poisson_arrivals_count(
            rate, 300, np.random.default_rng(0)
        )
        cfg = ServerConfig(queue_capacity=64, policy="block")
        server = _sim_server(model, weights, net, program, cfg)
        result = server.serve(len(arrivals), arrivals=arrivals)
        server.close()
        check = validate_md1(
            result.sojourns, cost.period, cost.latency, rate
        )
        assert check["utilisation"] == pytest.approx(rho)
        assert check["rel_error"] <= 0.20
        assert check["predicted_mean"] == pytest.approx(
            average_inference_latency(cost.period, cost.latency, rate)
        )


# ---------------------------------------------------------------------------
# Adaptive switching fed by the measured queue
# ---------------------------------------------------------------------------


class TestAdaptiveServing:
    def test_switches_to_pipelined_under_load(self, model, weights, net,
                                              cluster):
        from repro.adaptive.estimator import ArrivalRateTracker

        probe = build_apico_switcher(model, cluster, net)
        by_name = {c.name: c for c in probe.candidates}
        pico = by_name["PICO"]
        others = [c for c in probe.candidates if c.name != "PICO"]
        assert others, "APICO needs a one-stage candidate to switch from"
        # A rate high enough that PICO's short period wins, low enough
        # that the one-stage plan still drains (so the queue hits zero
        # and the server reaches a drain boundary to switch at).
        rate = 0.8 / max(c.period for c in others)
        # The default 10 s measurement window dwarfs this toy model's
        # millisecond periods; scale it to ~10 inter-arrival gaps.
        switcher = build_apico_switcher(
            model, cluster, net,
            tracker=ArrivalRateTracker(window_s=10.0 / rate),
        )
        assert switcher.active.name != "PICO", (
            "at rate 0 the one-stage plan's lower latency should win"
        )
        assert pico.estimated_latency(rate) < min(
            c.estimated_latency(rate) for c in others
        )
        arrivals = list(uniform_arrivals(rate, 60 / rate))[:60]
        program0 = compile_plan(model, switcher.active.plan)
        server = _sim_server(
            model, weights, net, program0, ServerConfig(queue_capacity=32),
            switcher=switcher, tracer=True,
        )
        result = server.serve(len(arrivals), arrivals=arrivals)
        server.close()
        assert len(result.completed) == len(arrivals)
        assert "PICO" in result.plan_usage
        assert any(
            e.kind == "replan" and e.device == "PICO" for e in result.trace
        )

    def test_threaded_switcher_follows_a_rate_step(self, model, weights,
                                                   net, cluster):
        """A scripted low → high → low rate step on the wall clock: the
        switcher's plan is adopted at drain boundaries (this toy model
        computes far inside its modelled period, so the system empties
        between arrivals), every frame is accounted for, and each done
        frame equals a plain session run of the plan its record names."""
        from repro.adaptive.estimator import ArrivalRateTracker
        from repro.runtime.core import PipelineSession

        probe = build_apico_switcher(model, cluster, net)
        slow = max(c.period for c in probe.candidates if c.name != "PICO")
        low, high = 0.05 / slow, 0.8 / slow
        arrivals, t = [], 0.0
        for rate, n in ((low, 4), (high, 30), (low, 4)):
            for _ in range(n):
                t += 1.0 / rate
                arrivals.append(t)
        switcher = build_apico_switcher(
            model, cluster, net,
            tracker=ArrivalRateTracker(window_s=10.0 / high),
        )
        plans = {c.name: c.plan for c in switcher.candidates}
        rng = np.random.default_rng(21)
        frames = [
            rng.standard_normal(model.input_shape).astype(np.float32)
            for _ in arrivals
        ]
        server = PipelineServer(
            compile_plan(model, switcher.active.plan),
            InProcTransport(Engine(model, weights)),
            ServerConfig(queue_capacity=32), tracer=True, switcher=switcher,
        )
        with server:
            result = server.serve(frames, arrivals=arrivals)
        assert sorted(r.frame for r in result.records) == list(
            range(len(frames))
        )
        assert all(r.status in ("done", "shed", "failed") for r in result.records)
        switches = [e for e in result.trace if e.kind == "replan"]
        assert switches and len(result.plan_usage) > 1
        assert sum(result.plan_usage.values()) == len(result.completed)
        for record in result.completed:
            with PipelineSession(
                compile_plan(model, plans[record.plan]),
                InProcTransport(Engine(model, weights)),
            ) as oracle:
                want = oracle.run_frame(frames[record.frame])
            assert np.array_equal(result.outputs[record.frame], want)

    def test_queue_depth_overrides_stale_rate(self, model, cluster, net):
        switcher = build_apico_switcher(model, cluster, net)
        slowest = max(switcher.candidates, key=lambda c: c.period)
        fastest = min(switcher.candidates, key=lambda c: c.period)
        # At rate ~0 the steady-state estimates favour low latency, but a
        # deep measured backlog makes the short-period plan win.
        depth = 200
        assert switcher.choose(0.0, depth) == fastest
        assert slowest.backlog_latency(depth) > fastest.backlog_latency(depth)


# ---------------------------------------------------------------------------
# Threaded (wall-clock) path: frames genuinely in flight
# ---------------------------------------------------------------------------


class TestThreadedServing:
    def test_inproc_multiframe_bit_exact(self, model, weights, net, program):
        rng = np.random.default_rng(9)
        frames = [
            rng.standard_normal(model.input_shape).astype(np.float32)
            for _ in range(4)
        ]
        engine = Engine(model, weights)
        expected = [engine.forward_features(f) for f in frames]
        server = PipelineServer(
            program, InProcTransport(Engine(model, weights)),
            ServerConfig(queue_capacity=4, policy="block"),
        )
        result = server.serve(frames, arrivals=[0.0] * 4)
        server.close()
        assert len(result.completed) == 4
        assert not result.failed and not result.shed
        for i, want in enumerate(expected):
            assert np.array_equal(result.outputs[i], want)

    def test_threaded_records_account_for_every_frame(self, model, weights,
                                                      net, program):
        server = PipelineServer(
            program, InProcTransport(Engine(model, weights)),
            ServerConfig(queue_capacity=2, policy="block"),
        )
        result = server.serve(6)
        server.close()
        assert result.submitted == 6
        assert sorted(r.frame for r in result.records) == list(range(6))
        assert len(result.completed) == 6

    @pytest.mark.parametrize("backend", ["inproc", "sim"])
    def test_each_call_traces_only_its_own_frames(self, model, weights, net,
                                                  program, backend):
        """The tracer outlives a call; each ``ServeResult.trace`` holds
        only the events of its own call's two frames."""
        engine = Engine(model, weights)
        transport = (
            InProcTransport(engine) if backend == "inproc"
            else SimTransport(engine, net)
        )
        server = PipelineServer(
            program, transport, ServerConfig(queue_capacity=2, policy="block"),
            tracer=True,
        )
        first, second = server.serve(2), server.serve(2)
        server.close()
        assert len(server.tracer) == len(first.trace) + len(second.trace)
        assert server.tracer.events == first.trace + second.trace
        for result in (first, second):
            assert len({e.frame for e in result.trace}) == 2
            kinds = sorted(e.kind for e in result.trace)
            assert kinds == sorted(e.kind for e in first.trace)


# ---------------------------------------------------------------------------
# Event-simulator admission control (queue_capacity plumbing)
# ---------------------------------------------------------------------------


class TestSimulatorQueueCapacity:
    def test_unbounded_by_default(self, model, plan, net):
        arrivals = [0.0] * 10
        sim = simulate_scenario(model, plan, network=net, arrivals=arrivals)
        assert sim.shed == () and sim.completed == 10

    def test_bounded_queue_sheds_and_reports(self, model, plan, net):
        arrivals = [0.0] * 10
        sim = simulate_scenario(
            model, plan, network=net,
            arrivals=arrivals, queue_capacity=4,
        )
        assert len(sim.shed) == 6
        assert sim.completed == 4
        assert sim.submitted == 10

    def test_shed_events_in_trace(self, model, plan, net):
        sim = simulate_scenario(
            model, plan, network=net, arrivals=[0.0] * 6, queue_capacity=2, trace=True
        )
        shed_events = [e for e in sim.trace if e.kind == "shed"]
        assert sorted(e.frame for e in shed_events) == list(sim.shed)

    def test_public_simulate_threads_capacity(self, model, cluster, net):
        import repro

        sim = repro.simulate(
            model, "pico", cluster, network=net,
            arrivals=[0.0] * 8, queue_capacity=3,
        )
        assert len(sim.shed) == 5 and sim.completed == 3


# ---------------------------------------------------------------------------
# Cross-frame micro-batching (max_batch / batch_timeout)
# ---------------------------------------------------------------------------


class TestBatchedServing:
    def test_batch_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServerConfig(batch_timeout=-0.1)
        with pytest.raises(ValueError, match="max_in_flight"):
            ServerConfig(max_batch=2, max_in_flight=1)
        cfg = ServerConfig(max_batch=4, batch_timeout=0.01)
        assert cfg.max_batch == 4

    def test_result_batch_stats(self):
        records = [
            FrameRecord(0, 0.0, "done", admitted_at=0.0, completion=1.0,
                        batch=2),
            FrameRecord(1, 0.0, "done", admitted_at=0.0, completion=1.0,
                        batch=2),
            FrameRecord(2, 0.1, "done", admitted_at=0.1, completion=2.0,
                        batch=1),
            FrameRecord(3, 0.2, "shed"),
        ]
        result = ServeResult(records, {}, 2.0)
        assert result.batch_sizes == [2, 2, 1]
        assert np.isclose(result.mean_batch, 5.0 / 3.0)
        assert result.percentile_batch(50.0) == 2
        assert result.percentile_batch(100.0) == 2

    def test_virtual_batched_bit_exact_and_batches_form(
        self, model, weights, net, program
    ):
        rng = np.random.default_rng(11)
        frames = [
            rng.standard_normal(model.input_shape).astype(np.float32)
            for _ in range(6)
        ]
        arrivals = [0.0] * 6
        base_cfg = ServerConfig(queue_capacity=8, policy="block")
        server = _sim_server(model, weights, net, program, base_cfg,
                             compute=True)
        baseline = server.serve(frames, arrivals=list(arrivals))
        server.close()

        cfg = ServerConfig(queue_capacity=8, policy="block", max_batch=3,
                           batch_timeout=0.0)
        server = _sim_server(model, weights, net, program, cfg, compute=True)
        batched = server.serve(frames, arrivals=list(arrivals))
        server.close()

        assert {r.frame for r in batched.completed} == {
            r.frame for r in baseline.completed
        }
        for i in range(6):
            assert np.array_equal(batched.outputs[i], baseline.outputs[i])
        assert batched.mean_batch > 1.0
        assert all(r.batch >= 1 for r in batched.completed)

    def test_batch_timeout_holds_launch_for_stragglers(
        self, model, weights, net, program
    ):
        # Two frames 1 ms apart with a generous window must share a batch.
        cfg = ServerConfig(queue_capacity=4, policy="block", max_batch=2,
                           batch_timeout=1.0)
        server = _sim_server(model, weights, net, program, cfg)
        result = server.serve(2, arrivals=[0.0, 0.001])
        server.close()
        assert len(result.completed) == 2
        assert result.batch_sizes == [2, 2]

    def test_full_batch_launches_without_waiting_out_timeout(
        self, model, weights, net, program
    ):
        # max_batch frames already queued: launch at the last admit, not
        # at first_admit + batch_timeout.
        cfg = ServerConfig(queue_capacity=4, policy="block", max_batch=2,
                           batch_timeout=100.0)
        server = _sim_server(model, weights, net, program, cfg)
        result = server.serve(2, arrivals=[0.0, 0.0])
        server.close()
        assert len(result.completed) == 2
        assert max(r.completion for r in result.completed) < 100.0

    def test_last_frame_closes_the_window_on_both_clocks(
        self, model, weights, net, program
    ):
        # A partial batch that holds the schedule's last frame has no
        # straggler left to wait for: it launches on its last admit, in
        # virtual time as on the wall clock.
        cfg = ServerConfig(queue_capacity=4, policy="block", max_batch=4,
                           batch_timeout=100.0)
        server = _sim_server(model, weights, net, program, cfg)
        virtual = server.serve(2, arrivals=[0.0, 0.001])
        server.close()
        assert virtual.batch_sizes == [2, 2]
        assert max(r.completion for r in virtual.completed) < 100.0

        server = PipelineServer(
            program, InProcTransport(Engine(model, weights)),
            ServerConfig(queue_capacity=4, policy="block", max_batch=4,
                         batch_timeout=30.0),
        )
        start = time.perf_counter()
        threaded = server.serve(2, arrivals=[0.0, 0.0])
        server.close()
        assert len(threaded.completed) == 2
        assert time.perf_counter() - start < 30.0

    def test_threaded_batched_bit_exact(self, model, weights, net, program):
        rng = np.random.default_rng(12)
        frames = [
            rng.standard_normal(model.input_shape).astype(np.float32)
            for _ in range(6)
        ]
        engine = Engine(model, weights)
        expected = [engine.forward_features(f) for f in frames]
        server = PipelineServer(
            program, InProcTransport(Engine(model, weights)),
            ServerConfig(queue_capacity=6, policy="block", max_batch=3,
                         batch_timeout=0.005),
        )
        result = server.serve(frames, arrivals=[0.0] * 6)
        server.close()
        assert len(result.completed) == 6
        assert not result.failed and not result.shed
        for i, want in enumerate(expected):
            assert np.array_equal(result.outputs[i], want)
        assert sorted(r.frame for r in result.records) == list(range(6))

    def test_max_batch_one_is_the_legacy_path(self, model, weights, net,
                                              program):
        # max_batch=1 must leave records exactly as the per-frame server.
        arrivals = [0.002 * i for i in range(8)]
        a = _sim_server(model, weights, net, program,
                        ServerConfig(queue_capacity=4))
        base = a.serve(8, arrivals=list(arrivals))
        a.close()
        b = _sim_server(model, weights, net, program,
                        ServerConfig(queue_capacity=4, max_batch=1))
        got = b.serve(8, arrivals=list(arrivals))
        b.close()
        assert [
            (r.frame, r.status, r.admitted_at, r.completion, r.batch)
            for r in base.records
        ] == [
            (r.frame, r.status, r.admitted_at, r.completion, r.batch)
            for r in got.records
        ]


# ---------------------------------------------------------------------------
# Transport backpressure at admission (threaded path, both policies)
# ---------------------------------------------------------------------------


class _SaturatedTransport(InProcTransport):
    """An InProc transport whose internal buffering reports saturated
    for the first ``release_after`` backpressure polls."""

    def __init__(self, engine, release_after):
        super().__init__(engine)
        self.release_after = release_after
        self.polls = 0

    def backpressure(self):
        self.polls += 1
        return 1.0 if self.polls <= self.release_after else 0.0


class TestTransportBackpressure:
    def test_block_waits_for_transport_to_drain(self, model, weights,
                                                program):
        transport = _SaturatedTransport(Engine(model, weights), 3)
        server = PipelineServer(
            program, transport,
            ServerConfig(queue_capacity=4, policy="block"),
        )
        result = server.serve(2, arrivals=[0.0, 0.0])
        server.close()
        assert transport.polls > 3, "block admission must poll backpressure"
        assert len(result.completed) == 2
        assert not result.shed and not result.failed

    def test_shed_on_saturated_transport(self, model, weights, program):
        # saturated for exactly the first frame's admission poll
        transport = _SaturatedTransport(Engine(model, weights), 1)
        server = PipelineServer(
            program, transport,
            ServerConfig(queue_capacity=4, policy="shed"),
        )
        result = server.serve(3, arrivals=[0.0, 0.0, 0.0])
        server.close()
        assert [r.frame for r in result.shed] == [0]
        assert len(result.completed) == 2


# ---------------------------------------------------------------------------
# Threaded admission counts frames in the system
# ---------------------------------------------------------------------------


class _AdmissionSpy(InProcTransport):
    """Counts the frames between their first dispatch at stage 0 and
    the end of their last stage (a lower bound on the frames admitted
    and not yet delivered); every stage takes ``delay`` seconds."""

    def __init__(self, engine, last_stage, delay=0.004):
        super().__init__(engine)
        self.last_stage = last_stage
        self.delay = delay
        self.held = self.peak = 0
        self._lock = threading.Lock()

    @staticmethod
    def _frames(tiles):
        return tiles[0].shape[1] if tiles[0].ndim == 4 else 1

    def dispatch(self, stage_index, tiles, frame):
        if stage_index == 0:
            with self._lock:
                self.held += self._frames(tiles)
                self.peak = max(self.peak, self.held)
        return super().dispatch(stage_index, tiles, frame)

    def run_tasks(self, stage_index, tiles, frame):
        time.sleep(self.delay)
        result = super().run_tasks(stage_index, tiles, frame)
        if stage_index == self.last_stage:
            with self._lock:
                self.held -= self._frames(tiles)
        return result


class TestThreadedAdmission:
    @pytest.mark.parametrize("max_batch", [1, 2])
    @pytest.mark.parametrize("policy", ["block", "shed"])
    def test_queue_capacity_bounds_frames_in_the_system(
        self, model, weights, program, policy, max_batch
    ):
        """However many frames the stages hold (each dispatches one
        ahead), admitted-but-undelivered frames never exceed
        ``queue_capacity``: the stages cannot add to the bound."""
        capacity = 3
        assert program.n_stages >= 2
        spy = _AdmissionSpy(Engine(model, weights), program.n_stages - 1)
        server = PipelineServer(
            program, spy,
            ServerConfig(queue_capacity=capacity, policy=policy,
                         max_batch=max_batch),
        )
        result = server.serve(12, arrivals=[0.0] * 12)
        server.close()
        assert 1 <= spy.peak <= capacity
        assert spy.held == 0
        assert sorted(r.frame for r in result.records) == list(range(12))
        assert not result.failed
        if policy == "block":
            assert len(result.completed) == 12
        else:  # a burst of 12 into 3 places sheds
            assert result.shed and len(result.completed) >= capacity


# ---------------------------------------------------------------------------
# Virtual block + batching matches the threaded block semantics
# ---------------------------------------------------------------------------


class TestVirtualBlockBatched:
    def test_unblocked_frame_rides_the_forming_batch(self, model, weights,
                                                     net, program):
        """A frame blocked at a full system admits at the freeing
        completion and still joins the batch it waited behind — the
        virtual replay of a threaded arrival entering the admission
        queue while the entrance window is open."""
        cfg = ServerConfig(queue_capacity=2, policy="block", max_batch=2,
                           batch_timeout=0.0)
        probe = _sim_server(model, weights, net, program, cfg)
        first = probe.serve(2, arrivals=[0.0, 0.0])
        probe.close()
        c = max(r.completion for r in first.completed)

        window = ServerConfig(queue_capacity=3, policy="block", max_batch=2,
                              batch_timeout=20.0 * c)
        server = _sim_server(model, weights, net, program, window)
        # frames 0+1 fill a batch at t=0 and complete at c; frame 2
        # admits mid-flight and holds the window open; frame 3 arrives
        # to a full system and must wait for the in-flight batch
        result = server.serve(4, arrivals=[0.0, 0.0, 0.5 * c, 0.6 * c])
        server.close()

        records = {r.frame: r for r in result.completed}
        assert len(records) == 4 and not result.shed and not result.failed
        assert records[2].batch == 2 and records[3].batch == 2
        assert records[2].admitted_at == pytest.approx(0.5 * c)
        # frame 3 unblocked exactly when the first batch departed ...
        assert records[3].admitted_at == pytest.approx(c)
        # ... and rode the same batch as the frame it queued behind
        assert records[3].completion == records[2].completion

    def test_blocked_batched_bit_exact_vs_unbatched(self, model, weights,
                                                    net, program):
        rng = np.random.default_rng(21)
        frames = [
            rng.standard_normal(model.input_shape).astype(np.float32)
            for _ in range(6)
        ]
        base = _sim_server(
            model, weights, net, program,
            ServerConfig(queue_capacity=2, policy="block"), compute=True,
        )
        baseline = base.serve(frames, arrivals=[0.0] * 6)
        base.close()
        batched = _sim_server(
            model, weights, net, program,
            ServerConfig(queue_capacity=2, policy="block", max_batch=3,
                         batch_timeout=0.01),
            compute=True,
        )
        got = batched.serve(frames, arrivals=[0.0] * 6)
        batched.close()
        assert len(got.completed) == 6 == len(baseline.completed)
        for i in range(6):
            assert np.array_equal(got.outputs[i], baseline.outputs[i])
