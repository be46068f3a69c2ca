"""Fault tolerance: detection, retry/backoff, churn re-planning, and
the unified public API.

The recovery contract under test: with the default ``"migrate"``
repartition policy, a crashed device's *compiled* tasks move verbatim
to survivors, so tile geometry — and therefore every output float — is
unchanged.  Only a full re-plan (threshold breach or a stage losing all
its devices) changes geometry, and then outputs are float-close, not
bit-equal.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.cluster.device import pi_cluster
from repro.cost.comm import NetworkModel
from repro.cost.flops import DEFAULT_OPTIONS
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.core import InProcTransport, PipelineSession, SimTransport
from repro.runtime.faults import (
    FaultSchedule,
    RuntimeConfig,
    StageFailure,
    replan_or_degrade,
)
from repro.runtime.program import compile_plan
from repro.runtime.trace import (
    RECOVERY_KINDS,
    Tracer,
    canonical_trace,
    coerce_tracer,
)
from repro.schemes import available_schemes, get_scheme
from repro.schemes.base import PlanningError, weighted_assignments
from repro.schemes.local import local_fallback_plan
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig
from repro.sim import simulate_scenario
from repro.testing.faults import churn_replanner
from tests.conftest import serve_on_workers


@pytest.fixture(scope="module")
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture(scope="module")
def model():
    return toy_chain(6, 1, input_hw=40, in_channels=3, base_channels=8)


@pytest.fixture(scope="module")
def cluster():
    return pi_cluster(4, 800.0)


@pytest.fixture(scope="module")
def plan(model, cluster, net):
    return PicoScheme().plan(model, cluster, net)


@pytest.fixture(scope="module")
def program(model, plan):
    return compile_plan(model, plan)


@pytest.fixture(scope="module")
def weights(model):
    return init_weights(model, seed=0)


@pytest.fixture(scope="module")
def frames(model):
    rng = np.random.default_rng(7)
    return [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(3)
    ]


@pytest.fixture(scope="module")
def baseline(model, program, weights, frames):
    with PipelineSession(
        program, InProcTransport(Engine(model, weights))
    ) as session:
        return [session.run_frame(x) for x in frames]


def _run_faulty(model, program, weights, frames, faults, backend, net,
                config=None, replanner=None):
    engine = Engine(model, weights)
    if backend == "inproc":
        transport = InProcTransport(engine, faults=faults)
    else:
        transport = SimTransport(engine, net, faults=faults)
    tracer = Tracer()
    with PipelineSession(
        program, transport, tracer,
        config or RuntimeConfig(), replanner=replanner,
    ) as session:
        outputs = [session.run_frame(x) for x in frames]
    return outputs, tracer.events


def _recovery(events):
    return [e.kind for e in events if e.kind in RECOVERY_KINDS]


# ---------------------------------------------------------------------------
# RuntimeConfig / FaultSchedule primitives
# ---------------------------------------------------------------------------


class TestRuntimeConfig:
    def test_defaults_and_backoff(self):
        from repro.runtime.faults import (
            BACKOFF_BASE_S, BACKOFF_FACTOR, MAX_RETRIES, backoff,
        )

        cfg = RuntimeConfig()
        assert cfg.recv_timeout_s is None and cfg.replan_threshold == 0.25
        assert MAX_RETRIES >= 1 and BACKOFF_FACTOR >= 1.0
        assert backoff(0) == pytest.approx(BACKOFF_BASE_S)
        assert backoff(2) == pytest.approx(BACKOFF_BASE_S * BACKOFF_FACTOR**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(replan_threshold=1.5)
        with pytest.raises(ValueError):
            RuntimeConfig(recv_timeout_s=0.0)


class TestFaultSchedule:
    def test_chainable_and_immutable(self):
        base = FaultSchedule()
        full = base.crash("pi0", at_frame=1).drop("pi1", frame=0)
        assert base.empty and not full.empty
        assert full.crashes[0].device == "pi0"

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule().crash("pi0", at_frame=-1)
        with pytest.raises(ValueError):
            FaultSchedule().delay("pi0", frame=0, seconds=-0.1)
        with pytest.raises(ValueError):
            FaultSchedule().drop("pi0", frame=0, times=0)
        with pytest.raises(ValueError):
            FaultSchedule().flaky_link("pi0", frame=0, failures=0)

    def test_injector_consumes_drops(self):
        inj = FaultSchedule().drop("pi0", frame=2).start()
        assert not inj.take_drop("pi0", 1)
        assert inj.take_drop("pi0", 2)
        assert not inj.take_drop("pi0", 2)  # consumed
        assert inj.crashed("pi0", 2) is False

    def test_injector_crash_is_permanent(self):
        inj = FaultSchedule().crash("pi1", at_frame=1).start()
        assert not inj.crashed("pi1", 0)
        assert inj.crashed("pi1", 1) and inj.crashed("pi1", 5)


# ---------------------------------------------------------------------------
# Crash recovery: migrate policy is bit-exact on both backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["inproc", "sim"])
def test_crash_recovery_bit_exact(model, program, weights, frames,
                                  baseline, net, backend):
    victim = program.stages[0].tasks[0].device_name
    faults = FaultSchedule().crash(victim, at_frame=1)
    outputs, events = _run_faulty(
        model, program, weights, frames, faults, backend, net
    )
    assert len(outputs) == len(baseline)
    for got, want in zip(outputs, baseline):
        assert np.array_equal(got, want)
    recovery = _recovery(events)
    assert "device_dead" in recovery and "frame_replayed" in recovery
    assert recovery.index("device_dead") < recovery.index("frame_replayed")


def test_crash_canonical_traces_agree(model, program, weights, frames,
                                      net):
    victim = program.stages[0].tasks[0].device_name
    faults = FaultSchedule().crash(victim, at_frame=1)
    _, ev_a = _run_faulty(
        model, program, weights, frames, faults, "inproc", net
    )
    _, ev_b = _run_faulty(
        model, program, weights, frames, faults, "sim", net
    )
    assert canonical_trace(ev_a) == canonical_trace(ev_b)


@pytest.mark.parametrize("backend", ["inproc", "sim"])
def test_drop_and_flaky_retry(model, program, weights, frames, baseline,
                              net, backend):
    dev0 = program.stages[0].tasks[0].device_name
    faults = (FaultSchedule()
              .drop(dev0, frame=0)
              .flaky_link(dev0, frame=2))
    outputs, events = _run_faulty(
        model, program, weights, frames, faults, backend, net
    )
    for got, want in zip(outputs, baseline):
        assert np.array_equal(got, want)
    retries = [(e.frame, e.device) for e in events if e.kind == "retry"]
    assert (0, dev0) in retries and (2, dev0) in retries
    # a retried fault never kills the device
    assert "device_dead" not in _recovery(events)


def test_delay_inflates_sim_clock_only(model, program, weights, frames,
                                       baseline, net):
    dev0 = program.stages[0].tasks[0].device_name
    slow = FaultSchedule().delay(dev0, frame=1, seconds=0.5)
    outputs, events = _run_faulty(
        model, program, weights, frames, slow, "sim", net
    )
    _, clean_events = _run_faulty(
        model, program, weights, frames, FaultSchedule(), "sim", net
    )
    for got, want in zip(outputs, baseline):
        assert np.array_equal(got, want)
    # virtual clock stretches, canonical (timestamp-free) trace doesn't
    assert max(e.end for e in events) > max(e.end for e in clean_events)
    assert canonical_trace(events) == canonical_trace(clean_events)


def test_fault_free_run_emits_no_recovery_events(model, program, weights,
                                                 frames, net):
    _, events = _run_faulty(
        model, program, weights, frames, FaultSchedule(), "inproc", net
    )
    assert _recovery(events) == []


# ---------------------------------------------------------------------------
# Escalation: stage wiped out -> forced replan / degrade / raise
# ---------------------------------------------------------------------------


def test_stage_wipeout_without_replanner_raises(model, program, weights,
                                                frames, net):
    stage0 = [t.device_name for t in program.stages[0].tasks]
    faults = FaultSchedule()
    for name in stage0:
        faults = faults.crash(name, at_frame=0)
    engine = Engine(model, weights)
    with PipelineSession(
        program, InProcTransport(engine, faults=faults),
        Tracer(), RuntimeConfig(),
    ) as session:
        with pytest.raises(StageFailure):
            for x in frames:
                session.run_frame(x)


def test_stage_wipeout_with_replanner_recovers(model, program, weights,
                                               frames, baseline, cluster,
                                               net):
    stage0 = [t.device_name for t in program.stages[0].tasks]
    faults = FaultSchedule()
    for name in stage0:
        faults = faults.crash(name, at_frame=1)
    replanner = churn_replanner(
        model, cluster, net, scheme=PicoScheme()
    )
    outputs, events = _run_faulty(
        model, program, weights, frames, faults, "inproc", net,
        replanner=replanner,
    )
    recovery = _recovery(events)
    assert recovery.count("device_dead") == len(stage0)
    assert "replan" in recovery or "degraded" in recovery
    # re-planned geometry differs, so float-close rather than bit-equal
    for got, want in zip(outputs, baseline):
        assert np.allclose(got, want, atol=1e-4)


class _FullClusterOnly(PicoScheme):
    """Plans the full cluster and nothing smaller, so every re-plan
    over survivors has to degrade."""

    def plan(self, model, cluster, network, options=DEFAULT_OPTIONS):
        if len(cluster) < 4:
            raise PlanningError("needs all four devices")
        return super().plan(model, cluster, network, options)


def test_degraded_arm_is_one_helper_for_session_and_simulator(
    model, program, weights, frames, baseline, cluster, net
):
    """The runtime ladder and the event simulator take the same
    replan-or-degrade decision: an unplannable survivor set lands both
    on the fastest survivor with kind ``"degraded"``."""
    scheme = _FullClusterOnly()
    stage0 = [t.device_name for t in program.stages[0].tasks]
    faults = FaultSchedule()
    for name in stage0:
        faults = faults.crash(name, at_frame=1)
    survivors = [d for d in cluster if d.name not in stage0]

    fallback, kind = replan_or_degrade(
        model, survivors, lambda c: scheme.plan(model, c, net)
    )
    assert kind == "degraded"
    assert fallback.all_devices == (survivors[0],)
    with pytest.raises(StageFailure):
        replan_or_degrade(model, ())

    outputs, events = _run_faulty(
        model, program, weights, frames, faults, "inproc", net,
        replanner=churn_replanner(model, cluster, net, scheme=scheme),
    )
    assert "degraded" in _recovery(events)
    assert "replan" not in _recovery(events)
    for got, want in zip(outputs, baseline):
        assert np.allclose(got, want, atol=1e-4)

    sim = simulate_scenario(
        model, scheme, cluster, network=net,
        arrivals=[0.1 * i for i in range(4)], faults=faults, trace=True,
    )
    kinds = [e.kind for e in sim.trace if e.kind in RECOVERY_KINDS]
    assert kinds == ["device_dead"] * len(stage0) + ["degraded"]
    assert sim.plan_usage == {"PICO": 1, "PICO+degraded": 3}


def test_churn_replanner_needs_scheme_or_switcher(model, cluster, net):
    with pytest.raises(ValueError):
        churn_replanner(model, cluster, net)


def test_local_fallback_plan_is_single_exclusive_stage(model, cluster):
    fallback = local_fallback_plan(model, cluster.devices[0])
    assert len(fallback.stages) == 1
    stage = fallback.stages[0]
    assert stage.start == 0 and stage.end == len(model.units)
    assert len(stage.assignments) == 1


# ---------------------------------------------------------------------------
# Planner guard
# ---------------------------------------------------------------------------


def test_weighted_assignments_overfull_raises(net):
    tiny = toy_chain(2, 0, input_hw=4, in_channels=3, base_channels=4)
    crowd = pi_cluster(8, 800.0).devices
    with pytest.raises(PlanningError):
        weighted_assignments(tiny, 1, crowd)
    idle_ok = weighted_assignments(tiny, 1, crowd, allow_idle=True)
    assert len(idle_ok) == len(crowd)
    assert any(region.empty for _, region in idle_ok)


# ---------------------------------------------------------------------------
# Unified public API: get_scheme, simulate, shims, coerce_tracer
# ---------------------------------------------------------------------------


class TestSchemeRegistry:
    def test_known_names(self):
        assert set(available_schemes()) == {"pico", "lw", "efl", "ofl", "iop"}
        for name in available_schemes():
            assert get_scheme(name) is not None

    def test_case_insensitive(self):
        assert type(get_scheme(" PICO ")) is type(get_scheme("pico"))

    def test_unknown_name_lists_available(self):
        with pytest.raises(PlanningError, match="pico"):
            get_scheme("nope")


class TestSimulateDispatch:
    ARRIVALS = (0.0, 0.05, 0.1)

    def test_name_scheme_and_plan_agree(self, model, cluster, plan, net):
        by_name = repro.simulate(
            model, "pico", cluster, network=net, arrivals=self.ARRIVALS
        )
        by_scheme = repro.simulate(
            model, PicoScheme(), cluster, network=net,
            arrivals=self.ARRIVALS,
        )
        by_plan = repro.simulate(
            model, plan, network=net, arrivals=self.ARRIVALS
        )
        assert by_name.makespan == pytest.approx(by_scheme.makespan)
        assert by_name.makespan == pytest.approx(by_plan.makespan)
        assert by_name.completed == len(self.ARRIVALS)

    def test_requires_arrivals(self, model, cluster):
        with pytest.raises(ValueError, match="arrivals"):
            repro.simulate(model, "pico", cluster)

    def test_scheme_needs_cluster(self, model):
        with pytest.raises(ValueError):
            repro.simulate(model, "pico", arrivals=self.ARRIVALS)

    def test_bare_plan_rejects_crashes(self, model, plan, net):
        faults = FaultSchedule().crash("pi0", at_frame=1)
        with pytest.raises(ValueError):
            repro.simulate(
                model, plan, network=net, arrivals=self.ARRIVALS,
                faults=faults,
            )

    def test_switcher_rejects_faults(self, model, cluster, net):
        from repro.adaptive.switcher import build_apico_switcher

        switcher = build_apico_switcher(model, cluster, net)
        faults = FaultSchedule().crash("pi0", at_frame=1)
        with pytest.raises(ValueError):
            repro.simulate(
                model, switcher, cluster, network=net,
                arrivals=self.ARRIVALS, faults=faults,
            )

    def test_rejects_unknown_target(self, model, cluster):
        with pytest.raises(TypeError):
            repro.simulate(model, 42, cluster, arrivals=self.ARRIVALS)

    def test_churn_emits_recovery_events(self, model, cluster, net):
        faults = FaultSchedule().crash(
            cluster.devices[0].name, at_frame=1
        )
        result = repro.simulate(
            model, "pico", cluster, network=net,
            arrivals=(0.0, 0.2, 0.4, 0.6), faults=faults, trace=True,
        )
        kinds = [e.kind for e in result.trace if e.kind in RECOVERY_KINDS]
        assert "device_dead" in kinds
        assert "replan" in kinds or "degraded" in kinds
        assert result.completed == 4


class TestShimsRemoved:
    """The 1.x ``simulate_plan``/``simulate_adaptive`` names are gone
    from the package: :func:`repro.simulate` is a spelling of the one
    door, :func:`repro.sim.simulate_scenario`."""

    ARRIVALS = (0.0, 0.05, 0.1)

    def test_shims_gone_from_package(self):
        assert not hasattr(repro, "simulate_plan")
        assert not hasattr(repro, "simulate_adaptive")
        assert "simulate_plan" not in repro.__all__
        assert "simulate_adaptive" not in repro.__all__

    def test_simulate_matches_module_function(self, model, plan, net):
        unified = repro.simulate(
            model, plan, network=net, arrivals=self.ARRIVALS
        )
        real = simulate_scenario(
            model, plan, network=net, arrivals=self.ARRIVALS
        )
        assert unified.makespan == pytest.approx(real.makespan)

    def test_module_functions_do_not_warn(self, model, plan, net):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate_scenario(
                model, plan, network=net, arrivals=self.ARRIVALS
            )


class TestCoerceTracer:
    def test_contract(self):
        assert coerce_tracer(None) is None
        assert coerce_tracer(False) is None
        assert isinstance(coerce_tracer(True), Tracer)
        tracer = Tracer()
        assert coerce_tracer(tracer) is tracer
        with pytest.raises(TypeError):
            coerce_tracer("yes")


def test_public_all_exports_fault_api():
    for name in ("RuntimeConfig", "FaultSchedule", "simulate",
                 "get_scheme", "available_schemes"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


# ---------------------------------------------------------------------------
# Faults under serving load: a crash with >= 2 frames in flight
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def load_frames(model):
    rng = np.random.default_rng(21)
    return [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(4)
    ]


@pytest.fixture(scope="module")
def load_baseline(model, program, weights, load_frames):
    with PipelineSession(
        program, InProcTransport(Engine(model, weights))
    ) as session:
        return [session.run_frame(x) for x in load_frames]


class TestFaultsUnderLoad:
    """The PR-4 recovery ladder must hold with the pipeline full.

    All four frames are submitted at t=0 with a queue deep enough to
    hold them, so when the victim device dies at frame 1 there are
    frames ahead of it, behind it, and (on the threaded backend)
    genuinely concurrent with it.  Every admitted frame must complete
    bit-exactly (migrate keeps tile geometry) or be reported — never
    silently lost.
    """

    def _serve_with_faults(self, model, program, weights, net, faults,
                           backend, load_frames, config=None,
                           replanner=None):
        engine = Engine(model, weights)
        if backend == "inproc":
            transport = InProcTransport(engine, faults=faults)
        else:
            transport = SimTransport(engine, net, faults=faults)
        server = PipelineServer(
            program, transport,
            config or ServerConfig(queue_capacity=8, policy="block"),
            tracer=True, runtime_config=RuntimeConfig(),
            replanner=replanner,
        )
        try:
            return server.serve(load_frames, arrivals=[0.0] * len(load_frames))
        finally:
            server.close()

    def _assert_no_silent_loss(self, result, n_submitted):
        assert result.submitted == n_submitted
        accounted = (
            len(result.completed) + len(result.shed) + len(result.failed)
        )
        assert accounted == n_submitted
        assert sorted(r.frame for r in result.records) == list(
            range(n_submitted)
        )

    @pytest.mark.parametrize("backend", ["inproc", "sim"])
    def test_crash_with_frames_in_flight_bit_exact(
        self, model, program, weights, net, load_frames, load_baseline,
        backend,
    ):
        victim = program.stages[0].tasks[0].device_name
        faults = FaultSchedule().crash(victim, at_frame=1)
        result = self._serve_with_faults(
            model, program, weights, net, faults, backend, load_frames
        )
        self._assert_no_silent_loss(result, len(load_frames))
        assert not result.failed and not result.shed
        for i, want in enumerate(load_baseline):
            assert np.array_equal(result.outputs[i], want), (
                f"frame {i} corrupted by in-flight crash on {backend}"
            )
        recovery = _recovery(result.trace)
        assert "device_dead" in recovery and "frame_replayed" in recovery

    def test_crash_while_shedding_keeps_accounting(
        self, model, program, weights, net, load_frames, load_baseline
    ):
        victim = program.stages[0].tasks[0].device_name
        faults = FaultSchedule().crash(victim, at_frame=1)
        config = ServerConfig(queue_capacity=2, policy="shed")
        result = self._serve_with_faults(
            model, program, weights, net, faults, "sim", load_frames,
            config=config,
        )
        self._assert_no_silent_loss(result, len(load_frames))
        assert result.shed, "a 2-deep queue with 4 frames at t=0 must shed"
        assert not result.failed
        for record in result.completed:
            assert np.array_equal(
                result.outputs[record.frame], load_baseline[record.frame]
            )

    def test_stage_wipeout_under_load_replays_on_fresh_plan(
        self, model, program, weights, net, cluster, load_frames,
        load_baseline,
    ):
        """Threaded drain-time recovery: every stage-0 device dies with
        the pipeline full; a churn replanner repairs the plan and the
        lost frames are replayed from their original inputs."""
        stage0 = [t.device_name for t in program.stages[0].tasks]
        faults = FaultSchedule()
        for name in stage0:
            faults = faults.crash(name, at_frame=1)
        replanner = churn_replanner(model, cluster, net, scheme=PicoScheme())
        result = self._serve_with_faults(
            model, program, weights, net, faults, "inproc", load_frames,
            replanner=replanner,
        )
        self._assert_no_silent_loss(result, len(load_frames))
        assert not result.failed and not result.shed
        recovery = _recovery(result.trace)
        assert recovery.count("device_dead") == len(stage0)
        assert "replan" in recovery or "degraded" in recovery
        assert any(r.replayed for r in result.completed)
        # re-planned geometry differs, so float-close rather than bit-equal
        for i, want in enumerate(load_baseline):
            assert np.allclose(result.outputs[i], want, atol=1e-4)

    @pytest.mark.parametrize("backend", ["tcp", "shm"])
    def test_stage_wipeout_on_workers_that_cannot_rebind_reports_failed(
        self, model, program, weights, net, cluster, load_frames,
        load_baseline, backend,
    ):
        """Worker processes hold compiled segments and cannot adopt a
        re-plan mid-session: when the last stage loses every worker the
        lost frames stay ``failed`` and the caller still gets the
        result — and the frames that did complete — instead of an
        exception out of the drain-time replay."""
        from repro.runtime.coordinator import ShmTransport, TcpTransport

        faults = FaultSchedule()
        for name in (t.device_name for t in program.stages[-1].tasks):
            faults = faults.crash(name, at_frame=1)
        cls = {"tcp": TcpTransport, "shm": ShmTransport}[backend]
        server = PipelineServer(
            program,
            cls(model, weights, faults=faults),
            ServerConfig(queue_capacity=8, policy="block"),
            runtime_config=RuntimeConfig(),
            replanner=churn_replanner(model, cluster, net, scheme=PicoScheme()),
        )
        try:
            result = server.serve(load_frames, arrivals=[0.0] * len(load_frames))
        finally:
            server.close()
        self._assert_no_silent_loss(result, len(load_frames))
        assert result.failed and not result.shed
        assert result.completed, "frame 0 finished before the wipeout"
        for record in result.completed:
            assert np.array_equal(
                result.outputs[record.frame], load_baseline[record.frame]
            )

    def test_shm_worker_crash_recovers_and_unlinks(
        self, model, plan, weights, load_frames, load_baseline,
    ):
        """A real forked worker dies mid-batch over the shared-memory
        transport: the ladder repartitions onto survivors, replays the
        lost frame, and close() still unlinks every ring segment (the
        conftest guard fails the test on any leak)."""
        victim = plan.stages[0].assignments[1][0].name
        served, backend = serve_on_workers(
            model, plan, weights, load_frames, "shm", config=RuntimeConfig(),
            faults=FaultSchedule().crash(victim, at_frame=1),
        )
        assert backend.recoveries >= 1
        # Survivor rebalance changes tile geometry, so float-close.
        for i, want in enumerate(load_baseline):
            assert np.allclose(served.outputs[i], want, atol=1e-4), (
                f"frame {i} corrupted by shm worker crash"
            )


class TestOneReplanDoor:
    """Every plan change goes through the one door, with the same
    decision and the same plan names on the virtual and the wall clock."""

    def _serve(self, model, program, weights, net, cluster, crashed,
               backend, arrivals):
        faults = FaultSchedule()
        for name in crashed:
            faults = faults.crash(name, at_frame=1)
        engine = Engine(model, weights)
        if backend == "inproc":
            transport = InProcTransport(engine, faults=faults)
        else:
            transport = SimTransport(engine, net, faults=faults)
        server = PipelineServer(
            program, transport, ServerConfig(queue_capacity=8, policy="block"),
            tracer=True, runtime_config=RuntimeConfig(),
            replanner=churn_replanner(model, cluster, net, scheme=PicoScheme()),
        )
        with server:
            return server.serve(len(arrivals), arrivals=arrivals)

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_stage_wipeout_names_the_replanned_plan(
        self, model, program, weights, net, cluster, backend
    ):
        stage0 = [t.device_name for t in program.stages[0].tasks]
        result = self._serve(
            model, program, weights, net, cluster, stage0, backend, [0.0] * 6
        )
        assert not result.failed and not result.shed
        base = program.plan.mode
        assert [r.plan for r in result.records] == (
            [base] + [f"{base}+replan"] * 5
        )
        assert sum(result.plan_usage.values()) == len(result.completed)

    def test_capacity_loss_replans_alike_on_both_clocks(
        self, model, program, weights, net, cluster
    ):
        """One device of each stage dies: half the capacity is gone,
        past ``replan_threshold``, so both paths re-plan mid-serve and
        emit the same ``device_dead``/``replan``/``degraded`` events."""
        crashed = [stage.tasks[0].device_name for stage in program.stages]
        assert len(crashed) == 2
        arrivals = [0.03 * i for i in range(8)]
        churn = ("device_dead", "replan", "degraded")
        seen = {}
        for backend in ("sim", "inproc"):
            result = self._serve(
                model, program, weights, net, cluster, crashed, backend,
                arrivals,
            )
            assert len(result.completed) == len(arrivals)
            seen[backend] = [
                (e.kind, e.device) for e in result.trace if e.kind in churn
            ]
        assert seen["sim"] == seen["inproc"]
        assert seen["sim"][-1] == ("replan", ",".join(sorted(crashed)))

    def test_door_declines_where_the_transport_cannot_rebind(
        self, model, program, weights, net, cluster
    ):
        """The door is the one reader of ``rebindable``: a transport
        whose workers hold compiled segments gets no change from it,
        while the same churn re-plans a transport that can rebind."""
        changes = {}
        for rebindable in (False, True):
            transport = InProcTransport(Engine(model, weights))
            transport.rebindable = rebindable
            server = PipelineServer(
                program, transport, runtime_config=RuntimeConfig(),
                replanner=churn_replanner(
                    model, cluster, net, scheme=PicoScheme()
                ),
            )
            with server:
                transport.mark_dead(program.stages[0].tasks[0].device_name)
                changes[rebindable] = server.door.decide(failed=True)
        assert changes[False] is None
        assert changes[True].kind == "replan"
        assert changes[True].name == f"{program.plan.mode}+replan"
