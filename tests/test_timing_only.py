"""``SimTransport(compute=False)``: the clock and nothing else.

* **Equal** — a timing-only serve produces the same ``FrameRecord``s and
  the same trace, event for event and byte count for byte count, as the
  computing run: strip, branch and channel plans, batched or not, with
  and without the fault ladder.
* **Touches nothing** — it completes with every tensor entry point
  (split, stitch, tile extraction, stacking, ``np.zeros``) and weight
  initialisation patched to raise.
* **Same admission** — the head-index admission scan equals the
  list-scan frame-level oracle (``tests/serve_oracle.py``) on generated
  arrival schedules and server configurations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.core import SimTransport
from repro.runtime.faults import FaultSchedule, RuntimeConfig
from repro.runtime.program import compile_plan
from repro.schemes import get_scheme
from repro.serve import PipelineServer, ServerConfig
from repro.testing.faults import churn_replanner
from tests.serve_oracle import replay
from tests.test_branch_runtime import branch_plan, inception_like_model

NET = NetworkModel.from_mbps(50.0)
CLUSTER = heterogeneous_cluster([1200, 1000, 800, 600])


def _strip():
    model = toy_chain(4, 1, input_hw=24, in_channels=3, base_channels=8)
    return model, CLUSTER, get_scheme("pico").plan(model, CLUSTER, NET)


def _channel():
    model = toy_chain(6, 2, input_hw=32, in_channels=3, base_channels=8)
    return model, CLUSTER, get_scheme("iop").plan(model, CLUSTER, NET)


def _branch():
    model, cluster = inception_like_model(), pi_cluster(4, 1000)
    return model, cluster, branch_plan(model, cluster)


PLANS = {"strip": _strip, "channel": _channel, "branch": _branch}


def _ladder(program) -> FaultSchedule:
    """Crash (→ repartition, then a churn re-plan), a flaky link, a
    dropped result and a compute delay.  A batch is keyed by its lead
    frame, so each transient fault covers three consecutive ids: one of
    them leads a batch of at most three."""
    victim = max(program.stages, key=lambda s: s.n_tasks).tasks[0].device_name
    other = program.stages[-1].tasks[-1].device_name
    faults = FaultSchedule().crash(victim, at_frame=4)
    for k in range(3):
        faults = (
            faults.flaky_link(other, frame=1 + k, failures=2)
            .drop(other, frame=6 + k)
            .delay(other, frame=9 + k, seconds=0.05)
        )
    return faults


def _serve(model, cluster, plan, compute, max_batch, faulty, n=14):
    program = compile_plan(model, plan)
    period = plan_cost(model, plan, NET).period
    gaps = np.random.default_rng(3).exponential(period / 1.04, n)
    arrivals = [float(t) for t in np.cumsum(gaps)]
    weights = init_weights(model, seed=0) if compute else {}
    transport = SimTransport(
        Engine(model, weights), NET, compute=compute,
        faults=_ladder(program) if faulty else None,
    )
    recovery = {}
    if faulty:
        recovery = dict(
            runtime_config=RuntimeConfig(replan_threshold=0.1),
            replanner=churn_replanner(
                model, cluster, NET, scheme=get_scheme("pico")
            ),
        )
    config = ServerConfig(
        queue_capacity=6, policy="block", max_batch=max_batch,
        batch_timeout=period / 2,
    )
    with PipelineServer(
        program, transport, config, tracer=True, **recovery
    ) as server:
        return server.serve(n, arrivals=arrivals)


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("max_batch", [1, 3])
@pytest.mark.parametrize("kind", sorted(PLANS))
def test_timing_only_equals_computing(kind, max_batch, faulty):
    model, cluster, plan = PLANS[kind]()
    full = _serve(model, cluster, plan, True, max_batch, faulty)
    fast = _serve(model, cluster, plan, False, max_batch, faulty)
    assert fast.records == full.records
    assert fast.trace == full.trace  # timestamps and nbytes included
    assert fast.makespan == full.makespan
    assert fast.plan_usage == full.plan_usage
    assert len(full.outputs) == len(full.completed) and fast.outputs == {}
    kinds = {e.kind for e in fast.trace}
    if faulty:
        assert {"retry", "device_dead", "replan"} <= kinds
    if max_batch > 1:
        assert max(r.batch for r in fast.records) > 1


def test_timing_only_touches_no_tensor(monkeypatch):
    model, cluster, plan = _strip()
    program = compile_plan(model, plan)

    def boom(*args, **kwargs):
        raise AssertionError("a timing-only serve touched a tensor")

    for target in (
        "repro.runtime.core.split_stage",
        "repro.runtime.core.stitch_stage",
        "repro.runtime.core.stack_frames",
        "repro.runtime.core.unstack_frames",
        "repro.runtime.core.run_segment",
        "repro.runtime.program.extract_tile",
        "repro.nn.tiles.extract_tile",
        "repro.nn.executor.init_weights",
    ):
        monkeypatch.setattr(target, boom)
    transport = SimTransport(Engine(model, weights={}), NET, compute=False)
    config = ServerConfig(queue_capacity=4, max_batch=2)
    with PipelineServer(program, transport, config, tracer=True) as server:
        monkeypatch.setattr(np, "zeros", boom)
        try:
            result = server.serve(12, arrivals=[0.01 * i for i in range(12)])
        finally:
            monkeypatch.undo()
    assert len(result.completed) + len(result.shed) == 12
    assert result.completed and result.outputs == {}
    assert any(e.kind == "send" and e.nbytes > 0 for e in result.trace)


# ---------------------------------------------------------------------------
# The admission scan against the list-scan oracle
# ---------------------------------------------------------------------------
_ORACLE_PLANS = {}


def _oracle_case(scheme):
    if scheme not in _ORACLE_PLANS:
        model, cluster, _ = _strip()
        plan = get_scheme(scheme).plan(model, cluster, NET)
        _ORACLE_PLANS[scheme] = (
            model, compile_plan(model, plan), plan_cost(model, plan, NET)
        )
    return _ORACLE_PLANS[scheme]


@st.composite
def _configs(draw):
    max_batch = draw(st.integers(1, 4))
    return ServerConfig(
        queue_capacity=draw(st.integers(1, 6)),
        policy=draw(st.sampled_from(["shed", "block"])),
        max_in_flight=(
            draw(st.one_of(st.none(), st.integers(1, 3)))
            if max_batch == 1 else None
        ),
        max_batch=max_batch,
        batch_timeout=draw(st.sampled_from([0.0, 0.3, 1.5])),
    )


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(["pico", "efl"]),  # pipelined / exclusive
    gaps=st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 2.5)), min_size=1, max_size=40
    ),
    config=_configs(),
)
def test_admission_matches_list_scan_oracle(scheme, gaps, config):
    model, program, cost = _oracle_case(scheme)
    # gaps and batch_timeout are in units of the plan's period
    arrivals = [float(t) for t in np.cumsum(gaps) * cost.period]
    config = ServerConfig(
        config.queue_capacity, config.policy, config.max_in_flight,
        config.max_batch, config.batch_timeout * cost.period,
    )
    transport = SimTransport(Engine(model, weights={}), NET, compute=False)
    with PipelineServer(program, transport, config) as server:
        served = server.serve(len(arrivals), arrivals=arrivals)
    want = replay(
        arrivals, cost.stage_costs, program.mode == "exclusive", config
    )
    got = {
        r.frame: (r.status, r.admitted_at, r.completion, r.batch)
        for r in served.records
    }
    assert got == want


def test_arrival_at_a_completion_instant_finds_the_slot_free():
    """The boundary the generated schedules do not hit: a frame is out
    of the system *at* its completion time, not after it."""
    model, program, cost = _oracle_case("pico")
    config = ServerConfig(queue_capacity=1, policy="shed")

    def serve(arrivals):
        transport = SimTransport(Engine(model, weights={}), NET, compute=False)
        with PipelineServer(program, transport, config) as server:
            return server.serve(len(arrivals), arrivals=arrivals)

    done = serve([0.0]).records[0].completion
    statuses = [r.status for r in serve([0.0, done / 2, done, done]).records]
    assert statuses == ["done", "shed", "done", "shed"]
