"""The discrete-event engine behind every cluster simulation.

This is the 2.0 generalisation of the pre-2.0 single-WLAN event loop
(entered only through :func:`repro.sim.simulate_scenario`): stages are
deterministic-service FIFO servers fed by the plan's timing tables
(:func:`repro.runtime.timing.plan_timing`), tasks flow stage to stage,
and per-device busy time accrues from each stage's compute share.
Three things grew:

* **Lazy arrivals** — ``arrivals`` is any (possibly infinite,
  lazily-generated) nondecreasing iterable of submit times; at most
  one pending arrival lives in the event heap, so million-request
  workloads stream through in constant memory.
* **Per-link network contention** — instead of one boolean WLAN
  token, each stage may declare :class:`Transmission` objects routed
  over named :class:`~repro.sim.topology.NetworkLink` sequences; every
  link keeps its own FIFO, hops are store-and-forward, and compute
  starts once all of a stage's transfers have landed.  The legacy
  ``shared_medium=True`` mode is the degenerate single-link case
  (:func:`token_bus_transmissions`) and the legacy default folds
  communication into stage service (``transmissions_for=None``) —
  both bit-compatible with the pre-2.0 loop.
* **Scenario events** — ``churn`` entries fire an ``on_churn``
  callback mid-run (device leave/join, mobility); the callback may
  return a fresh :class:`~repro.runtime.timing.PlanTiming`, adopted at
  the next service boundary exactly like an adaptive plan switch.

Event ordering is deterministic: the heap key is ``(time, priority,
sequence)`` with churn < arrivals < everything else at equal
timestamps, and the sequence number preserving push order — the same
total order the pre-2.0 loop produced by pushing all arrivals first.

The loop reads no table it could have read once: each live
:class:`~repro.runtime.timing.PlanTiming` is compiled, when adopted,
into per-stage rows (:class:`_Stage`) holding its constants, its FIFO
and, per routed transfer, the link states and hop times along the
route (``docs/simulator.md``, "Engine internals").
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.runtime.trace import TraceEvent, Tracer
from repro.sim.result import SimResult, SimStats, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.timing import PlanTiming
    from repro.sim.topology import NetworkLink

__all__ = ["Transmission", "run_scenario", "token_bus_transmissions"]

#: Heap priorities: churn reshapes the cluster before a same-instant
#: arrival sees it; arrivals beat completions (the pre-2.0 tie order).
_P_CHURN = 0
_P_ARRIVAL = 1
_P_OTHER = 2

#: Event kinds, the fourth heap field (never compared: ``sequence`` is
#: unique).
_CHURN, _ARRIVAL, _HOP, _DONE = range(4)


@dataclass(frozen=True)
class Transmission:
    """One stage transfer: ``nbytes`` along a route of links.

    ``duration`` overrides the per-hop transfer time (used by the
    legacy shared-medium mode, where the stage's aggregate analytic
    communication time rides one token link).
    """

    route: "Tuple[NetworkLink, ...]"
    nbytes: float = 0.0
    duration: Optional[float] = None


def token_bus_transmissions(link) -> "Callable":
    """Per-stage transmissions for the legacy ``shared_medium`` WLAN:
    every stage's whole communication phase is one fixed-duration
    transfer over the single ``link`` (the old network token)."""

    def for_timing(timing: "PlanTiming"):
        return tuple(
            (Transmission((link,), duration=st.comm),)
            for st in timing.stages
        )

    return for_timing


class _InFlight:
    """One admitted task: where it is and under which compiled plan."""

    __slots__ = (
        "task_id", "arrival", "started", "entry", "plan", "stage", "remaining"
    )

    def __init__(self, task_id: int, now: float, plan: "_Plan") -> None:
        self.task_id = task_id
        self.arrival = now
        self.started = -1.0
        self.entry = now  # when the task joined its current stage queue
        self.plan = plan
        self.stage = plan.head
        self.remaining = 0  # transfers of the current stage still in flight


class _Transfer:
    """Runtime state of one routed transmission for one task."""

    __slots__ = ("route", "task", "hop")

    def __init__(self, route: "_Route", task: _InFlight) -> None:
        self.route = route
        self.task = task
        self.hop = 0


class _LinkState:
    __slots__ = ("busy", "queue")

    def __init__(self) -> None:
        self.busy = False
        self.queue: "Deque[_Transfer]" = deque()


class _Route:
    """One live :class:`Transmission`, compiled: the FIFO state of every
    link it crosses and the hop times themselves, constants of the run:
    a fixed ``duration``, else each link's transfer time."""

    __slots__ = ("links", "times")

    def __init__(self, spec: Transmission, links) -> None:
        self.links = links
        if spec.duration is not None:
            self.times = (spec.duration,) * len(spec.route)
        else:
            self.times = tuple(
                link.transfer_time(spec.nbytes) for link in spec.route
            )


class _Stage:
    """One stage of a compiled plan: the constants every event reads
    plus the stage's own server state (FIFO and busy flag).  ``routes``
    is ``None`` when communication is folded into ``service``, else the
    stage's live transfers (possibly none: compute-only)."""

    __slots__ = (
        "index", "busy_shares", "service", "comp", "routes", "busy", "queue"
    )

    def __init__(self, index: int, timing_stage, routes) -> None:
        self.index = index
        self.busy_shares = timing_stage.busy_shares
        self.service = timing_stage.service
        self.comp = timing_stage.comp
        self.routes = routes
        self.busy = False
        self.queue: "Deque[_InFlight]" = deque()


class _Plan:
    """A :class:`PlanTiming` compiled for the loop.  Holding ``timing``
    keeps it alive, so the ``id(timing)`` it is cached under cannot be
    recycled by a later table."""

    __slots__ = ("timing", "name", "stages", "head", "last")

    def __init__(self, timing: "PlanTiming", stages) -> None:
        self.timing = timing
        self.name = timing.name
        self.stages = stages
        self.head = stages[0]
        self.last = len(stages) - 1


def run_scenario(
    arrivals: "Iterable[float]",
    initial_timing: "PlanTiming",
    pick_timing,  # (now, in_system) -> desired PlanTiming
    *,
    transmissions_for=None,  # (timing) -> per-stage transmissions | None
    churn: "Iterable[Tuple[float, object]]" = (),
    on_churn=None,  # (now, payload) -> Optional[PlanTiming]
    tracer: Optional[Tracer] = None,
    queue_capacity: Optional[int] = None,
    keep_records: bool = True,
):
    """Run one scenario; see the module docstring for the model.

    Plan switches happen at service boundaries: when no stage is
    mid-service, no transfer is in flight and every waiting task is
    still unstarted (in the first stage's queue), the backlog migrates
    to the newly desired plan.  Tasks already inside the pipeline
    always finish under the plan that started them.

    ``queue_capacity`` bounds the number of tasks in the system
    (queued *or* in service, the M/D/1/K convention): an arrival that
    finds ``queue_capacity`` tasks in flight is shed — recorded in the
    result and emitted as a ``shed`` trace event.

    Returns a :class:`~repro.sim.result.SimResult`, or a constant-memory
    :class:`~repro.sim.result.SimStats` when ``keep_records=False``.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    heap: "List[Tuple[float, int, int, int, object]]" = []
    seq = 0
    for at, payload in churn:
        heappush(heap, (float(at), _P_CHURN, seq, _CHURN, payload))
        seq += 1

    arrival_iter = iter(arrivals)
    next_task_id = 0
    last_arrival = None

    def push_next_arrival() -> None:
        nonlocal next_task_id, last_arrival, seq
        for t in arrival_iter:
            t = float(t)
            if last_arrival is not None and t < last_arrival:
                raise ValueError(
                    "arrival times must be nondecreasing "
                    f"(got {t} after {last_arrival})"
                )
            last_arrival = t
            heappush(heap, (t, _P_ARRIVAL, seq, _ARRIVAL, next_task_id))
            seq += 1
            next_task_id += 1
            return

    push_next_arrival()

    link_states: "Dict[NetworkLink, _LinkState]" = {}
    compiled: "Dict[int, _Plan]" = {}

    def compile_plan(timing: "PlanTiming") -> _Plan:
        """Resolve, once per timing table, everything the loop reads."""
        plan = compiled.get(id(timing))
        if plan is not None:
            return plan
        templates = (
            None if transmissions_for is None else transmissions_for(timing)
        )
        stages = []
        for index, timing_stage in enumerate(timing.stages):
            routes = None
            if templates is not None:
                routes = tuple(
                    _Route(
                        spec,
                        tuple(
                            link_states.setdefault(link, _LinkState())
                            for link in spec.route
                        ),
                    )
                    for spec in templates[index]
                    if spec.route
                )
            stages.append(_Stage(index, timing_stage, routes))
        plan = compiled[id(timing)] = _Plan(timing, tuple(stages))
        return plan

    desired = initial_timing
    current = compile_plan(initial_timing)
    head = current.head
    device_busy: "Dict[str, float]" = {}
    plan_usage: "Dict[str, int]" = {}
    records: "List[TaskRecord]" = []
    shed: "List[int]" = []
    in_system = 0
    net_inflight = 0
    makespan = 0.0
    n_events = 0
    # keep_records=False aggregates:
    completed = 0
    shed_count = 0
    sum_latency = 0.0
    max_latency = 0.0

    def maybe_swap() -> None:
        """Adopt ``desired`` if the pipeline is at a service boundary."""
        nonlocal current, head
        if net_inflight:
            return  # transfers in flight
        for stage in current.stages:
            if stage.busy or (stage.queue and stage is not head):
                return  # tasks mid-pipeline must finish first
        backlog = head.queue
        current = compile_plan(desired)
        head = current.head
        for task in backlog:
            task.plan = current
            task.stage = head
        head.queue.extend(backlog)
        backlog.clear()

    def try_link(state: _LinkState, now: float) -> None:
        nonlocal seq
        if state.busy or not state.queue:
            return
        transfer = state.queue.popleft()
        state.busy = True
        hop_time = transfer.route.times[transfer.hop]
        heappush(heap, (now + hop_time, _P_OTHER, seq, _HOP, transfer))
        seq += 1

    def try_start(stage: _Stage, now: float) -> None:
        nonlocal seq, net_inflight
        if stage.busy or not stage.queue:
            return
        task = stage.queue.popleft()
        stage.busy = True
        if task.started < 0 and stage is head:
            task.started = now
        if tracer is not None:
            tracer.emit(
                TraceEvent(
                    "enqueue", task.task_id, stage.index, "", task.entry, now
                )
            )
        for name, t_comp in stage.busy_shares:
            device_busy[name] = device_busy.get(name, 0.0) + t_comp
            if tracer is not None:
                tracer.emit(
                    TraceEvent(
                        "compute", task.task_id, stage.index, name,
                        now, now + t_comp,
                    )
                )
        routes = stage.routes
        if not routes:
            # folded communication, or nothing to send: straight to done
            after = stage.service if routes is None else stage.comp
            heappush(heap, (now + after, _P_OTHER, seq, _DONE, task))
            seq += 1
            return
        task.remaining = len(routes)
        net_inflight += len(routes)
        for route in routes:
            first = route.links[0]
            first.queue.append(_Transfer(route, task))
            try_link(first, now)

    while heap:
        now, _, _, kind, payload = heappop(heap)
        n_events += 1
        if kind == _DONE:
            task = payload
            stage = task.stage
            if now > makespan:
                makespan = now
            stage.busy = False
            plan = task.plan
            if stage.index == plan.last:
                in_system -= 1
                plan_usage[plan.name] = plan_usage.get(plan.name, 0) + 1
                if keep_records:
                    records.append(
                        TaskRecord(
                            task.task_id, task.arrival, task.started, now,
                            plan.name,
                        )
                    )
                else:
                    completed += 1
                    latency = now - task.arrival
                    sum_latency += latency
                    if latency > max_latency:
                        max_latency = latency
            else:
                task.entry = now
                task.stage = following = plan.stages[stage.index + 1]
                following.queue.append(task)
                try_start(following, now)
            if desired is not current.timing:
                maybe_swap()
            # A swap may have replaced the stages with the new plan's
            # (possibly shorter) list; only restart valid stages.
            if stage.index <= current.last:
                try_start(current.stages[stage.index], now)
            try_start(head, now)
        elif kind == _HOP:
            transfer = payload
            if now > makespan:
                makespan = now
            links = transfer.route.links
            state = links[transfer.hop]
            state.busy = False
            transfer.hop += 1
            if transfer.hop < len(links):
                onward = links[transfer.hop]
                onward.queue.append(transfer)
                try_link(onward, now)
            else:
                task = transfer.task
                task.remaining -= 1
                net_inflight -= 1
                if not task.remaining:
                    heappush(
                        heap,
                        (now + task.stage.comp, _P_OTHER, seq, _DONE, task),
                    )
                    seq += 1
            try_link(state, now)
        elif kind == _ARRIVAL:
            desired = pick_timing(now, in_system)
            if desired is not current.timing:
                maybe_swap()
            if queue_capacity is not None and in_system >= queue_capacity:
                if keep_records:
                    shed.append(payload)
                else:
                    shed_count += 1
                if tracer is not None:
                    tracer.emit(TraceEvent("shed", payload, 0, "", now, now))
                push_next_arrival()
                continue
            in_system += 1
            if now > makespan:
                makespan = now
            head.queue.append(_InFlight(payload, now, current))
            try_start(head, now)
            push_next_arrival()
        elif on_churn is not None:  # _CHURN
            fresh = on_churn(now, payload)
            if fresh is not None:
                desired = fresh
                if desired is not current.timing:
                    maybe_swap()
                try_start(head, now)

    if not keep_records:
        return SimStats(
            completed, shed_count, makespan, device_busy, plan_usage,
            sum_latency, max_latency, n_events,
        )
    records.sort(key=lambda r: r.task_id)
    trace = tracer.events if tracer is not None else ()
    return SimResult(
        records, makespan, device_busy, plan_usage, trace, tuple(shed)
    )

