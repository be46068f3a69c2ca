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
"""

from __future__ import annotations

import heapq
import itertools
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


@dataclass
class _InFlight:
    task_id: int
    arrival: float
    started: float
    timing: "PlanTiming"
    entry: float = 0.0  # when the task joined its current stage queue


class _Transfer:
    """Runtime state of one Transmission instance for one task."""

    __slots__ = ("spec", "hop", "group")

    def __init__(self, spec: Transmission, group: "_Group") -> None:
        self.spec = spec
        self.hop = 0
        self.group = group


class _Group:
    """Outstanding-transfer counter for one (task, stage) comm phase."""

    __slots__ = ("remaining", "stage_idx", "task")

    def __init__(self, remaining: int, stage_idx: int, task: _InFlight) -> None:
        self.remaining = remaining
        self.stage_idx = stage_idx
        self.task = task


class _LinkState:
    __slots__ = ("busy", "queue")

    def __init__(self) -> None:
        self.busy = False
        self.queue: "Deque[_Transfer]" = deque()


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
    rng=None,
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

    ``rng`` feeds per-link jitter/loss sampling; ``None`` keeps every
    link at its deterministic expected transfer time.

    Returns a :class:`~repro.sim.result.SimResult`, or a constant-memory
    :class:`~repro.sim.result.SimStats` when ``keep_records=False``.
    """
    seq = itertools.count()
    heap: "List[Tuple[float, int, int, str, object]]" = []
    for at, payload in churn:
        heapq.heappush(heap, (float(at), _P_CHURN, next(seq), "churn", payload))

    arrival_iter = iter(arrivals)
    next_task_id = 0
    last_arrival = None

    def push_next_arrival() -> None:
        nonlocal next_task_id, last_arrival
        for t in arrival_iter:
            t = float(t)
            if last_arrival is not None and t < last_arrival:
                raise ValueError(
                    "arrival times must be nondecreasing "
                    f"(got {t} after {last_arrival})"
                )
            last_arrival = t
            heapq.heappush(heap, (t, _P_ARRIVAL, next(seq), "arrival", next_task_id))
            next_task_id += 1
            return

    push_next_arrival()

    current = initial_timing
    desired = initial_timing
    queues: "List[Deque[_InFlight]]" = [deque() for _ in range(current.n_stages)]
    busy: "List[bool]" = [False] * current.n_stages
    device_busy: "Dict[str, float]" = {}
    plan_usage: "Dict[str, int]" = {}
    records: "List[TaskRecord]" = []
    shed: "List[int]" = []
    in_system = 0
    makespan = 0.0
    n_events = 0
    # keep_records=False aggregates:
    completed = 0
    shed_count = 0
    sum_latency = 0.0
    max_latency = 0.0

    link_states: "Dict[object, _LinkState]" = {}
    net_inflight = 0
    # Per-stage transmission templates, cached per live timing table.
    template_cache: "Dict[int, Tuple[object, object]]" = {}

    def stage_templates(timing: "PlanTiming"):
        if transmissions_for is None:
            return None
        cached = template_cache.get(id(timing))
        if cached is not None and cached[0] is timing:
            return cached[1]
        templates = transmissions_for(timing)
        template_cache[id(timing)] = (timing, templates)
        return templates

    def maybe_swap() -> None:
        nonlocal current, queues, busy
        if desired is current:
            return
        if any(busy) or any(len(q) for q in queues[1:]):
            return  # tasks mid-pipeline must finish first
        if net_inflight:
            return  # transfers in flight
        backlog = queues[0]
        current = desired
        queues = [deque() for _ in range(current.n_stages)]
        busy = [False] * current.n_stages
        for task in backlog:
            task.timing = current
            queues[0].append(task)

    def try_link(link, now: float) -> None:
        state = link_states[link]
        if state.busy or not state.queue:
            return
        transfer = state.queue.popleft()
        state.busy = True
        if transfer.spec.duration is not None:
            hop_time = transfer.spec.duration
        else:
            hop_time = link.transfer_time(transfer.spec.nbytes, rng)
        heapq.heappush(
            heap, (now + hop_time, _P_OTHER, next(seq), "hop", transfer)
        )

    def try_start(stage_idx: int, now: float) -> None:
        nonlocal makespan, net_inflight
        timing = current
        if busy[stage_idx] or not queues[stage_idx]:
            return
        task = queues[stage_idx].popleft()
        assert task.timing is timing, "task queued under a stale timing"
        busy[stage_idx] = True
        if stage_idx == 0 and task.started < 0:
            task.started = now
        if tracer is not None:
            tracer.emit(
                TraceEvent(
                    "enqueue", task.task_id, stage_idx, "", task.entry, now
                )
            )
        for name, t_comp in timing.stages[stage_idx].busy_shares:
            device_busy[name] = device_busy.get(name, 0.0) + t_comp
            if tracer is not None:
                tracer.emit(
                    TraceEvent(
                        "compute", task.task_id, stage_idx, name,
                        now, now + t_comp,
                    )
                )
        templates = stage_templates(timing)
        if templates is None:
            service = timing.stages[stage_idx].service
            heapq.heappush(
                heap,
                (now + service, _P_OTHER, next(seq), "done", (stage_idx, task)),
            )
            return
        transmissions = templates[stage_idx]
        live = tuple(t for t in transmissions if t.route)
        if not live:
            comp = timing.stages[stage_idx].comp
            heapq.heappush(
                heap,
                (now + comp, _P_OTHER, next(seq), "done", (stage_idx, task)),
            )
            return
        group = _Group(len(live), stage_idx, task)
        net_inflight += len(live)
        for spec in live:
            transfer = _Transfer(spec, group)
            first = spec.route[0]
            if first not in link_states:
                link_states[first] = _LinkState()
            link_states[first].queue.append(transfer)
            try_link(first, now)

    while heap:
        now, _, _, kind, payload = heapq.heappop(heap)
        n_events += 1
        if kind == "arrival":
            task_id = payload
            desired = pick_timing(now, in_system)
            maybe_swap()
            if queue_capacity is not None and in_system >= queue_capacity:
                if keep_records:
                    shed.append(task_id)
                else:
                    shed_count += 1
                if tracer is not None:
                    tracer.emit(TraceEvent("shed", task_id, 0, "", now, now))
                push_next_arrival()
                continue
            in_system += 1
            makespan = max(makespan, now)
            task = _InFlight(task_id, now, -1.0, current, entry=now)
            queues[0].append(task)
            try_start(0, now)
            push_next_arrival()
        elif kind == "hop":
            transfer = payload  # type: ignore[assignment]
            makespan = max(makespan, now)
            link = transfer.spec.route[transfer.hop]
            link_states[link].busy = False
            transfer.hop += 1
            if transfer.hop < len(transfer.spec.route):
                nxt = transfer.spec.route[transfer.hop]
                if nxt not in link_states:
                    link_states[nxt] = _LinkState()
                link_states[nxt].queue.append(transfer)
                try_link(nxt, now)
            else:
                group = transfer.group
                group.remaining -= 1
                net_inflight -= 1
                if group.remaining == 0:
                    comp = group.task.timing.stages[group.stage_idx].comp
                    heapq.heappush(
                        heap,
                        (
                            now + comp,
                            _P_OTHER,
                            next(seq),
                            "done",
                            (group.stage_idx, group.task),
                        ),
                    )
            try_link(link, now)
        elif kind == "churn":
            if on_churn is not None:
                fresh = on_churn(now, payload)
                if fresh is not None:
                    desired = fresh
                    maybe_swap()
                    try_start(0, now)
        else:  # "done"
            stage_idx, task = payload  # type: ignore[misc]
            makespan = max(makespan, now)
            busy[stage_idx] = False
            if stage_idx == task.timing.n_stages - 1:
                in_system -= 1
                plan_usage[task.timing.name] = (
                    plan_usage.get(task.timing.name, 0) + 1
                )
                if keep_records:
                    records.append(
                        TaskRecord(
                            task.task_id, task.arrival, task.started, now,
                            task.timing.name,
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
                queues[stage_idx + 1].append(task)
                try_start(stage_idx + 1, now)
            maybe_swap()
            # A swap may have replaced the queues with the new plan's
            # (possibly shorter) stage list; only restart valid stages.
            if stage_idx < len(queues):
                try_start(stage_idx, now)
            try_start(0, now)

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
