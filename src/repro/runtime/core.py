"""The shared runtime core: one stage-execution path, pluggable transports.

Every executor in the repo drives frames through the same three steps —
split the stage input into per-device tiles, run each task's compiled
segment, stitch the output map — and differ only in *where* tasks run
and *what clock* stamps the trace.  :func:`collect_stage` owns the
split/stitch and trace emission; a :class:`Transport` supplies task
execution and timestamps:

========================  =============================  ====================
backend                   tasks run on                   clock
========================  =============================  ====================
:class:`InProcTransport`  the shared thread pool         wall (perf_counter)
``TcpTransport``          worker processes over TCP      wall (perf_counter)
``ShmTransport``          worker processes, tensors in   wall (perf_counter)
                          shared-memory slot rings
:class:`SimTransport`     inline, serially               virtual (Eq. 9 cost)
========================  =============================  ====================

Because tiles, kernels and stitching are shared, all three produce
bit-identical frame outputs, and their canonical traces (timestamp-free
event sequences) are equal — the exactness gate that lets simulated
timelines stand in for live ones.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cost.tables import BATCH_AMORTIZED_FRACTION, batched_service
from repro.nn import parallel
from repro.nn.executor import Engine
from repro.nn.tiles import run_segment
from repro.runtime.faults import (
    MAX_RETRIES,
    DeviceDead,
    FaultSchedule,
    PlanDoor,
    RuntimeConfig,
    StageFailure,
    TransientTaskError,
    backoff,
)
from repro.runtime.program import (
    PlanProgram,
    StageProgram,
    TaskSpec,
    compile_plan,
    repartition_stage,
    split_stage,
    stack_frames,
    stitch_stage,
    unstack_frames,
)
from repro.runtime.timing import PlanTiming, plan_timing
from repro.runtime.trace import TraceEvent, Tracer

__all__ = [
    "TaskTiming",
    "StageTrace",
    "Transport",
    "InProcTransport",
    "SimTransport",
    "StageWork",
    "collect_stage",
    "dispatch_stage",
    "emit_stage_trace",
    "PipelineSession",
]


@dataclass(frozen=True)
class TaskTiming:
    """Transport-reported ``(start, end)`` spans for one task's phases."""

    send: Tuple[float, float]
    compute: Tuple[float, float]
    recv: Tuple[float, float]


@dataclass(frozen=True)
class StageTrace:
    """Transport-reported timing of one stage serving one frame."""

    entry: float  # frame arrived at the stage
    start: float  # stage began serving it (entry + queueing)
    exit: float  # stage finished
    tasks: Tuple[TaskTiming, ...]


class Transport(ABC):
    """Carries one stage's tiles to compute sites and back.

    A transport is bound to a :class:`PlanProgram` via :meth:`open`.
    :meth:`dispatch` receives the per-task input tiles (split by the
    core, in task order) and returns a handle; :meth:`collect` turns the
    handle into the per-task output tiles plus the stage's
    :class:`StageTrace` under this backend's clock.  Between the two
    the tasks run, so a stage can dispatch its next frame before it
    collects this one (:class:`~repro.runtime.scheduler.StageScheduler`
    does).  The default split is lazy — :meth:`dispatch` only records
    the tiles and :meth:`collect` runs :meth:`run_tasks` — which is all
    an in-process backend implements; a backend with workers of its own
    overrides both halves, and :meth:`run_tasks` is ``collect(dispatch())``.

    The base class also owns the backend-agnostic half of the
    fault-tolerance state: a :class:`~repro.runtime.faults.RuntimeConfig`
    (via :meth:`configure`), the set of devices declared dead, per-stage
    task-set overrides installed by :meth:`repartition`, and the clock /
    backoff hooks (:meth:`clock`, :meth:`penalty`) the recovery loop in
    :func:`collect_stage` stamps its events with.
    """

    name: str = "?"
    #: Whether this backend's :meth:`clock` is wall time.  Wall-clock
    #: transports support genuinely concurrent stage execution (the
    #: threaded serving path); virtual-clock backends are driven
    #: serially and stamp pipelined timestamps analytically.
    wall_clock: bool = True
    #: Whether tasks produce tensors.  ``False`` is a timing-only
    #: backend (``SimTransport(compute=False)``): the core skips
    #: split/stitch and only asks it to :meth:`~SimTransport.charge`.
    compute: bool = True
    #: Whether :meth:`rebind` can adopt a new plan mid-session (asked by
    #: the re-plan door).  Where it cannot (worker processes hold compiled
    #: segments) a stage that loses every device fails its frames.
    rebindable: bool = True
    #: The model, when the backend can recompile tiles (rebalance).
    model = None
    _config: "Optional[RuntimeConfig]" = None

    def __init__(self) -> None:
        self._program: "Optional[PlanProgram]" = None
        self._overrides: "dict" = {}
        self._dead: "set" = set()
        self._dead_lock = threading.Lock()

    def open(self, program: PlanProgram) -> None:
        # The dead-device set is not reset here: it may be a fleet's
        # (see share_dead), which opening one tenant must not fork.
        self._program = program
        self._overrides = {}

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def configure(self, config: "Optional[RuntimeConfig]") -> None:
        """Install the fault-tolerance configuration."""
        self._config = config

    def begin_frame(self, frame: int, at: Optional[float] = None) -> None:
        """Announce a new frame; ``at`` is its (virtual) submit time."""

    def current_stage(self, stage_index: int) -> StageProgram:
        """The stage's current program (post-recovery override, if any)."""
        override = self._overrides.get(stage_index)
        if override is not None:
            return override
        return self._program.stages[stage_index]

    def stage_tasks(self, stage_index: int) -> "Tuple[TaskSpec, ...]":
        """The stage's *current* task set (overridden after recovery)."""
        return self.current_stage(stage_index).tasks

    @abstractmethod
    def run_tasks(
        self,
        stage_index: int,
        tiles: "Sequence[np.ndarray]",
        frame: int,
    ) -> "Tuple[List[np.ndarray], StageTrace]":
        """Execute the stage's tasks on their input tiles."""

    def dispatch(
        self,
        stage_index: int,
        tiles: "Sequence[np.ndarray]",
        frame: int,
    ):
        """Start the stage's current tasks on their input tiles; the
        returned handle is :meth:`collect`'s to finish, exactly once."""
        return stage_index, tiles, frame

    def collect(self, handle) -> "Tuple[List[np.ndarray], StageTrace]":
        """Wait for a :meth:`dispatch`'s results."""
        return self.run_tasks(*handle)

    # -- failure detection & recovery ----------------------------------
    def clock(self) -> float:
        """This backend's current time (wall or virtual)."""
        return 0.0

    def penalty(self, seconds: float) -> None:
        """Charge a backoff wait to this backend's clock (default: no-op;
        wall-clock backends sleep, the simulated backend advances its
        virtual clock)."""

    def dead_devices(self) -> "frozenset":
        with self._dead_lock:  # stage threads may be adding to it
            return frozenset(self._dead)

    def share_dead(self, dead: "set", lock: "threading.Lock") -> None:
        """Adopt a fleet-wide dead-device set (and its lock) as this
        transport's own: a death found while serving any tenant then
        makes :meth:`needs_repartition` true for every tenant whose
        plan touches the device."""
        self._dead = dead
        self._dead_lock = lock

    def mark_dead(self, device: str) -> bool:
        """Declare a device dead; True the first time it is declared.

        Locked: with frames in flight, concurrent stage threads can
        discover the same death and must not both report it.
        """
        with self._dead_lock:
            if device in self._dead:
                return False
            self._dead.add(device)
            return True

    def needs_repartition(self, stage_index: int) -> bool:
        """Does the stage's current task set reference a dead device?
        (The one liveness rule, on every backend and every tenant.)"""
        if not self._dead:
            return False
        return any(
            t.device_name in self._dead
            for t in self.stage_tasks(stage_index)
        )

    def repartition(self, stage_index: int) -> None:
        """Rebuild the stage's task set without its dead devices."""
        self._overrides[stage_index] = repartition_stage(
            self.model, self.current_stage(stage_index), self._dead, "migrate"
        )

    def capacity_lost(self) -> float:
        """Fraction of the program's device capacity now dead."""
        dead = self._dead
        if not dead:
            return 0.0
        capacities: "dict" = {}
        for stage in self._program.stages:
            for task in stage.tasks:
                capacities.setdefault(task.device_name, task.capacity)
        total = sum(capacities.values())
        if total <= 0:
            return 0.0
        return sum(c for n, c in capacities.items() if n in dead) / total

    def rebind(self, program: PlanProgram) -> None:
        """Adopt a new program mid-session (through the re-plan door),
        keeping the clock and the dead-device set."""
        self._program = program
        self._overrides.clear()

    def backpressure(self) -> float:
        """How loaded the transport's internal buffering is, in [0, 1].

        ``0.0`` means admission can proceed freely; ``1.0`` means the
        transport cannot absorb another frame without blocking.  The
        shared-memory backend reports its slot-ring occupancy here; the
        serving layer's admission control consults it (a full ring
        sheds instead of queueing a frame that would stall a stage).
        """
        return 0.0


class StageWork:
    """One frame (or stacked batch) at one stage, dispatched or not yet.

    What a stage holds between :func:`dispatch_stage` and
    :func:`collect_stage`: the stage input (kept, so a repartition can
    re-split it), the task set its tiles were cut for, the tiles, and
    the transport's handle — or the exception the dispatch raised, which
    is re-raised into the frame's own fault ladder when it is collected.
    """

    __slots__ = ("x", "frames", "tasks", "tiles", "handle")

    def __init__(self, x: "Optional[np.ndarray]", frames: "Sequence[int]") -> None:
        self.x = x
        self.frames = tuple(frames)
        self.tasks: "Optional[Tuple[TaskSpec, ...]]" = None
        self.tiles: "Optional[List[np.ndarray]]" = None
        self.handle = None

    def dispatched_for(self, tasks: "Sequence[TaskSpec]") -> bool:
        """Is a dispatch outstanding for exactly this task set?  (A
        repartition replaces the task objects, so identity suffices.)"""
        mine = self.tasks
        return (
            self.handle is not None
            and mine is not None
            and len(mine) == len(tasks)
            and all(a is b for a, b in zip(mine, tasks))
        )


def _ensure_dispatched(
    transport: Transport, stage_index: int, work: StageWork
) -> None:
    """Unless ``work`` is out for the current task set already, split
    its input for that set and send it."""
    tasks = transport.stage_tasks(stage_index)
    if work.dispatched_for(tasks):
        return
    work.handle = None
    work.tasks = tasks
    work.tiles = split_stage(tasks, work.x)
    work.handle = transport.dispatch(stage_index, work.tiles, work.frames[0])


def dispatch_stage(
    transport: Transport,
    stage_index: int,
    work: StageWork,
    config: "Optional[RuntimeConfig]" = None,
    repair: bool = True,
) -> None:
    """Send ``work``'s tiles now, unless they are out for the current
    task set already; :func:`collect_stage` finishes it.

    Never raises: a failure is kept on ``work`` for its own frame's
    fault ladder.  ``repair=False`` is for a frame dispatched *ahead* of
    one still outstanding at the stage: a repartition would re-send the
    outstanding frame behind this one, and a channel returns results in
    the order it got tasks, so a stage that needs one leaves ``work``
    undispatched until the outstanding frame is collected.
    """
    if not transport.compute:
        return
    try:
        if config is not None and transport.needs_repartition(stage_index):
            if not repair:
                return
            transport.repartition(stage_index)
        _ensure_dispatched(transport, stage_index, work)
    except Exception as exc:  # noqa: BLE001 - raised again on collect
        work.handle = exc


def collect_stage(
    transport: Transport,
    program: PlanProgram,
    stage_index: int,
    work: StageWork,
    tracer: Optional[Tracer] = None,
    config: "Optional[RuntimeConfig]" = None,
) -> "Optional[np.ndarray]":
    """Finish one stage of ``work`` — the single split → compute →
    stitch path shared by every backend, and its single-frame / batched
    fault ladder.

    Trace events are emitted in canonical order — enqueue, then per
    task (in task order) send/compute/recv — so event *ordering* is
    deterministic for any backend; only timestamps differ.

    ``work`` may have been dispatched already (:func:`dispatch_stage`);
    if its tiles went out for a task set a repartition has since
    replaced, they are re-split and re-sent (the stale results are the
    transport's to skip), and a failure its dispatch kept is raised
    here, into this frame's ladder.

    With a :class:`~repro.runtime.faults.RuntimeConfig` the call is
    fault-tolerant: transient task failures retry with bounded
    exponential backoff (``retry`` events), a dead device triggers a
    stage repartition and a replay of the frame from this stage
    boundary (``device_dead`` / ``frame_replayed`` events).  Without a
    config (the default) failures propagate untouched.
    """
    frame = work.frames[0]
    if config is None:
        return _attempt_stage(transport, program, stage_index, work, tracer)
    attempt = 0
    while True:
        try:
            if transport.needs_repartition(stage_index):
                # Another stage (or tenant) already declared a death;
                # repair proactively instead of failing the send.
                transport.repartition(stage_index)
            return _attempt_stage(transport, program, stage_index, work, tracer)
        except TransientTaskError as exc:
            if attempt >= MAX_RETRIES:
                raise StageFailure(
                    f"stage {stage_index}: {exc} "
                    f"(after {attempt} retries)"
                ) from exc
            now = transport.clock()
            if tracer is not None:
                tracer.emit(
                    TraceEvent("retry", frame, stage_index, exc.device, now, now)
                )
            transport.penalty(backoff(attempt))
            attempt += 1
        except DeviceDead as exc:
            newly_dead = transport.mark_dead(exc.device)
            now = transport.clock()
            if tracer is not None and newly_dead:
                tracer.emit(
                    TraceEvent(
                        "device_dead", frame, stage_index, exc.device, now, now
                    )
                )
            transport.repartition(stage_index)
            if tracer is not None:
                now = transport.clock()
                tracer.emit(
                    TraceEvent(
                        "frame_replayed", frame, stage_index, exc.device,
                        now, now,
                    )
                )
            attempt = 0  # a fresh task set gets a fresh retry budget


def _attempt_stage(
    transport: Transport,
    program: PlanProgram,
    stage_index: int,
    work: StageWork,
    tracer: Optional[Tracer] = None,
) -> "Optional[np.ndarray]":
    """One split → compute → stitch attempt (the hot path).

    ``work.frames`` has one id for a single-frame map, several for a
    batched ``(C, B, H, W)`` input — the split/compute/stitch calls are
    identical either way; only trace emission fans out per frame.  The
    handle is collected once: a retry dispatches afresh.

    A timing-only transport (``compute`` false) has no tensors to
    split, run or stitch: the stage is charged to its clock, the trace
    reports the tile sizes the compiled IR predicts, and nothing flows
    to the next stage.
    """
    frames = work.frames
    if not transport.compute:
        st = transport.charge(
            stage_index, frames[0], len(frames), timed=tracer is not None
        )
        if tracer is not None:
            tasks = transport.stage_tasks(stage_index)
            emit_stage_trace(tracer, frames, stage_index, tasks, None, None, st)
        return None
    _ensure_dispatched(transport, stage_index, work)
    handle, work.handle = work.handle, None
    if isinstance(handle, BaseException):
        raise handle
    outs, st = transport.collect(handle)
    emit_stage_trace(tracer, frames, stage_index, work.tasks, work.tiles, outs, st)
    return stitch_stage(transport.current_stage(stage_index), work.tasks, outs)


def emit_stage_trace(
    tracer: Optional[Tracer],
    frames: "Tuple[int, ...]",
    stage_index: int,
    tasks: "Sequence[TaskSpec]",
    tiles: "Optional[Sequence[np.ndarray]]",
    outs: "Optional[Sequence[np.ndarray]]",
    st: StageTrace,
) -> None:
    """Emit one stage attempt's events in canonical order.

    Whatever order a backend gathered its results in, the
    timestamp-free event sequence is the same: enqueue, then per task
    (in task order) send/compute/recv.  ``send`` / ``recv`` carry one
    frame's share of the tile bytes — measured off ``tiles`` / ``outs``,
    or, when a timing-only run has none (``None``), the sizes
    :func:`~repro.runtime.program.compile_stage` derived from the
    task's regions (the same numbers: tiles are float32 of exactly
    those shapes).
    """
    if tracer is None:
        return
    b = len(frames)
    if tiles is None:
        sizes = [(task.in_bytes, task.out_bytes) for task in tasks]
    else:
        sizes = [
            (tile.nbytes // b, out.nbytes // b) for tile, out in zip(tiles, outs)
        ]
    events = []
    for frame in frames:
        events.append(
            TraceEvent("enqueue", frame, stage_index, "", st.entry, st.start)
        )
        for task, (sent, received), tt in zip(tasks, sizes, st.tasks):
            events.append(
                TraceEvent(
                    "send", frame, stage_index, task.device_name,
                    tt.send[0], tt.send[1], sent,
                )
            )
            events.append(
                TraceEvent(
                    "compute", frame, stage_index, task.device_name,
                    tt.compute[0], tt.compute[1],
                )
            )
            events.append(
                TraceEvent(
                    "recv", frame, stage_index, task.device_name,
                    tt.recv[0], tt.recv[1], received,
                )
            )
    tracer.extend(events)


class InProcTransport(Transport):
    """Tasks on the shared thread pool, wall clock — the local executor.

    Per-device tiles genuinely overlap on a multi-core host (numpy's
    kernels release the GIL); with ``REPRO_THREADS=1`` they run
    serially and bit-identically.  Each task is one unit of pool work,
    so a stacked batch is never split into frame groups further (see
    :func:`repro.nn.parallel.run_parallel`).
    """

    name = "inproc"

    def __init__(
        self,
        engine: Engine,
        faults: "Optional[FaultSchedule]" = None,
    ) -> None:
        super().__init__()
        self.engine = engine
        self.model = engine.model
        self.faults = faults
        self._injector = None
        self._epoch = time.perf_counter()

    def open(self, program: PlanProgram) -> None:
        if program.model_name != self.engine.model.name:
            raise ValueError(
                f"program is for {program.model_name!r}, engine runs "
                f"{self.engine.model.name!r}"
            )
        super().open(program)
        self._injector = self.faults.start() if self.faults else None
        self._epoch = time.perf_counter()

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def clock(self) -> float:
        return self._now()

    def penalty(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def run_tasks(
        self,
        stage_index: int,
        tiles: "Sequence[np.ndarray]",
        frame: int,
    ) -> "Tuple[List[np.ndarray], StageTrace]":
        tasks = self.stage_tasks(stage_index)
        entry = self._now()
        spans: "List[Optional[Tuple[float, float]]]" = [None] * len(tasks)
        injector = self._injector

        def run_task(i: int, task: TaskSpec, tile: np.ndarray) -> np.ndarray:
            t0 = self._now()
            if injector is not None:
                if injector.crashed(task.device_name, frame):
                    raise DeviceDead(task.device_name)
                if injector.take_link_failure(task.device_name, frame):
                    raise TransientTaskError(
                        task.device_name, "send failed (flaky link)"
                    )
            out = run_segment(self.engine, task.program, tile)
            if injector is not None:
                delay = injector.compute_delay(task.device_name, frame)
                if delay > 0:
                    time.sleep(delay)
                if injector.take_drop(task.device_name, frame):
                    raise TransientTaskError(
                        task.device_name, "result dropped"
                    )
            spans[i] = (t0, self._now())
            return out

        outs = parallel.run_parallel(
            [
                lambda i=i, task=task, tile=tile: run_task(i, task, tile)
                for i, (task, tile) in enumerate(zip(tasks, tiles))
            ]
        )
        exit_ = self._now()
        timings = tuple(
            TaskTiming(send=(entry, entry), compute=spans[i], recv=(exit_, exit_))
            for i in range(len(tasks))
        )
        return outs, StageTrace(entry, entry, exit_, timings)


class _StageRow(NamedTuple):
    """One stage's compiled inputs to :meth:`SimTransport.charge`."""

    #: Which FIFO server the stage holds: its own for a pipelined plan,
    #: the one shared token (slot 0) for an exclusive plan.
    server: int
    total: float  # Eq. 9 single-frame service
    t_comm: float
    t_work: float  # t_comp + t_head
    #: ``(device name, t_comm, t_comp)`` per current task, in task order.
    tasks: "Tuple[Tuple[str, float, float], ...]"


class SimTransport(Transport):
    """Tasks inline with a virtual clock — real tensors, analytic time.

    Replaces the physical testbed: frames are actually computed (so
    outputs are bit-identical to the live backends), but every
    timestamp comes from the Eq. 9 stage-cost model through the shared
    :func:`~repro.runtime.timing.plan_timing` tables.  Stages are FIFO
    servers: stage ``s`` starts a frame at
    ``max(frame ready, stage free)``, exactly the event simulator's
    deterministic-service recurrence, so a trace from here is the
    frame-level expansion of a :func:`repro.sim.simulate_scenario`
    run.  Exclusive plans serialise every stage through one server
    token.

    ``compute=False`` turns the transport into a pure virtual-clock
    server that touches no tensor: the core never splits, runs or
    stitches a tile, frames carry no data (``run_frame`` returns
    ``None``, ``ServeResult.outputs`` is empty) and a frame costs the
    same at any input resolution.  Timestamps, queueing, fault
    injection and the full trace — byte counts included, which come
    from the compiled regions — are bit-identical to the computing run,
    because both modes advance the clock through the one
    :meth:`charge`; anything that checks tensor values must keep the
    default ``compute=True``.

    Batched ``(C, B, H, W)`` tiles charge the B-dependent service
    estimate :func:`repro.cost.tables.batched_service` — linear in B on
    the wire, partially amortised (``BATCH_AMORTIZED_FRACTION``) on
    compute.  A batch of one charges exactly the single-frame
    ``sc.total``, so every existing B=1 timestamp is preserved
    bit-for-bit.
    """

    name = "sim"
    wall_clock = False

    def __init__(
        self,
        engine: Engine,
        network,
        options=None,
        faults: "Optional[FaultSchedule]" = None,
        compute: bool = True,
    ) -> None:
        super().__init__()
        self.engine = engine
        self.model = engine.model
        self.network = network
        self.options = options
        self.faults = faults
        self.compute = compute
        self._injector = None
        self.timing: Optional[PlanTiming] = None
        self._rows: "List[_StageRow]" = []
        self._stage_free: "List[float]" = []  # per server, see _StageRow
        self._frame_ready = 0.0
        self._last_submit = 0.0
        self._virtual_now = 0.0

    def open(self, program: PlanProgram) -> None:
        if program.model_name != self.engine.model.name:
            raise ValueError(
                f"program is for {program.model_name!r}, engine runs "
                f"{self.engine.model.name!r}"
            )
        super().open(program)
        self._injector = self.faults.start() if self.faults else None
        self._compile_rows()
        self._stage_free = [0.0] * program.n_stages
        self._frame_ready = 0.0
        self._last_submit = 0.0
        self._virtual_now = 0.0

    def _compile_rows(self) -> None:
        """(Re)build the timing tables and every stage's charge row."""
        program = self._program
        self.timing = plan_timing(
            self.engine.model, program.plan, self.network, self.options
        )
        self._rows = [self._stage_row(i) for i in range(program.n_stages)]

    def _stage_row(self, stage_index: int) -> "_StageRow":
        """What :meth:`charge` reads per call, compiled once per task
        set: the stage's Eq. 9 totals and, per *current* task (in task
        order), its device and that device's comm/compute shares."""
        sc = self.timing.cost.stage_costs[stage_index]
        by_device = {dc.device.name: dc for dc in sc.devices}
        tasks = []
        for task in self.stage_tasks(stage_index):
            dc = by_device.get(task.device_name)
            tasks.append(
                (task.device_name, dc.t_comm, dc.t_comp)
                if dc is not None
                else (task.device_name, 0.0, 0.0)
            )
        server = 0 if self._program.mode == "exclusive" else stage_index
        return _StageRow(
            server, sc.total, sc.t_comm, sc.t_comp + sc.t_head, tuple(tasks)
        )

    def repartition(self, stage_index: int) -> None:
        super().repartition(stage_index)
        self._rows[stage_index] = self._stage_row(stage_index)

    @property
    def now(self) -> float:
        """The virtual clock: completion time of the latest work."""
        return self._virtual_now

    def clock(self) -> float:
        return max(self._virtual_now, self._frame_ready)

    def penalty(self, seconds: float) -> None:
        """Backoff costs virtual time, never wall time."""
        if seconds > 0:
            self._frame_ready += seconds
            self._virtual_now = max(self._virtual_now, self._frame_ready)

    def rebind(self, program: PlanProgram) -> None:
        """Adopt a re-planned program: rebuild the timing tables and
        start the new pipeline's servers at the current virtual time
        (the analytic drain)."""
        self._program = program
        self._overrides.clear()
        self._compile_rows()
        floor = max(self._virtual_now, self._frame_ready)
        self._stage_free = [floor] * program.n_stages

    def begin_frame(self, frame: int, at: Optional[float] = None) -> None:
        if at is None:
            at = self._last_submit  # back-to-back submission
        if at < self._last_submit:
            raise ValueError("frames must be submitted in time order")
        self._last_submit = at
        self._frame_ready = at

    def stage_free_time(self, stage_index: int) -> float:
        """When stage ``stage_index``'s server next frees up (the
        exclusive token's free time for one-stage-scheme plans).  The
        analytic batcher uses this to decide how many queued frames a
        forming batch can absorb before the server would go idle."""
        if not self._stage_free:  # not opened yet: everything is idle
            return 0.0
        return self._stage_free[self._rows[stage_index].server]

    def run_tasks(
        self,
        stage_index: int,
        tiles: "Sequence[np.ndarray]",
        frame: int,
    ) -> "Tuple[List[np.ndarray], StageTrace]":
        """The kernels, serially in task order, under :meth:`charge`."""
        tasks = self.stage_tasks(stage_index)
        batch = tiles[0].shape[1] if tiles and tiles[0].ndim == 4 else 1
        outs: "List[np.ndarray]" = []

        def kernel(i: int) -> None:
            outs.append(run_segment(self.engine, tasks[i].program, tiles[i]))

        return outs, self.charge(stage_index, frame, batch, kernel)

    def charge(
        self,
        stage_index: int,
        frame: int,
        batch: int = 1,
        kernel=None,
        timed: bool = True,
    ) -> StageTrace:
        """Serve one frame (or batch of ``batch``) at a stage: the clock.

        The FIFO recurrence — start at ``max(frame ready, server
        free)``, hold the server (the shared token, for exclusive plans)
        for the Eq. 9 service time plus the slowest injected compute
        delay — and the fault injector's per-task decisions, consumed in
        task order.  ``kernel(i)`` runs task ``i``'s tensor work where a
        worker would (after its send succeeded, before its result can be
        dropped); a timing-only run passes none.  ``timed=False`` skips
        the per-task spans, which only a tracer reads.
        """
        assert self.timing is not None, "transport not opened"
        row = self._rows[stage_index]
        entry = self._frame_ready
        start = max(entry, self._stage_free[row.server])
        injector = self._injector
        delays = [0.0] * len(row.tasks)
        if injector is not None or kernel is not None:
            for i, (device, _, _) in enumerate(row.tasks):
                if injector is not None:
                    if injector.crashed(device, frame):
                        raise DeviceDead(device)
                    if injector.take_link_failure(device, frame):
                        raise TransientTaskError(
                            device, "send failed (flaky link)"
                        )
                if kernel is not None:
                    kernel(i)
                if injector is not None:
                    if injector.take_drop(device, frame):
                        raise TransientTaskError(device, "result dropped")
                    delays[i] = injector.compute_delay(device, frame)
        # An injected compute delay stretches the straggler's span and
        # therefore the whole stage's virtual service time.
        stage_delay = max(delays)
        if batch == 1:
            service = row.total  # exact single-frame charge, bit-compat
            comp_scale = 1.0
        else:
            service = batched_service(row.t_comm, row.t_work, batch)
            comp_scale = BATCH_AMORTIZED_FRACTION + batch * (
                1.0 - BATCH_AMORTIZED_FRACTION
            )
        exit_ = start + service + stage_delay
        timings = []
        if timed:
            for (_, t_comm, t_comp), delay in zip(row.tasks, delays):
                send_end = start + t_comm * batch
                timings.append(
                    TaskTiming(
                        send=(start, send_end),
                        compute=(send_end, send_end + t_comp * comp_scale + delay),
                        recv=(exit_, exit_),
                    )
                )
        self._stage_free[row.server] = exit_
        self._frame_ready = exit_
        self._virtual_now = max(self._virtual_now, exit_)
        return StageTrace(entry, start, exit_, tuple(timings))


class PipelineSession:
    """Drives frames through a :class:`PlanProgram` over any transport.

    The one plan-walking loop: stages in order, each via
    :func:`collect_stage`.  Construct from a compiled program or let
    :meth:`from_plan` compile one.

    With a :class:`~repro.runtime.faults.RuntimeConfig` the session is
    fault-tolerant (see :func:`collect_stage`); with a ``replanner``
    (``replan(dead) -> (PlanProgram, kind)``, typically over
    :func:`~repro.runtime.faults.replan_or_degrade`) it also reacts
    to *churn* through its :class:`~repro.runtime.faults.PlanDoor`,
    asked before every frame and when a stage fails outright.
    """

    def __init__(
        self,
        program: PlanProgram,
        transport: Transport,
        tracer: Optional[Tracer] = None,
        config: "Optional[RuntimeConfig]" = None,
        replanner=None,
    ) -> None:
        self.transport = transport
        self.tracer = tracer
        self.config = config
        self.door = PlanDoor(program, transport, tracer, config, replanner)
        if config is not None:
            transport.configure(config)
        transport.open(program)
        self._next_frame = 0

    @property
    def program(self) -> PlanProgram:
        return self.door.program

    @classmethod
    def from_plan(
        cls,
        model,
        plan,
        transport: Transport,
        tracer: Optional[Tracer] = None,
        config: "Optional[RuntimeConfig]" = None,
    ) -> "PipelineSession":
        return cls(compile_plan(model, plan), transport, tracer, config)

    def _walk(
        self, x0: "Optional[np.ndarray]", ids: "Tuple[int, ...]",
        at: Optional[float],
    ) -> "Optional[np.ndarray]":
        """Take one frame (or stacked batch) through every stage.

        A :class:`~repro.runtime.faults.StageFailure` (a stage lost
        every device) goes to the door: when it adopts a plan over the
        survivors the frame replays from its input; otherwise it
        propagates.
        """
        while True:
            self.transport.begin_frame(ids[0], at)
            # One StageWork walks every stage: a collected stage leaves
            # it undispatched, and its output is the next stage's input.
            work = StageWork(x0, ids)
            try:
                for index in range(self.door.program.n_stages):
                    work.x = collect_stage(
                        self.transport, self.door.program, index, work,
                        self.tracer, self.config,
                    )
                return work.x
            except StageFailure:
                door = self.door
                if door.replanner is None or not door.step(ids[0], failed=True):
                    raise

    def run_frame(self, x: "Optional[np.ndarray]") -> "Optional[np.ndarray]":
        """Run one frame through every stage; returns the feature map.

        On a timing-only transport ``x`` is never read (pass ``None``)
        and the result is ``None``: the frame only advances the clock.
        """
        return self.run_stacked((x,))[0]

    def run_stacked(
        self,
        frames: "Sequence[np.ndarray]",
        at: Optional[float] = None,
        ids: "Optional[Sequence[int]]" = None,
    ) -> "List[np.ndarray]":
        """Run a cross-frame batch as one unit through every stage.

        The frames are stacked into one ``(C, B, H, W)`` input, walk the
        pipeline as a batch (one stacked im2col panel and GEMM pass per
        layer; trace events replicate per member frame, see
        :func:`emit_stage_trace`) and come back as per-frame maps
        bit-identical to ``B`` separate :meth:`run_frame` calls; a
        single frame walks as the plain ``(C, H, W)`` map it is.  The
        fault ladder applies to the batch as a unit: a
        :class:`StageFailure` replans and replays all ``B`` frames
        together.  A timing-only transport reads no frame, stacks
        nothing and returns ``None`` per frame.

        ``ids`` are the members' frame ids, which the transport, the
        door and the trace see (a server passes its per-call indices);
        by default the session numbers frames in submission order.
        """
        if not frames:
            raise ValueError("cannot run an empty batch")
        if ids is None:
            ids = range(self._next_frame, self._next_frame + len(frames))
            self._next_frame += len(frames)
        ids = tuple(ids)
        if len(ids) != len(frames):
            raise ValueError("ids must align one-to-one with frames")
        if self.door.replanner is not None:
            self.door.step(ids[0])
        if not self.transport.compute:
            self._walk(None, ids, at)
            return [None] * len(frames)
        if len(frames) == 1:
            x0 = np.ascontiguousarray(frames[0], dtype=np.float32)
            return [self._walk(x0, ids, at)]
        return unstack_frames(self._walk(stack_frames(frames), ids, at))

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "PipelineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
