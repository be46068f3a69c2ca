"""Pipelined frame serving with admission control and backpressure.

:class:`PipelineServer` is the serving layer on top of the runtime
core: it admits frames from an arrival process into a bounded queue and
keeps multiple frames in flight across the pipeline stages, so
steady-state throughput approaches ``1/period``
instead of the frame-at-a-time ``1/latency``.  A full queue triggers
*backpressure* (``policy="block"``: admission waits for a slot) or
*load shedding* (``policy="shed"``: the frame is rejected and reported).
Both policies additionally consult
:meth:`~repro.runtime.core.Transport.backpressure` on the threaded
path — a transport whose internal buffering is saturated (a full
shared-memory slot ring) sheds at admission under ``"shed"`` and
delays admission under ``"block"``, instead of queueing a frame that
would stall a stage on the send.

Two execution strategies, selected by the transport's clock:

* **wall-clock transports** (:class:`~repro.runtime.core.InProcTransport`,
  the TCP and shared-memory backends) are handed to the runtime's
  :class:`~repro.runtime.scheduler.StageScheduler` — one thread per
  stage, each dispatching one frame ahead of the one it collects, with
  single-slot hand-off queues, so the frames genuinely overlap; the
  server adds pacing, admission (``queue_capacity`` counts every frame
  from admission to delivery) and the records.
* **virtual-clock transports** (:class:`~repro.runtime.core.SimTransport`)
  are driven serially in arrival order; the transport's per-stage
  ``stage_free`` recurrence ``C(n, s) = max(C(n, s-1), C(n-1, s)) + d_s``
  stamps exactly the timestamps an interleaved execution would produce,
  and admission decisions replay the same bounded queue analytically —
  frame ``i``'s fate depends only on earlier frames, which FIFO service
  has already fixed.

With ``max_batch > 1`` both paths additionally *micro-batch*: frames
queued at the pipeline entrance coalesce into a ``(C, B, H, W)``
cross-frame batch (up to ``max_batch``, holding the window open
``batch_timeout`` seconds for stragglers, but never past the last
frame of the arrival schedule) that traverses every stage as one unit
— one batched kernel pass per stage, amortising per-frame dispatch and
panel-packing overhead.  Batched outputs are bit-identical to the
per-frame loop, and the virtual server replays the same formation
policy analytically.

Both paths run the shared :func:`~repro.runtime.core.collect_stage`
split/compute/stitch, so served outputs stay bit-identical to
frame-at-a-time runs, and the PR-4 fault ladder (retry → repartition →
replan → degrade) applies per stage with frames in flight.  Every
admitted frame ends in exactly one of three states — ``done``, ``shed``
or ``failed`` — and is accounted for in the :class:`ServeResult`; no
frame is silently lost.

Every plan change goes through one :class:`~repro.runtime.faults.PlanDoor`:
an :class:`~repro.adaptive.switcher.AdaptiveSwitcher` fed the *measured*
queue depth switches where an arrival finds the system empty, churn
forces the drain, and frames a stage failure lost replay on the new
plan in the same scheduler — on both paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._util import nearest_rank
from repro.runtime.core import PipelineSession, Transport
from repro.runtime.faults import PlanDoor, RuntimeConfig, StageFailure
from repro.runtime.program import PlanProgram, compile_plan
from repro.runtime.scheduler import StageScheduler
from repro.runtime.trace import TraceEvent, coerce_tracer

__all__ = ["ServerConfig", "FrameRecord", "ServeResult", "PipelineServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Admission-control knobs of a :class:`PipelineServer`.

    ``queue_capacity`` bounds the frames concurrently *in the system*
    (waiting plus in service — the M/D/1/K convention) on both paths,
    so it should exceed the plan's stage count for pipelining to reach
    full depth.  ``policy`` picks what happens at the bound: ``"shed"``
    rejects the arrival (recorded, never executed), ``"block"`` delays
    admission until a slot frees (closed-loop backpressure).
    ``max_in_flight`` further caps concurrently *served* frames on the
    virtual path (``1`` reproduces the frame-at-a-time baseline); on
    the threaded path a stage serves at most two frames, the one it
    collects and the one it dispatched ahead.

    ``max_batch`` turns on cross-frame micro-batching: frames queued at
    the pipeline entrance coalesce into a ``(C, B, H, W)`` batch of up
    to ``max_batch`` frames that traverses every stage as one unit (one
    batched kernel pass per stage).  ``batch_timeout`` is how long a
    forming batch holds the entrance open for stragglers once the first
    stage is free (a batch holding the schedule's last frame does not
    wait); ``0`` launches with whatever is already queued — the
    deterministic default that the virtual replay matches analytically.
    ``max_batch=1`` (default) is the exact PR-5 per-frame server.
    Batching composes with admission control but not with the
    ``max_in_flight`` service cap (whose frame-at-a-time contract a
    batch would silently break).
    """

    queue_capacity: int = 8
    policy: str = "shed"  # "shed" | "block"
    max_in_flight: Optional[int] = None
    max_batch: int = 1
    batch_timeout: float = 0.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.policy not in ("shed", "block"):
            raise ValueError(f"unknown admission policy {self.policy!r}")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 or None")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_timeout < 0:
            raise ValueError("batch_timeout must be >= 0")
        if self.max_batch > 1 and self.max_in_flight is not None:
            raise ValueError(
                "max_batch > 1 is incompatible with max_in_flight "
                "(a batch is served as one unit)"
            )


@dataclass(frozen=True)
class FrameRecord:
    """One submitted frame's fate.

    ``frame`` is the submission index; ``status`` is ``"done"``
    (completed, output available), ``"shed"`` (rejected at admission) or
    ``"failed"`` (admitted but unrecoverable — only possible when a
    stage lost every device and no replanner could repair it).
    ``admitted_at`` is when the frame entered the pipeline queue
    (> ``arrival`` only under ``policy="block"`` backpressure).
    ``batch`` is how many frames shared the cross-frame batch this one
    rode in (1 outside micro-batching); ``plan``, the plan it was served on.
    """

    frame: int
    arrival: float
    status: str
    admitted_at: float = -1.0
    completion: float = -1.0
    plan: str = ""
    replayed: bool = False
    batch: int = 1

    @property
    def admitted(self) -> bool:
        return self.status != "shed"

    @property
    def sojourn(self) -> float:
        """Arrival-to-completion latency (queueing + service)."""
        if self.status != "done":
            raise ValueError(f"frame {self.frame} is {self.status!r}")
        return self.completion - self.arrival


@dataclass
class ServeResult:
    """Aggregate output of one :meth:`PipelineServer.serve` run.

    ``outputs`` maps each completed frame to its feature map — and is
    empty on a timing-only transport (``SimTransport(compute=False)``),
    which serves the clock and touches no tensor.  ``trace`` holds the
    events the server's tracer recorded during this call only.
    """

    records: List[FrameRecord]
    outputs: Dict[int, np.ndarray]
    makespan: float
    trace: Tuple[TraceEvent, ...] = ()

    @property
    def plan_usage(self) -> "Dict[str, int]":
        """Done frames per plan name (:attr:`FrameRecord.plan`)."""
        usage: "Dict[str, int]" = {}
        for r in self.completed:
            usage[r.plan] = usage.get(r.plan, 0) + 1
        return usage

    @property
    def submitted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> "List[FrameRecord]":
        return [r for r in self.records if r.status == "done"]

    @property
    def shed(self) -> "List[FrameRecord]":
        return [r for r in self.records if r.status == "shed"]

    @property
    def failed(self) -> "List[FrameRecord]":
        return [r for r in self.records if r.status == "failed"]

    @property
    def sojourns(self) -> "List[float]":
        return [r.sojourn for r in self.completed]

    @property
    def mean_sojourn(self) -> float:
        s = self.sojourns
        return sum(s) / len(s) if s else 0.0

    def percentile_sojourn(self, q: float) -> float:
        """Sojourn percentile ``q`` in [0, 100] (nearest-rank)."""
        return nearest_rank(self.sojourns, q)

    @property
    def batch_sizes(self) -> "List[int]":
        """Per completed frame: the size of the batch it rode in."""
        return [r.batch for r in self.completed]

    @property
    def mean_batch(self) -> float:
        b = self.batch_sizes
        return sum(b) / len(b) if b else 0.0

    def percentile_batch(self, q: float) -> float:
        """Batch-size percentile ``q`` in [0, 100] (nearest-rank)."""
        return float(nearest_rank(self.batch_sizes, q))

    @property
    def throughput(self) -> float:
        """Completed frames per second of makespan."""
        if self.makespan <= 0:
            return 0.0
        return len(self.completed) / self.makespan

    def steady_throughput(self, warmup: Optional[int] = None) -> float:
        """Completion rate after the pipeline filled.

        Drops the first ``warmup`` completions (default: as many frames
        as the record shows distinct plans' stages could hold — callers
        usually pass the stage count) and measures completions per
        second over the remaining window.
        """
        done = sorted(self.completed, key=lambda r: r.completion)
        if warmup is None:
            warmup = max(1, len(done) // 10)
        if len(done) <= warmup:
            return self.throughput
        window = done[warmup - 1].completion, done[-1].completion
        span = window[1] - window[0]
        if span <= 0:
            return self.throughput
        return (len(done) - warmup) / span


class PipelineServer:
    """Serve frames through a compiled plan with bounded admission.

    Parameters
    ----------
    program:
        The compiled :class:`~repro.runtime.program.PlanProgram`.
    transport:
        Any runtime-core transport; its ``wall_clock`` flag selects the
        threaded or the virtual serving strategy.
    config:
        Admission control (:class:`ServerConfig`).
    tracer:
        Shared ``Tracer | bool | None`` contract.
    runtime_config:
        Enables the fault-tolerance ladder per stage.
    replanner:
        ``replan(dead) -> (PlanProgram, kind)`` — adopted when churn
        passes ``runtime_config.replan_threshold`` or a stage fails
        outright (see :func:`~repro.runtime.faults.churn_replanner`).
    switcher:
        An :class:`~repro.adaptive.switcher.AdaptiveSwitcher`; the
        server feeds it the measured queue depth per arrival and
        switches candidate plans at drain boundaries (via :attr:`door`).
    """

    def __init__(
        self,
        program: PlanProgram,
        transport: Transport,
        config: Optional[ServerConfig] = None,
        tracer=None,
        runtime_config: "Optional[RuntimeConfig]" = None,
        replanner=None,
        switcher=None,
    ) -> None:
        self.transport = transport
        self.config = config or ServerConfig()
        self.tracer = coerce_tracer(tracer)
        self.runtime_config = runtime_config
        self.virtual = not transport.wall_clock
        self.door = PlanDoor(
            program, transport, self.tracer, runtime_config, replanner,
            switcher,
        )
        self._session: Optional[PipelineSession] = None
        if self.virtual:
            # PipelineSession opens the transport and walks each frame.
            self._session = PipelineSession(
                program, transport, self.tracer, runtime_config
            )
            self._session.door = self.door
        else:
            if runtime_config is not None:
                transport.configure(runtime_config)
            transport.open(program)
        self._closed = False

    @property
    def program(self) -> PlanProgram:
        return self.door.program

    @classmethod
    def from_plan(
        cls, model, plan, transport: Transport, **kwargs
    ) -> "PipelineServer":
        return cls(compile_plan(model, plan), transport, **kwargs)

    def close(self) -> None:
        if not self._closed:
            self.transport.close()
            self._closed = True

    def __enter__(self) -> "PipelineServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def serve(
        self,
        frames: "Union[int, Sequence[np.ndarray]]",
        arrivals: "Optional[Sequence[float]]" = None,
    ) -> ServeResult:
        """Admit ``frames`` at ``arrivals`` and serve them to completion.

        ``frames`` may be an int — ``n`` copies of a zero input frame,
        or, on a timing-only transport (``SimTransport`` with
        ``compute=False``), ``n`` frames with no data at all.
        ``arrivals`` are submit times in seconds
        (virtual for the simulated backend, offsets from serve start
        for wall-clock backends); ``None`` submits back-to-back.  On a
        computing transport a frame whose shape is not the model's
        input is a ``ValueError`` before any frame is admitted.  On the
        wall clock, no frame delivered for
        :data:`~repro.runtime.scheduler.STALL_S` seconds is a
        ``TimeoutError`` naming the frames the stages hold.
        """
        frames = self._materialise(frames)
        model = self.transport.model
        if self.transport.compute and model is not None:
            for index, x in enumerate(frames):
                if np.shape(x) != model.input_shape:
                    raise ValueError(
                        f"frame {index}: input shape {np.shape(x)} != "
                        f"model input {model.input_shape}"
                    )
        if arrivals is None:
            arrivals = [0.0] * len(frames)
        if len(arrivals) != len(frames):
            raise ValueError("arrivals must align one-to-one with frames")
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("arrivals must be non-decreasing")
        # The tracer outlives this call: its trace is what it adds.
        mark = len(self.tracer) if self.tracer is not None else 0
        run = self._serve_virtual if self.virtual else self._serve_threaded
        records, outputs, makespan = run(frames, list(arrivals))
        records.sort(key=lambda r: r.frame)
        trace = self.tracer.events[mark:] if self.tracer is not None else ()
        return ServeResult(records, outputs, makespan, trace)

    def _materialise(self, frames) -> "List[np.ndarray]":
        if isinstance(frames, (int, np.integer)):
            if frames < 0:
                raise ValueError("frame count must be non-negative")
            if not self.transport.compute:
                return [None] * int(frames)  # never read: clock only
            model = self.transport.model
            if model is None:
                raise ValueError(
                    "an int frame count needs a transport with a model"
                )
            zero = np.zeros(model.input_shape, dtype=np.float32)
            return [zero] * int(frames)
        return list(frames)

    # ------------------------------------------------------------------
    # Virtual-clock strategy: serial execution, analytic interleaving.
    # ------------------------------------------------------------------
    def _serve_virtual(
        self, frames: "List[np.ndarray]", arrivals: "List[float]"
    ) -> "Tuple[List[FrameRecord], Dict[int, np.ndarray], float]":
        """Analytic replay of the threaded admission and batching policy.

        Frames run serially in arrival order; frame ``i``'s fate depends
        only on earlier frames, which FIFO service has already fixed.
        With ``max_batch=1`` every frame is its own batch and launches
        on admission (``max_in_flight`` then caps the served frames).

        A batch forms at the pipeline entrance: frame ``i`` joins the
        forming batch while the batch is below ``max_batch`` and the
        batch has not launched yet.  The launch instant is
        ``max(stage-0 free, first member's admission + batch_timeout)``
        — the entrance worker launches as soon as the first stage frees
        *and* the timeout window has closed (immediately, for the
        default ``batch_timeout=0``); a batch that fills, or that holds
        the schedule's last frame, launches on its last member's
        admission.  Everything is driven by the transport's
        deterministic FIFO recurrence, so the completion
        and shed sets match what the threaded server produces under
        unambiguous spacing.

        Under ``policy="block"`` the unblock instant matches the
        threaded block semantics: when enough *in-flight* completions
        alone drain the system below the bound, the blocked frame
        admits at the freeing completion and may still join the forming
        batch it waited behind (exactly as a threaded arrival enters
        the admission queue while the entrance holds the window open).
        Only when draining requires the forming batch's own members to
        complete — their departure times do not exist until the batch
        runs — is the batch forced to launch first.
        """
        cfg = self.config
        session = self._session
        switcher = self.door.switcher
        completions: "List[float]" = []  # launched frames, FIFO order
        head = 0  # completions[head:] are still in the system
        compute = self.transport.compute
        records: "List[FrameRecord]" = []
        outputs: "Dict[int, np.ndarray]" = {}
        #: forming batch: ``(index, frame, admitted_at)`` per member.
        pending: "List[Tuple[int, np.ndarray, float]]" = []
        last_admit = 0.0

        def launch() -> None:
            """Run the forming batch as one unit; record its frames."""
            batch, pending[:] = list(pending), []
            if not batch:
                return
            admits = [a for _, _, a in batch]
            if len(batch) < cfg.max_batch and batch[-1][0] + 1 < len(arrivals):
                at = max(admits[-1], admits[0] + cfg.batch_timeout)
            else:
                # filled up, or holds the schedule's last frame (nothing
                # is left to wait for): launches on the last admit
                at = admits[-1]
            try:
                outs = session.run_stacked([x for _, x, _ in batch], at=at)
            except StageFailure:
                for index, _, admit in batch:
                    records.append(
                        FrameRecord(
                            index, arrivals[index], "failed", admitted_at=admit,
                            plan=self.door.name, batch=len(batch),
                        )
                    )
                return
            done = self.transport.clock()
            name = self.door.name  # after any re-plan the walk adopted
            for (index, _, admit), out in zip(batch, outs):
                completions.append(done)
                if compute:
                    outputs[index] = out
                records.append(
                    FrameRecord(
                        index, arrivals[index], "done", admitted_at=admit,
                        completion=done, plan=name, batch=len(batch),
                    )
                )

        def launch_time() -> float:
            """When the current forming batch leaves the entrance."""
            first_admit = pending[0][2]
            return max(
                self.transport.stage_free_time(0),
                first_admit + cfg.batch_timeout,
            )

        def in_flight(t: float) -> int:
            """Launched frames not yet complete at ``t``.  Completions
            (the virtual clock is monotone) and arrivals are both
            non-decreasing, so the head only ever moves forward."""
            nonlocal head
            while head < len(completions) and completions[head] <= t:
                head += 1
            return len(completions) - head

        for index, (x, t) in enumerate(zip(frames, arrivals)):
            # A forming batch whose launch instant has passed is gone
            # before this arrival can reach the entrance.
            if pending and t > launch_time():
                launch()
            flying = in_flight(t)
            depth = flying + len(pending)
            if switcher is not None:
                switcher.on_arrival(t, queue_depth=depth)
                if depth == 0:  # a natural drain boundary
                    self.door.step(index, drained=True)
            if depth >= cfg.queue_capacity:
                if cfg.policy == "shed":
                    records.append(FrameRecord(index, t, "shed"))
                    continue
                # Backpressure: the system must drain ``needed`` frames
                # below the bound before this arrival admits.
                needed = depth - cfg.queue_capacity + 1
                if needed <= flying:
                    # In-flight completions alone free the slot: admit
                    # at the needed-th oldest completion.  The frame may
                    # still join the forming batch below — matching the
                    # threaded server, where a blocked arrival enters
                    # the queue while the entrance window is open.
                    admit_at = completions[head + needed - 1]
                else:
                    # Draining needs the forming batch's own members to
                    # depart; their completion times only exist once the
                    # batch runs, so it must launch now.
                    launch()
                    if in_flight(t) < cfg.queue_capacity:
                        admit_at = t
                    else:
                        admit_at = completions[-cfg.queue_capacity]
            else:
                admit_at = t
            if cfg.max_in_flight is not None and (
                len(completions) >= cfg.max_in_flight
            ):
                admit_at = max(admit_at, completions[-cfg.max_in_flight])
            admit_at = max(admit_at, last_admit)
            last_admit = admit_at
            if pending and admit_at > launch_time():
                launch()
            pending.append((index, x, admit_at))
            if len(pending) >= cfg.max_batch:
                launch()
        launch()  # flush the final forming batch
        makespan = completions[-1] if completions else 0.0
        return records, outputs, makespan

    # ------------------------------------------------------------------
    # Wall-clock strategy: the runtime's stage-thread scheduler owns the
    # frames in flight; this layer paces the arrivals, decides admission
    # and keeps the records.
    # ------------------------------------------------------------------
    def _serve_threaded(
        self, frames: "List[np.ndarray]", arrivals: "List[float]"
    ) -> "Tuple[List[FrameRecord], Dict[int, np.ndarray], float]":
        cfg = self.config
        transport = self.transport
        door = self.door
        if door.replanner is None and door.switcher is None:
            door = None  # nothing can change the plan: skip the door
        scheduler = StageScheduler(
            self.door.program, transport, self.tracer, self.runtime_config,
            capacity=cfg.queue_capacity,
            max_batch=cfg.max_batch, batch_timeout=cfg.batch_timeout,
        )
        #: fid -> its FrameRecord fields (but frame and status) so far
        books: "Dict[int, Dict]" = {}
        inputs: "Dict[int, np.ndarray]" = {}  # kept for a replay
        outputs: "Dict[int, np.ndarray]" = {}
        lost: "List[int]" = []  # lost to StageFailure, not replayed yet
        owed = 0  # results not taken off the scheduler yet

        def take(block: bool) -> None:
            """Take every result the scheduler has (waiting for one)."""
            nonlocal owed
            while owed:
                result = scheduler.collect(block)
                if result is None:
                    return
                fid, out, error, batch, done = result
                owed, block = owed - 1, False
                books[fid]["batch"] = batch
                if out is not None:
                    outputs[fid], books[fid]["completion"] = out, done
                    if books[fid]["replayed"] and self.tracer is not None:
                        self.tracer.emit(
                            TraceEvent("frame_replayed", fid, 0, "", done, done)
                        )
                elif isinstance(error, StageFailure):
                    lost.append(fid)

        def through_door(frame: int, drained: bool) -> None:
            """Adopt the door's change at a drain boundary, then replay
            the frames a stage failure lost, ahead of new arrivals."""
            nonlocal owed
            change = door.decide(drained, failed=bool(lost))
            if change is None:
                return
            scheduler.replan(change.program, lambda: door.adopt(change, frame))
            take(False)  # drained: every result is in
            for fid in lost:
                books[fid].update(plan=door.name, replayed=True)
                scheduler.submit(fid, inputs[fid])
            owed += len(lost)
            lost.clear()

        epoch = transport.clock()
        shed: "List[Tuple[int, float]]" = []
        try:
            for index, x in enumerate(frames):
                target = epoch + arrivals[index]
                wait = target - transport.clock()
                if wait > 0:
                    time.sleep(wait)
                x0 = np.ascontiguousarray(x, dtype=np.float32)
                arrival_t = transport.clock()
                last = index + 1 == len(frames)  # no window waits past it
                if door is not None:
                    take(False)
                    if door.switcher is not None:
                        door.switcher.on_arrival(arrival_t, queue_depth=owed)
                    through_door(index, drained=owed == 0)
                if cfg.policy == "block":
                    # Closed-loop backpressure also honours the transport's
                    # own buffering: a saturated shm slot ring would stall a
                    # stage thread on the send, so admission waits for the
                    # ring to drain as well as for a queue slot.
                    while transport.backpressure() >= 1.0:
                        time.sleep(0.0005)
                    scheduler.submit(index, x0, last=last)
                elif transport.backpressure() >= 1.0 or not scheduler.submit(
                    index, x0, block=False, last=last
                ):
                    # A full admission queue — or a saturated transport
                    # (e.g. a full shm slot ring), where queueing the frame
                    # would only stall a stage thread on the send: shed now.
                    shed.append((index, arrival_t))
                    continue
                owed += 1
                inputs[index] = x0
                books[index] = dict(
                    arrival=arrival_t, admitted_at=transport.clock(),
                    plan=self.door.name, replayed=False,
                )
            while owed:
                take(True)
                if door is not None and lost:
                    through_door(lost[0], drained=False)
        except BaseException:
            scheduler.close(timeout=0)  # a stalled stage must not hold the caller
            raise
        scheduler.close()
        records = [FrameRecord(index, t, "shed") for index, t in shed]
        records += [
            FrameRecord(fid, status="done" if fid in outputs else "failed", **book)
            for fid, book in books.items()
        ]
        done = [books[fid]["completion"] for fid in outputs]
        makespan = max(done) - epoch if done else 0.0
        return records, outputs, makespan
