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
``batch_timeout`` seconds for stragglers) that traverses every stage
as one unit — one
batched kernel pass per stage, amortising per-frame dispatch and
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

With an :class:`~repro.adaptive.switcher.AdaptiveSwitcher` the virtual
server also feeds the *measured* queue depth into the switcher at every
arrival and adopts the newly active candidate at drain boundaries
(pipeline empty), the serving-layer counterpart of the event
simulator's drain-before-switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._util import nearest_rank
from repro.runtime.core import PipelineSession, Transport
from repro.runtime.faults import RuntimeConfig, StageFailure
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
    stage is free; ``0`` launches with whatever is already queued — the
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
    rode in (1 outside micro-batching).
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
    which serves the clock and touches no tensor.
    """

    records: List[FrameRecord]
    outputs: Dict[int, np.ndarray]
    makespan: float
    trace: Tuple[TraceEvent, ...] = ()
    plan_usage: Dict[str, int] = field(default_factory=dict)

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
        ``replan(dead) -> (PlanProgram, kind)`` — adopted when a stage
        fails outright (see :func:`~repro.runtime.faults.churn_replanner`).
    switcher:
        An :class:`~repro.adaptive.switcher.AdaptiveSwitcher`; the
        virtual server feeds it the measured queue depth per arrival
        and switches candidate plans at drain boundaries.
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
        self.program = program
        self.transport = transport
        self.config = config or ServerConfig()
        self.tracer = coerce_tracer(tracer)
        self.runtime_config = runtime_config
        self.replanner = replanner
        self.switcher = switcher
        self.virtual = not transport.wall_clock
        if switcher is not None and not self.virtual:
            raise ValueError(
                "adaptive switching is only supported on virtual-clock "
                "transports (drain boundaries are analytic there)"
            )
        self._session: Optional[PipelineSession] = None
        self._plan_name = program.plan.mode
        if switcher is not None:
            self._plan_name = switcher.active.name
        if self.virtual:
            # PipelineSession opens the transport and owns the per-frame
            # fault ladder + churn replanning.
            self._session = PipelineSession(
                program, transport, self.tracer, runtime_config, replanner
            )
        else:
            if runtime_config is not None:
                transport.configure(runtime_config)
            transport.open(program)
        self._closed = False

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
        for wall-clock backends); ``None`` submits back-to-back.
        """
        frames = self._materialise(frames)
        if arrivals is None:
            arrivals = [0.0] * len(frames)
        if len(arrivals) != len(frames):
            raise ValueError("arrivals must align one-to-one with frames")
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("arrivals must be non-decreasing")
        if self.virtual:
            return self._serve_virtual(frames, list(arrivals))
        return self._serve_threaded(frames, list(arrivals))

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
    ) -> ServeResult:
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
        default ``batch_timeout=0``); a batch that fills launches on its
        last member's admission.  Everything is driven by the
        transport's deterministic FIFO recurrence, so the completion
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
        assert session is not None
        completions: "List[float]" = []  # launched frames, FIFO order
        head = 0  # completions[head:] are still in the system
        compute = self.transport.compute
        records: "List[FrameRecord]" = []
        outputs: "Dict[int, np.ndarray]" = {}
        plan_usage: "Dict[str, int]" = {}
        #: forming batch: ``(index, frame, admitted_at)`` per member.
        pending: "List[Tuple[int, np.ndarray, float]]" = []
        last_admit = 0.0

        def launch() -> None:
            """Run the forming batch as one unit; record its frames."""
            batch, pending[:] = list(pending), []
            if not batch:
                return
            admits = [a for _, _, a in batch]
            if len(batch) < cfg.max_batch:
                at = max(admits[-1], admits[0] + cfg.batch_timeout)
            else:
                at = admits[-1]  # filled up: launches on the last admit
            try:
                outs = session.run_stacked([x for _, x, _ in batch], at=at)
            except StageFailure:
                for index, _, admit in batch:
                    records.append(
                        FrameRecord(
                            index, arrivals[index], "failed",
                            admitted_at=admit, batch=len(batch),
                        )
                    )
                return
            done = self.transport.clock()
            name = self._plan_name
            plan_usage[name] = plan_usage.get(name, 0) + len(batch)
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
            self._observe(t, depth)
            if depth == 0:
                self._maybe_switch(index)
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
        records.sort(key=lambda r: r.frame)
        makespan = completions[-1] if completions else 0.0
        trace = self.tracer.events if self.tracer is not None else ()
        return ServeResult(records, outputs, makespan, trace, plan_usage)

    def _observe(self, now: float, depth: int) -> None:
        """Feed the measured queue depth into the adaptive switcher."""
        if self.switcher is not None:
            self.switcher.on_arrival(now, queue_depth=depth)

    def _maybe_switch(self, frame: int) -> None:
        """Adopt the switcher's active candidate at a drain boundary."""
        if self.switcher is None:
            return
        active = self.switcher.active
        if active.name == self._plan_name:
            return
        model = self.transport.model
        program = compile_plan(model, active.plan)
        self.transport.rebind(program)
        assert self._session is not None
        self._session.program = program
        self.program = program
        self._plan_name = active.name
        if self.tracer is not None:
            now = self.transport.clock()
            self.tracer.emit(
                TraceEvent("replan", frame, 0, active.name, now, now)
            )

    # ------------------------------------------------------------------
    # Wall-clock strategy: the runtime's stage-thread scheduler owns the
    # frames in flight; this layer paces the arrivals, decides admission
    # and keeps the records.
    # ------------------------------------------------------------------
    def _serve_threaded(
        self, frames: "List[np.ndarray]", arrivals: "List[float]"
    ) -> ServeResult:
        cfg = self.config
        transport = self.transport
        scheduler = StageScheduler(
            self.program, transport, self.tracer, self.runtime_config,
            capacity=cfg.queue_capacity,
            max_batch=cfg.max_batch, batch_timeout=cfg.batch_timeout,
        )
        pending: "Dict[int, Dict]" = {}  # fid -> {arrival, admitted_at, x0}
        epoch = transport.clock()
        shed: "List[Tuple[int, float]]" = []
        for index, x in enumerate(frames):
            target = epoch + arrivals[index]
            wait = target - transport.clock()
            if wait > 0:
                time.sleep(wait)
            x0 = np.ascontiguousarray(x, dtype=np.float32)
            arrival_t = transport.clock()
            if cfg.policy == "block":
                # Closed-loop backpressure also honours the transport's
                # own buffering: a saturated shm slot ring would stall a
                # stage thread on the send, so admission waits for the
                # ring to drain as well as for a queue slot.
                while transport.backpressure() >= 1.0:
                    time.sleep(0.0005)
                scheduler.submit(index, x0)
            elif transport.backpressure() >= 1.0 or not scheduler.submit(
                index, x0, block=False
            ):
                # A full admission queue — or a saturated transport
                # (e.g. a full shm slot ring), where queueing the frame
                # would only stall a stage thread on the send: shed now.
                shed.append((index, arrival_t))
                continue
            pending[index] = {
                "arrival": arrival_t,
                "admitted_at": transport.clock(),
                "x0": x0,
            }
        outputs: "Dict[int, np.ndarray]" = {}
        done_at: "Dict[int, float]" = {}
        batch_of: "Dict[int, int]" = {}  # fid -> batch size it rode in
        for fid, out, _error, batch, done in scheduler.drain():
            batch_of[fid] = batch
            if out is not None:
                outputs[fid], done_at[fid] = out, done
        replayed = self._replay_failed(pending, outputs, done_at)
        records: "List[FrameRecord]" = []
        for index, arrival_t in shed:
            records.append(FrameRecord(index, arrival_t, "shed"))
        for fid, info in pending.items():
            if fid in outputs:
                records.append(
                    FrameRecord(
                        fid, info["arrival"], "done",
                        admitted_at=info["admitted_at"],
                        completion=done_at[fid],
                        plan=self._plan_name,
                        replayed=fid in replayed,
                        batch=batch_of[fid],
                    )
                )
            else:
                records.append(
                    FrameRecord(
                        fid, info["arrival"], "failed",
                        admitted_at=info["admitted_at"],
                        batch=batch_of[fid],
                    )
                )
        records.sort(key=lambda r: r.frame)
        makespan = max(done_at.values()) - epoch if done_at else 0.0
        trace = self.tracer.events if self.tracer is not None else ()
        usage = {self._plan_name: len(outputs)} if outputs else {}
        return ServeResult(records, outputs, makespan, trace, usage)

    def _replay_failed(
        self,
        pending: "Dict[int, Dict]",
        outputs: "Dict[int, np.ndarray]",
        done_at: "Dict[int, float]",
    ) -> "set":
        """Drain-time recovery: replay unrecoverable frames on a fresh plan.

        A frame only lands here when a stage raised past the in-stage
        ladder (:class:`StageFailure` — every device of a stage died).
        With a replanner the server adopts a plan over the survivors and
        replays each lost frame from its original input; without one —
        or on a transport that cannot ``rebind`` (worker processes hold
        compiled segments) — the frames stay ``failed`` (reported,
        never silent).
        """
        failed = sorted(fid for fid in pending if fid not in outputs)
        replayed: "set" = set()
        if not failed or self.replanner is None:
            return replayed
        if not self.transport.rebindable:
            return replayed
        dead = self.transport.dead_devices()
        if not dead:
            return replayed
        result = self.replanner(dead)
        if result is None:
            return replayed
        program, kind = result
        if self.tracer is not None:
            now = self.transport.clock()
            tag = ",".join(sorted(dead))
            self.tracer.emit(TraceEvent(kind, failed[0], 0, tag, now, now))
        self.transport.rebind(program)
        self.program = program
        scheduler = StageScheduler(
            program, self.transport, self.tracer, self.runtime_config
        )
        for fid in failed:
            scheduler.submit(fid, pending[fid]["x0"])
        for fid, out, _error, _batch, done in scheduler.drain():
            if out is None:
                continue  # stays failed; recorded as such
            outputs[fid], done_at[fid] = out, done
            replayed.add(fid)
            if self.tracer is not None:
                self.tracer.emit(
                    TraceEvent("frame_replayed", fid, 0, "", done, done)
                )
        return replayed
