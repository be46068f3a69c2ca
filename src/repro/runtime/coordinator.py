"""Coordinator: drives a plan on real worker processes.

Implements the paper's Fig. 6 workflow over the shared runtime core.
The plan is compiled once into a :class:`~repro.runtime.program.PlanProgram`
and a process-backed transport carries each stage's tiles to its worker
processes:

* :class:`TcpTransport` — framed sockets end to end; tensors are
  encoded into the stream (no-recopy sends, ``recv_into`` receives).
* :class:`ShmTransport` — the same control sockets, but tensor
  payloads live in shared-memory slot rings
  (:mod:`repro.runtime.shm`): one memcpy on send, a zero-copy
  ``np.ndarray`` view on receive.

Both transports are *self-launching*: :meth:`Transport.open` spawns the
worker processes, handshakes them, and ships each its compiled segment
plus the weights it touches — so :class:`~repro.runtime.core.PipelineSession`
and :class:`~repro.serve.server.PipelineServer` drive real processes
through the exact ``configure() → open()`` flow they use for the
in-process and simulated backends, fault ladder and tracing included.

:class:`DistributedPipeline` keeps frames from *different* stages in
flight concurrently.  It is a submit/collect client of the one
wall-clock scheduler, :class:`~repro.runtime.scheduler.StageScheduler`:
a thread per stage drives that stage's workers through the blocking
:meth:`TcpTransport.run_tasks` and hands the frame to the next stage.
Stage compute happens in the worker processes; the stage threads only
split, move bytes and stitch.

Worker failure recovery (extension): a dead worker's socket closes (a
wedged one misses ``RuntimeConfig.recv_timeout_s``), so its channel
raises :class:`~repro.runtime.faults.DeviceDead`; the fault ladder of
:func:`~repro.runtime.core.execute_stage` marks the device dead, has
the transport retire its workers and redistribute their strips among
the survivors (capacity-weighted, new tile programs shipped via
:class:`Reconfigure`) and replays the frame from that stage boundary.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import PipelinePlan
from repro.models.graph import Model
from repro.nn.executor import Engine
from repro.nn.weights import Weights, init_weights
from repro.runtime.core import StageTrace, TaskTiming, Transport
from repro.runtime.faults import (
    DeviceDead,
    FaultSchedule,
    RuntimeConfig,
    StageFailure,
)
from repro.runtime.messages import (
    Hello,
    Reconfigure,
    Setup,
    ShmAttach,
    Shutdown,
    TileResult,
    TileTask,
    WorkerError,
)
from repro.runtime.program import (
    PlanProgram,
    StageProgram,
    TaskSpec,
    compile_plan,
    repartition_stage,
    task_weight_names,
)
from repro.runtime.scheduler import StageScheduler
from repro.runtime.shm import ShmChannel, ShmRing
from repro.runtime.trace import coerce_tracer
from repro.runtime.transport import Channel
from repro.runtime.worker import worker_main

#: How long :meth:`TcpTransport.open` waits for each worker to connect.
_CONNECT_TIMEOUT_S = 30.0

# StageFailure moved to repro.runtime.faults; re-exported here for the
# existing import sites.
__all__ = [
    "DistributedPipeline",
    "RuntimeStats",
    "ShmTransport",
    "StageFailure",
    "TcpTransport",
]


@dataclass
class RuntimeStats:
    """Measured behaviour of a distributed run."""

    latencies: List[float] = field(default_factory=list)
    makespan: float = 0.0
    worker_compute_s: Dict[int, float] = field(default_factory=dict)
    recoveries: int = 0

    @property
    def avg_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return len(self.latencies) / self.makespan


@dataclass
class _WorkerHandle:
    worker_id: int
    process: mp.Process
    task: TaskSpec
    stage_index: int
    channel: Optional[Channel] = None
    alive: bool = True


class TcpTransport(Transport):
    """The framed-socket backend: one worker process per task.

    Conforms to the core :class:`~repro.runtime.core.Transport`
    protocol and is *self-launching*: :meth:`open` spawns one forked
    worker process per compiled task, handshakes them and ships their
    setups, so any session/server can use it directly.
    :meth:`run_tasks` scatters :class:`TileTask` frames to the stage's
    workers and gathers :class:`TileResult` frames; a lost worker
    surfaces as :class:`~repro.runtime.faults.DeviceDead`, which the
    shared fault ladder repairs via :meth:`repartition` (per-stage
    epochs discard stale results).  ``faults`` is a
    :class:`~repro.runtime.faults.FaultSchedule` the workers act out.
    """

    name = "tcp"
    rebindable = False  # workers hold compiled segments
    _channel_class = Channel

    def __init__(
        self,
        model: Model,
        weights: Optional[Weights] = None,
        *,
        seed: int = 0,
        faults: "Optional[FaultSchedule]" = None,
    ) -> None:
        super().__init__()
        if faults is not None and (faults.drops or faults.flaky_links):
            raise ValueError(
                "worker transports inject crashes and delays only: drop "
                "and flaky_link need a result-retry protocol the worker "
                "sockets lack"
            )
        self.model = model
        self.weights = weights
        self._seed = seed
        self.faults = faults
        self.stats = RuntimeStats()
        self._stats_lock = threading.Lock()
        self._handles: "List[List[_WorkerHandle]]" = []
        self._epochs: "List[int]" = []
        self._clock_epoch = time.perf_counter()
        self._opened = False
        self._torn_down = False

    def open(self, program: PlanProgram) -> None:
        if self._opened:
            raise RuntimeError("transport is already open")
        super().open(program)
        if self.weights is None:
            self.weights = init_weights(self.model, self._seed)
        self._epochs = [0] * program.n_stages
        self._clock_epoch = time.perf_counter()
        try:
            self._launch_workers(program)
        except BaseException:
            self._opened = True  # close() must tear down the partial spawn
            self.close()
            raise
        self._opened = True

    def _now(self) -> float:
        return time.perf_counter() - self._clock_epoch

    def clock(self) -> float:
        return self._now()

    def penalty(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    # -- worker lifecycle ----------------------------------------------
    def _launch_workers(self, program: PlanProgram) -> None:
        """Spawn, handshake and set up one worker process per task."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        host, port = listener.getsockname()
        listener.listen(64)
        listener.settimeout(_CONNECT_TIMEOUT_S)

        worker_id = 0
        ctx = mp.get_context("fork")
        for stage in program.stages:
            handles = []
            for task in stage.tasks:
                process = ctx.Process(
                    target=worker_main,
                    args=(host, port, worker_id, task.device_name, self.faults),
                    daemon=True,
                )
                process.start()
                handles.append(
                    _WorkerHandle(worker_id, process, task, stage.index)
                )
                worker_id += 1
            self.bind_stage(stage.index, handles)

        # Accept connections and match them to handles via Hello.
        by_id = {h.worker_id: h for h in self.all_handles()}
        try:
            for _ in range(len(by_id)):
                conn, _addr = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                channel = self._channel_class(conn)
                hello = channel.recv()
                assert isinstance(hello, Hello)
                by_id[hello.worker_id].channel = channel
        finally:
            listener.close()

        # Transport-specific channel upgrade (the shm backend attaches
        # its rings here), then ship setups: each worker gets its
        # compiled program plus the weights its segment touches.
        for handle in self.all_handles():
            self._upgrade_channel(handle)
        for stage in program.stages:
            if stage.branch:
                # Ship the whole block's weights: a failure may later
                # reassign any path to any surviving worker, and
                # Reconfigure does not carry parameters.
                unit = self.model.units[stage.start]
                block_names = {
                    layer.name for p in unit.paths for layer in p
                }
                subset = {
                    name: params
                    for name, params in self.weights.items()
                    if name in block_names
                }
                for handle in self.alive_handles(stage.index):
                    handle.channel.send(
                        Setup(self.model, handle.task.program, subset)
                    )
                continue
            for handle in self.alive_handles(stage.index):
                names = task_weight_names(handle.task.program)
                subset = {
                    name: params
                    for name, params in self.weights.items()
                    if name in names
                }
                handle.channel.send(
                    Setup(self.model, handle.task.program, subset)
                )

        # Bound worker recvs (the handshake above ran unbounded so slow
        # weight shipping never trips the timeout).
        timeout = self._config.recv_timeout_s if self._config else None
        if timeout is not None:
            for handle in self.all_handles():
                handle.channel.settimeout(timeout)

    def _upgrade_channel(self, handle: _WorkerHandle) -> None:
        """Hook: upgrade a freshly handshaken worker channel."""

    def bind_stage(self, stage_index: int, handles: "List[_WorkerHandle]") -> None:
        while len(self._handles) <= stage_index:
            self._handles.append([])
        self._handles[stage_index] = handles

    def alive_handles(self, stage_index: int) -> "List[_WorkerHandle]":
        return [h for h in self._handles[stage_index] if h.alive]

    def stage_tasks(self, stage_index: int) -> "Tuple[TaskSpec, ...]":
        handles = self.alive_handles(stage_index)
        if not handles:
            raise StageFailure(f"stage {stage_index}: no workers left")
        return tuple(h.task for h in handles)

    def run_tasks(
        self,
        stage_index: int,
        tiles: "Sequence[np.ndarray]",
        frame: int,
    ) -> "Tuple[List[np.ndarray], StageTrace]":
        handles = self.alive_handles(stage_index)
        epoch = self._epochs[stage_index]
        entry = self._now()
        send_spans = []
        for handle, tile in zip(handles, tiles):
            t0 = self._now()
            try:
                handle.channel.send(TileTask(frame, tile, epoch))
            except OSError:  # includes TransportClosed / broken pipes
                raise DeviceDead(
                    handle.task.device_name,
                    f"worker {handle.worker_id} unreachable",
                ) from None
            send_spans.append((t0, self._now()))
        outs: "List[np.ndarray]" = []
        timings: "List[TaskTiming]" = []
        for handle, span in zip(handles, send_spans):
            while True:
                try:
                    message = handle.channel.recv()
                except OSError:  # EOF, timeout (TransportClosed) or reset
                    raise DeviceDead(
                        handle.task.device_name,
                        f"worker {handle.worker_id} connection lost",
                    ) from None
                if getattr(message, "epoch", epoch) < epoch:
                    continue  # stale result from before a repartition
                break
            recv_end = self._now()
            if isinstance(message, WorkerError):
                raise RuntimeError(
                    f"worker {message.worker_id} failed task "
                    f"{message.task_id}: {message.message}"
                )
            assert isinstance(message, TileResult)
            outs.append(message.tile)
            timings.append(
                TaskTiming(
                    send=span,
                    compute=(
                        max(span[1], recv_end - message.compute_s),
                        recv_end,
                    ),
                    recv=(recv_end, recv_end),
                )
            )
            with self._stats_lock:
                self.stats.worker_compute_s[handle.worker_id] = (
                    self.stats.worker_compute_s.get(handle.worker_id, 0.0)
                    + message.compute_s
                )
        outs = self.materialise_outputs(
            stage_index, tuple(h.task for h in handles), outs
        )
        return outs, StageTrace(entry, entry, self._now(), tuple(timings))

    def materialise_outputs(
        self,
        stage_index: int,
        tasks: "Sequence[TaskSpec]",
        outs: "List[np.ndarray]",
    ) -> "List[np.ndarray]":
        """Hook: make result tiles safe to hand past the stitch (the
        shm backend copies the one case where a slot view would escape)."""
        return outs

    # ------------------------------------------------------------------
    def repartition(self, stage_index: int) -> None:
        """Retire the stage's workers on dead devices and redistribute
        the partition over the rest: :func:`repartition_stage`'s
        ``"rebalance"`` policy, then one ``Reconfigure`` per worker that
        still has work."""
        for handle in self._handles[stage_index]:
            if handle.task.device_name in self._dead:
                handle.alive = False
        survivors = self.alive_handles(stage_index)
        if not survivors:
            raise StageFailure(f"stage {stage_index}: no workers left")
        self._epochs[stage_index] += 1
        stage = self._program.stages[stage_index]
        alive = StageProgram(
            stage.index,
            stage.start,
            stage.end,
            stage.out_shape,
            tuple(h.task for h in survivors),
        )
        rebalanced = repartition_stage(self.model, alive, (), policy="rebalance")
        tasks = {task.device_name: task for task in rebalanced.tasks}
        for handle in survivors:
            task = tasks.get(handle.task.device_name)
            if task is None:
                handle.alive = False  # healthy, just out of work
                continue
            handle.task = task
            handle.channel.send(Reconfigure(task.program))
        with self._stats_lock:
            self.stats.recoveries += 1

    def rebind(self, program: PlanProgram) -> None:
        raise NotImplementedError(
            "process-backed transports cannot adopt a new plan mid-session "
            "(workers hold compiled segments); restart the pipeline instead"
        )

    def all_handles(self) -> "List[_WorkerHandle]":
        return [h for handles in self._handles for h in handles]

    def close(self) -> None:
        if self._torn_down:
            return
        self._torn_down = True
        for handle in self.all_handles():
            if handle.channel is not None:
                try:
                    handle.channel.send(Shutdown())
                except OSError:
                    pass
                handle.channel.close()
        for handle in self.all_handles():
            process = handle.process
            # A worker on a dead device may be wedged (a stopped process
            # ignores SIGTERM until it runs again): no grace for it, and
            # SIGKILL when SIGTERM does not take.
            if handle.task.device_name not in self._dead:
                process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join()


class ShmTransport(TcpTransport):
    """Same worker processes, zero-copy tensor plane.

    Each worker channel gets two shared-memory slot rings
    (:class:`~repro.runtime.shm.ShmRing`) sized for the stage's full
    input/output maps; tile payloads ride slots while control frames
    stay on the socket.  The coordinator creates every ring and unlinks
    them all in :meth:`close` — including after worker crashes and on
    ``KeyboardInterrupt`` (an ``atexit`` hook covers hard exits).

    ``slots_per_ring`` bounds the frames a channel can buffer; a full
    ring blocks the sender, and :meth:`backpressure` reports the
    highest send-ring occupancy so the serving layer can shed ahead of
    the block.  ``slot_frames`` scales slots for cross-frame batches
    (a batch bigger than ``slot_frames`` falls back to inline frames —
    slower, never wrong).
    """

    name = "shm"
    _channel_class = ShmChannel

    def __init__(
        self,
        model: Model,
        weights: Optional[Weights] = None,
        *,
        slots_per_ring: int = 4,
        slot_frames: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(model, weights, **kwargs)
        if slots_per_ring < 2:
            # One slot can never recycle: a slot frees on the *next*
            # control frame after its consumption.
            raise ValueError("slots_per_ring must be >= 2")
        if slot_frames < 1:
            raise ValueError("slot_frames must be >= 1")
        self.slots_per_ring = slots_per_ring
        self.slot_frames = slot_frames
        self._rings: "List[ShmRing]" = []
        self._send_rings: "List[ShmRing]" = []

    def _slot_bytes(self, stage_index: int) -> int:
        """A slot fits the stage's largest possible tile: its full
        input map or full output map (repartitions can grow any task's
        tile up to either bound), times the batch headroom."""
        stage = self._program.stages[stage_index]
        if stage.start == 0:
            in_shape = self.model.input_shape
        else:
            in_shape = self.model.out_shape(stage.start - 1)
        in_bytes = int(np.prod(in_shape)) * 4
        out_bytes = int(np.prod(stage.out_shape)) * 4
        return max(in_bytes, out_bytes) * self.slot_frames

    def _upgrade_channel(self, handle: _WorkerHandle) -> None:
        slot_bytes = self._slot_bytes(handle.stage_index)
        to_worker = ShmRing.create(slot_bytes, self.slots_per_ring)
        from_worker = ShmRing.create(slot_bytes, self.slots_per_ring)
        self._rings.extend((to_worker, from_worker))
        self._send_rings.append(to_worker)
        handle.channel.send(
            ShmAttach(
                send_name=from_worker.name,
                recv_name=to_worker.name,
                slot_bytes=to_worker.slot_bytes,
                n_slots=to_worker.n_slots,
            )
        )
        handle.channel.attach(send_ring=to_worker, recv_ring=from_worker)

    def materialise_outputs(
        self,
        stage_index: int,
        tasks: "Sequence[TaskSpec]",
        outs: "List[np.ndarray]",
    ) -> "List[np.ndarray]":
        # stitch_stage passes a single full-map tile through unchanged;
        # a ring-slot view escaping as the stage output would be
        # overwritten on slot reuse, so own it here.  Every other shape
        # is copied by the stitch itself before the slot can recycle.
        if len(tasks) == 1 and tasks[0].region is not None and outs:
            region = tasks[0].region
            stage = self.current_stage(stage_index)
            if (
                (region.height, region.width) == stage.out_shape[1:]
                and outs[0].base is not None
            ):
                # .copy(), not ascontiguousarray — the slot view *is*
                # contiguous, and ascontiguousarray would return it
                # unchanged.
                outs[0] = outs[0].copy()
        return outs

    def backpressure(self) -> float:
        """Highest send-ring occupancy — 1.0 means the next frame's
        send would block on slot acquire."""
        if not self._send_rings:
            return 0.0
        return max(ring.occupancy() for ring in self._send_rings)

    def close(self) -> None:
        if self._torn_down:
            return
        super().close()  # workers shut down and detach first
        for ring in self._rings:
            ring.destroy()


class DistributedPipeline:
    """Execute a :class:`PipelinePlan` on real OS processes.

    Usage::

        with DistributedPipeline(model, plan) as pipe:
            outputs, stats = pipe.run_batch(inputs)

    ``transport`` selects the tensor plane: ``"tcp"`` (framed sockets)
    or ``"shm"`` (shared-memory slot rings, zero-copy on the same
    host).  Either way the frames ride the shared
    :class:`~repro.runtime.scheduler.StageScheduler` — one thread per
    stage, every stage through the ``execute_stage`` fault ladder.

    ``trace`` follows the shared contract (``Tracer | bool | None``,
    see :func:`~repro.runtime.trace.coerce_tracer`): per-frame
    :class:`~repro.runtime.trace.TraceEvent` records are available as
    ``pipe.trace`` after the run, on the same schema the in-process and
    simulated backends emit.

    A :class:`~repro.runtime.faults.RuntimeConfig` turns on the fault
    tolerance layer: receive deadlines on worker channels and the
    recovery ladder; without one (the default) failures propagate.  A
    frame that fails past the ladder fails the pipeline: :meth:`collect`
    raises its exception, then and on every later call.  ``faults`` is
    a :class:`~repro.runtime.faults.FaultSchedule` the workers act out
    (see :class:`TcpTransport`).
    """

    def __init__(
        self,
        model: Model,
        plan: PipelinePlan,
        weights: Optional[Weights] = None,
        seed: int = 0,
        faults: "Optional[FaultSchedule]" = None,
        trace=False,
        config: "Optional[RuntimeConfig]" = None,
        transport: str = "tcp",
    ) -> None:
        self.model = model
        self.plan = plan
        self.program = compile_plan(model, plan)
        self.weights = weights if weights is not None else init_weights(model, seed)
        self.config = config
        self._engine = Engine(model, self.weights)
        self._tracer = coerce_tracer(trace)
        transports = {"tcp": TcpTransport, "shm": ShmTransport}
        if transport not in transports:
            raise ValueError(
                f"unknown transport {transport!r} (use 'tcp' or 'shm')"
            )
        self.transport = transports[transport](
            model, self.weights, faults=faults
        )
        # Stage threads add to it under the transport's lock.
        self.stats = self.transport.stats
        if config is not None:
            self.transport.configure(config)
        self._scheduler: "Optional[StageScheduler]" = None
        self._error: Optional[BaseException] = None
        self._submit_times: "Dict[int, float]" = {}
        self._next_task = 0
        self._started = False
        self._closed = False
        self._first_submit: Optional[float] = None

    @property
    def trace(self):
        """Collected trace events (empty unless ``trace=True``)."""
        return self._tracer.events if self._tracer is not None else ()

    # ------------------------------------------------------------------
    def start(self) -> "DistributedPipeline":
        if self._started:
            return self
        self.transport.open(self.program)
        self._scheduler = StageScheduler(
            self.program, self.transport, self._tracer, self.config
        )
        self._started = True
        return self

    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray) -> int:
        """Feed one input; returns its task id."""
        if not self._started:
            raise RuntimeError("pipeline not started")
        if x.shape != self.model.input_shape:
            raise ValueError(
                f"input shape {x.shape} != model input {self.model.input_shape}"
            )
        task_id = self._next_task
        self._next_task += 1
        now = time.perf_counter()
        if self._first_submit is None:
            self._first_submit = now
        self._submit_times[task_id] = now
        self._scheduler.submit(
            task_id, np.ascontiguousarray(x, dtype=np.float32)
        )
        return task_id

    def collect(self, timeout_s: float = 120.0) -> Tuple[int, np.ndarray]:
        """Fetch one completed (task_id, output) from the final stage."""
        if self._error is not None:
            raise self._error
        try:
            task_id, features, error, _batch, _done = (
                self._scheduler.results.get(timeout=timeout_s)
            )
        except queue.Empty:
            serving = ", ".join(
                f"frame {fids[0]} at stage {stage}"
                for stage, fids in self._scheduler.in_flight()
            )
            raise TimeoutError(
                f"no frame completed within {timeout_s} s; uncollected "
                f"frames {sorted(self._submit_times)}, being served: "
                f"{serving or 'none'}"
            ) from None
        if error is not None:
            self._error = error
            raise error
        now = time.perf_counter()
        self.stats.latencies.append(now - self._submit_times.pop(task_id))
        if self._first_submit is not None:
            self.stats.makespan = now - self._first_submit
        output = self._engine.run_head(features) if self.model.head else features
        return task_id, output

    def run_batch(
        self, inputs: "Sequence[np.ndarray]", timeout_s: float = 120.0
    ) -> Tuple[List[np.ndarray], RuntimeStats]:
        """Submit every input, gather every output (in submit order)."""
        ids = [self.submit(x) for x in inputs]
        outputs: "Dict[int, np.ndarray]" = {}
        for _ in ids:
            task_id, out = self.collect(timeout_s)
            outputs[task_id] = out
        return [outputs[i] for i in ids], self.stats

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._started:
            self._scheduler.close(timeout=10.0)
            self.transport.close()

    def __enter__(self) -> "DistributedPipeline":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
