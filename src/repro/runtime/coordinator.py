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

Both transports are *self-launching*: :meth:`Transport.open` forks the
worker processes with their roles — model, compiled segment, weights
and compute width as process arguments, so a worker maps this
process's shared weight pages and faults in only those its segment
reads — and handshakes them; so
:class:`~repro.runtime.core.PipelineSession` and
:class:`~repro.serve.server.PipelineServer` drive real processes
through the exact ``configure() → open()`` flow they use for the
in-process and simulated backends, fault ladder and tracing included.

:class:`~repro.serve.server.PipelineServer` keeps frames from
*different* stages in flight concurrently on the one wall-clock
scheduler, :class:`~repro.runtime.scheduler.StageScheduler`: a thread
per stage sends a frame's tiles to its workers
(:meth:`TcpTransport.dispatch`), sends the next frame's too when one is
queued, then gathers the first (:meth:`TcpTransport.collect`) and hands
it to the next stage — a worker's next tile is waiting when it finishes.
Stage compute happens in the worker processes; the stage threads only
split, move bytes and stitch.

Worker failure recovery (extension): a dead worker's socket closes (a
wedged one misses ``RuntimeConfig.recv_timeout_s``), so its channel
raises :class:`~repro.runtime.faults.DeviceDead`; the fault ladder of
:func:`~repro.runtime.core.collect_stage` marks the device dead, has
the transport retire its workers and redistribute their strips among
the survivors (capacity-weighted, new tile programs shipped via
:class:`Reconfigure`; every worker already holds every layer) and
replays the frame from that stage boundary; the frame dispatched ahead
of it is re-sent to the survivors, and the replies stamped with the old
epoch are skipped.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import PipelinePlan
from repro.models.graph import Model
from repro.nn import parallel
from repro.nn.weights import Weights, init_weights
from repro.runtime.core import StageTrace, TaskTiming, Transport
from repro.runtime.faults import (
    DeviceDead,
    FaultSchedule,
    StageFailure,
)
from repro.runtime.messages import (
    Hello,
    Reconfigure,
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
    "ShmTransport",
    "StageFailure",
    "TcpTransport",
]


@dataclass
class _WorkerHandle:
    worker_id: int
    process: mp.Process
    task: TaskSpec
    stage_index: int
    channel: Optional[Channel] = field(default=None, init=False)
    alive: bool = field(default=True, init=False)


@dataclass
class _Dispatched:
    """One stage's frame on the wire: what :meth:`TcpTransport.collect`
    matches the replies against, and the send spans it reports."""

    stage_index: int
    frame: int
    epoch: int
    handles: "List[_WorkerHandle]"
    entry: float
    send_spans: "List[Tuple[float, float]]"


class TcpTransport(Transport):
    """The framed-socket backend: one worker process per task.

    Conforms to the core :class:`~repro.runtime.core.Transport`
    protocol and is *self-launching*: :meth:`open` forks one worker
    process per compiled task, handing each its role through the fork
    (nothing is shipped but the handshake), so any session/server can
    use it directly.  The workers split this process's
    :mod:`repro.nn.parallel` width: each computes on
    ``max(1, width // workers)`` threads (:attr:`worker_threads`).
    :meth:`dispatch` scatters :class:`TileTask` frames to the stage's
    workers and :meth:`collect` gathers the :class:`TileResult` frames,
    matched by ``(task_id, epoch)``; a lost worker surfaces as
    :class:`~repro.runtime.faults.DeviceDead`, which the shared fault
    ladder repairs via :meth:`repartition` (per-stage epochs discard
    stale results).  ``faults`` is a
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
        #: Stage repartitions after a worker loss, over the transport's life.
        self.recoveries = 0
        self._handles: "List[List[_WorkerHandle]]" = []
        #: The compute width every worker was launched with (set by :meth:`open`).
        self.worker_threads: Optional[int] = None
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
        """Fork and handshake one worker process per task."""
        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:
            raise RuntimeError(
                f"{type(self).__name__} needs the 'fork' start method, which "
                "this platform lacks: each worker gets its role and the "
                "shared parameter pages through the fork"
            ) from exc
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        host, port = listener.getsockname()
        listener.listen(64)
        listener.settimeout(_CONNECT_TIMEOUT_S)

        # The workers share this deployment's threads: each computes on
        # its share, one thread wherever there are more workers than
        # threads.  A worker's role — model, program, weights, width —
        # goes through the fork: the fork context pickles no argument,
        # so every worker computes on this process's shared weight
        # mappings, faulting in only the pages its program reads.
        n_workers = sum(len(stage.tasks) for stage in program.stages)
        self.worker_threads = max(1, parallel.configured_threads() // n_workers)
        worker_id = 0
        for stage in program.stages:
            handles = []
            for task in stage.tasks:
                process = ctx.Process(
                    target=worker_main,
                    args=(
                        host, port, worker_id, self.model, task.program,
                        self.weights, self.worker_threads, task.device_name,
                        self.faults,
                    ),
                    daemon=True,
                )
                process.start()
                handles.append(
                    _WorkerHandle(worker_id, process, task, stage.index)
                )
                worker_id += 1
            self.bind_stage(stage.index, handles)

        # Accept connections and match them to handles via Hello.  The
        # listener takes any local connection, so a wrong greeting is an
        # error, not an assertion.
        by_id = {h.worker_id: h for h in self.all_handles()}
        try:
            for _ in range(len(by_id)):
                conn, _addr = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                channel = self._channel_class(conn)
                hello = channel.recv()
                if not isinstance(hello, Hello):
                    problem = f"expected a Hello, got {type(hello).__name__}"
                elif hello.worker_id not in by_id:
                    problem = f"unknown worker id {hello.worker_id!r}"
                elif by_id[hello.worker_id].channel is not None:
                    problem = f"duplicate worker id {hello.worker_id}"
                else:
                    by_id[hello.worker_id].channel = channel
                    continue
                channel.close()
                raise RuntimeError(f"worker handshake: {problem}")
        finally:
            listener.close()

        # Transport-specific channel upgrade (the shm backend attaches
        # its rings here), then bound worker recvs (the handshake above
        # ran unbounded so a slow worker start never trips the timeout).
        timeout = self._config.recv_timeout_s if self._config else None
        for handle in self.all_handles():
            self._upgrade_channel(handle)
            if timeout is not None:
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
        return self.collect(self.dispatch(stage_index, tiles, frame))

    def dispatch(
        self,
        stage_index: int,
        tiles: "Sequence[np.ndarray]",
        frame: int,
    ) -> "_Dispatched":
        """Send one ``TileTask`` per alive worker of the stage, stamped
        with the frame and the stage's current epoch."""
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
        return _Dispatched(stage_index, frame, epoch, handles, entry, send_spans)

    def collect(self, sent: "_Dispatched") -> "Tuple[List[np.ndarray], StageTrace]":
        """Receive every worker's result for ``sent``.

        A ``WorkerError`` fails the frame only after every other
        worker's result for it is read, so the frame dispatched behind
        it still finds its own results first on every channel.
        """
        outs: "List[np.ndarray]" = []
        timings: "List[TaskTiming]" = []
        failed: "Optional[WorkerError]" = None
        for handle, span in zip(sent.handles, sent.send_spans):
            message = self._recv_result(handle, sent)
            recv_end = self._now()
            if isinstance(message, WorkerError):
                failed = failed or message
                continue
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
        if failed is not None:
            raise RuntimeError(
                f"worker {failed.worker_id} failed task "
                f"{failed.task_id}: {failed.message}"
            )
        outs = self.materialise_outputs(
            sent.stage_index, tuple(h.task for h in sent.handles), outs
        )
        return outs, StageTrace(sent.entry, sent.entry, self._now(), tuple(timings))

    @staticmethod
    def _recv_result(handle: _WorkerHandle, sent: "_Dispatched"):
        """The worker's reply to ``sent``, matched by ``(task_id, epoch)``:
        replies from before a repartition are skipped; a reply of the
        current epoch for another frame is a protocol error."""
        while True:
            try:
                message = handle.channel.recv()
            except OSError:  # EOF, timeout (TransportClosed) or reset
                raise DeviceDead(
                    handle.task.device_name,
                    f"worker {handle.worker_id} connection lost",
                ) from None
            if not isinstance(message, (TileResult, WorkerError)):
                raise RuntimeError(
                    f"worker {handle.worker_id} sent "
                    f"{type(message).__name__} where a result was due"
                )
            if message.epoch < sent.epoch:
                continue  # stale result from before a repartition
            if message.epoch == sent.epoch and message.task_id == sent.frame:
                return message
            raise RuntimeError(
                f"worker {handle.worker_id} returned frame "
                f"{message.task_id} (epoch {message.epoch}) while frame "
                f"{sent.frame} (epoch {sent.epoch}) was collected"
            )

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
        with self._dead_lock:  # stages repartition on their own threads
            self.recoveries += 1

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
    """Submit/collect over :class:`StageScheduler` for the e2e benchmark's
    ``toy64_tcp_evloop`` workload only; everything else serves through
    :class:`~repro.serve.server.PipelineServer`.  The next benchmark
    change moves that workload to the server and deletes this class."""

    def __init__(self, model: Model, plan: PipelinePlan, weights: Weights, *,
                 transport: str = "tcp", trace=False) -> None:
        self.program = compile_plan(model, plan)
        backend = {"tcp": TcpTransport, "shm": ShmTransport}[transport]
        self.transport = backend(model, weights)
        self._tracer = coerce_tracer(trace)
        self._scheduler: "Optional[StageScheduler]" = None
        self._next = 0

    @property
    def trace(self):
        return self._tracer.events if self._tracer is not None else ()

    def start(self) -> "DistributedPipeline":
        self.transport.open(self.program)
        self._scheduler = StageScheduler(self.program, self.transport, self._tracer)
        return self

    def submit(self, x: np.ndarray) -> int:
        self._next += 1
        self._scheduler.submit(self._next - 1, np.ascontiguousarray(x, np.float32))
        return self._next - 1

    def collect(self, timeout_s: float = 0.0) -> "Tuple[int, np.ndarray]":
        # The scheduler's STALL_S, not timeout_s, bounds the wait.
        frame, out, error, _batch, _done = self._scheduler.collect()
        if error is not None:
            raise error
        return frame, out

    def close(self) -> None:
        if self._scheduler is not None:
            self._scheduler.close(timeout=10.0)
        self.transport.close()
