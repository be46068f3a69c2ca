"""The wall-clock scheduler: one thread per stage, frames in flight.

:class:`StageScheduler` is the single owner of frames in flight on
wall-clock transports (in-process, TCP, shared memory).  Each stage of
the compiled plan gets one thread that takes a frame from its input
queue, serves it through the shared
:func:`~repro.runtime.core.execute_stage` path — fault ladder and trace
emission included — and hands the output map to the next stage through
a single-slot queue, so every stage holds at most one frame (or one
cross-frame batch) and different stages overlap freely.  The blocking
:meth:`~repro.runtime.core.Transport.run_tasks` is all it asks of a
transport, which is why one design serves backends with sockets and
backends without.

Two clients sit on top: :class:`~repro.serve.server.PipelineServer`
(bounded entry queue, admission policy, arrival pacing, frame records)
and :class:`~repro.runtime.coordinator.DistributedPipeline` (unbounded
entry queue, submit/collect).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.runtime.core import Transport, execute_stage, execute_stage_batch
from repro.runtime.faults import RuntimeConfig
from repro.runtime.program import PlanProgram, stack_frames, unstack_frames
from repro.runtime.trace import Tracer

__all__ = ["StageScheduler"]

_SENTINEL = object()


class StageScheduler:
    """Walk frames through a program's stages, one thread per stage.

    Threads start with the object.  :meth:`submit` feeds the entry
    queue (``entry_capacity`` bounds it; ``0`` = unbounded); every
    submitted frame ends as exactly one
    ``(frame, output, error, batch, done_at)`` tuple on :attr:`results`
    — ``output`` is the final feature map, or ``None`` with the
    exception that a stage raised past the fault ladder in ``error``;
    ``batch`` is the size of the cross-frame batch the frame rode in;
    ``done_at`` is the transport clock when the last stage finished.
    :meth:`close` lets the frames already submitted finish, then stops
    the threads; :meth:`drain` also hands out what is left on
    :attr:`results`.

    With ``max_batch > 1`` the entry stage coalesces queued frames into
    a ``(C, B, H, W)`` batch (holding the window open ``batch_timeout``
    seconds for stragglers) that traverses every stage as one unit; a
    singleton batch takes the exact per-frame path.
    """

    def __init__(
        self,
        program: PlanProgram,
        transport: Transport,
        tracer: Optional[Tracer] = None,
        config: "Optional[RuntimeConfig]" = None,
        *,
        entry_capacity: int = 0,
        max_batch: int = 1,
        batch_timeout: float = 0.0,
    ) -> None:
        self.program = program
        self.transport = transport
        self.tracer = tracer
        self.config = config
        self.max_batch = max_batch
        self.batch_timeout = batch_timeout
        n_stages = program.n_stages
        # One frame per stage slot: only the entry queue holds a backlog.
        self._queues: "List[queue.Queue]" = [queue.Queue(maxsize=entry_capacity)]
        self._queues += [queue.Queue(maxsize=1) for _ in range(n_stages - 1)]
        self.results: "queue.Queue" = queue.Queue()
        self._serving: "List[Tuple[int, ...]]" = [()] * n_stages
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._run_stage, args=(i,), name=f"stage-{i}", daemon=True
            )
            for i in range(n_stages)
        ]
        for thread in self._threads:
            thread.start()

    # -- client interface ----------------------------------------------
    def submit(self, frame: int, x: np.ndarray, block: bool = True) -> bool:
        """Queue one frame at the pipeline entrance.

        With ``block=False`` a full entry queue refuses the frame and
        the call returns ``False`` (the caller sheds it).
        """
        try:
            self._queues[0].put(((frame,), x, None), block=block)
        except queue.Full:
            return False
        return True

    def in_flight(self) -> "List[Tuple[int, Tuple[int, ...]]]":
        """``(stage, frames)`` for every stage serving something now."""
        return [(s, fids) for s, fids in enumerate(self._serving) if fids]

    def close(self, timeout: Optional[float] = None) -> None:
        """Finish the submitted frames and stop the stage threads.

        ``timeout`` bounds the wait per thread (a stage wedged on a
        silent worker is left to the transport's own ``close``).
        """
        if self._closed:
            return
        self._closed = True
        self._queues[0].put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout)

    def drain(self):
        """Close, then hand out every result not collected yet."""
        self.close()
        while not self.results.empty():
            yield self.results.get()

    # -- stage threads -------------------------------------------------
    def _take(self, in_q: "queue.Queue", limit: int):
        """Next unit of work off a stage's input queue.

        Returns ``(item, stop)``; ``item`` is ``None`` when only the
        shutdown sentinel was left.  With ``limit > 1`` (the entrance,
        when batching) frames already queued coalesce into one batch:
        blocks for the first frame, then takes stragglers, holding the
        window open up to ``batch_timeout``.
        """
        first = in_q.get()
        if first is _SENTINEL:
            return None, True
        if limit == 1:
            return first, False
        items, stop = [first], False
        deadline = time.monotonic() + self.batch_timeout
        while len(items) < limit:
            wait = deadline - time.monotonic()
            try:
                nxt = in_q.get(timeout=wait) if wait > 0 else in_q.get_nowait()
            except queue.Empty:
                break
            if nxt is _SENTINEL:
                stop = True
                break
            items.append(nxt)
        if len(items) == 1:
            return first, stop
        fids = tuple(fid for (fid,), _, _ in items)
        return (fids, stack_frames([x for _, x, _ in items]), None), stop

    def _run_stage(self, stage_index: int) -> None:
        in_q = self._queues[stage_index]
        last = stage_index + 1 == self.program.n_stages
        out_q = None if last else self._queues[stage_index + 1]
        limit = self.max_batch if stage_index == 0 else 1
        stop = False
        while not stop:
            item, stop = self._take(in_q, limit)
            if item is None:
                break
            fids, x, error = item
            if error is None:  # else it failed upstream: forward its fate
                self._serving[stage_index] = fids
                try:
                    if len(fids) == 1:
                        x = execute_stage(
                            self.transport, self.program, stage_index, x,
                            fids[0], self.tracer, self.config,
                        )
                    else:
                        x = execute_stage_batch(
                            self.transport, self.program, stage_index, x,
                            fids, self.tracer, self.config,
                        )
                except Exception as exc:  # noqa: BLE001 - fate recorded
                    x, error = None, exc
                self._serving[stage_index] = ()
            if last:
                self._deliver(fids, x, error)
            else:
                out_q.put((fids, x, error))
        if not last:
            out_q.put(_SENTINEL)

    def _deliver(self, fids, x, error) -> None:
        now = self.transport.clock()
        if error is not None:
            outs = [None] * len(fids)
        elif len(fids) == 1:
            outs = [x]
        else:
            outs = unstack_frames(x)
        for fid, out in zip(fids, outs):
            self.results.put((fid, out, error, len(fids), now))
