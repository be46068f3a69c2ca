"""The wall-clock scheduler: one thread per stage, frames in flight.

:class:`StageScheduler` is the single owner of frames in flight on
wall-clock transports (in-process, TCP, shared memory).  Each stage of
the compiled plan gets one thread.  It takes a frame from its input
queue and dispatches it (:func:`~repro.runtime.core.dispatch_stage`);
if another frame is already queued it dispatches that one too, *ahead*,
then collects the first through the shared fault ladder
(:func:`~repro.runtime.core.collect_stage`, trace emission included)
and hands the output map to the next stage through a single-slot
queue.  So a stage holds at most two frames (or cross-frame batches):
the one it collects and the one whose tiles already wait at its
workers, which start on it the moment they finish the first — the
period is the slowest stage's compute, not compute plus the
coordinator's turn.  Different stages overlap freely.  A transport
without workers of its own dispatches lazily
(:meth:`~repro.runtime.core.Transport.dispatch`), which is why one
design serves backends with sockets and backends without.

Admission counts frames in the system: with ``capacity`` set,
:meth:`StageScheduler.submit` holds one permit per frame from submit
until its result is delivered.  :meth:`StageScheduler.replan` swaps
the program at a drain boundary.  A client never waits without bound:
a blocked admission or :meth:`StageScheduler.collect` that sees no
frame delivered for :data:`STALL_S` seconds raises a
:class:`TimeoutError` naming the frames the stages hold.

Its client is :class:`~repro.serve.server.PipelineServer` (bounded
admission, policy, arrival pacing, frame records).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.runtime.core import (
    StageWork,
    Transport,
    collect_stage,
    dispatch_stage,
)
from repro.runtime.faults import RuntimeConfig
from repro.runtime.program import PlanProgram, stack_frames, unstack_frames
from repro.runtime.trace import Tracer

__all__ = ["StageScheduler"]

_SENTINEL = object()

#: How long a blocked admission or :meth:`StageScheduler.collect` waits
#: for a frame to be delivered before it names the stalled frames.
STALL_S = 120.0


class StageScheduler:
    """Walk frames through a program's stages, one thread per stage.

    Threads start with the object.  :meth:`submit` feeds the entry
    queue; ``capacity`` bounds the frames submitted and not yet
    delivered (``0`` = unbounded).  Every submitted frame ends as
    exactly one ``(frame, output, error, batch, done_at)`` tuple on
    :attr:`results` (:meth:`collect` takes the next) — ``output`` is the
    final feature map, or ``None`` with the exception that a stage
    raised past the fault ladder in ``error``; ``batch`` is the size of
    the cross-frame batch the frame rode in; ``done_at`` is the
    transport clock when the last stage finished.  :meth:`close` lets
    the frames already submitted finish, then stops the threads;
    :meth:`drain` also hands out what is left on :attr:`results`.

    Every stage dispatches one frame ahead of the one it collects
    (see the module docstring), except a batching entrance: with
    ``max_batch > 1`` the entry stage coalesces queued frames into a
    ``(C, B, H, W)`` batch (holding the window open ``batch_timeout``
    seconds for stragglers, but not past a frame submitted as the
    ``last`` of its schedule) that traverses every stage as one unit,
    and forms it only when it is free — a batch formed ahead would close
    the window early.  A singleton batch takes the exact per-frame path.
    """

    def __init__(
        self,
        program: PlanProgram,
        transport: Transport,
        tracer: Optional[Tracer] = None,
        config: "Optional[RuntimeConfig]" = None,
        *,
        capacity: int = 0,
        max_batch: int = 1,
        batch_timeout: float = 0.0,
    ) -> None:
        self.program = program
        self.transport = transport
        self.tracer = tracer
        self.config = config
        self.max_batch = max_batch
        self.batch_timeout = batch_timeout
        self._admit = threading.BoundedSemaphore(capacity) if capacity else None
        self._last: Optional[int] = None  # the schedule's last frame, once submitted
        self.results: "queue.Queue" = queue.Queue()
        self._closed = False
        self._start()

    def _start(self) -> None:
        """One thread per stage of :attr:`program`, and their queues."""
        n_stages = self.program.n_stages
        # Hand-offs hold one frame: a stage's backlog is the frame it
        # collects, the one it dispatched ahead and one in its queue.
        self._queues: "List[queue.Queue]" = [queue.Queue()]
        self._queues += [queue.Queue(maxsize=1) for _ in range(n_stages - 1)]
        self._serving: "List[Tuple[Tuple[int, ...], ...]]" = [()] * n_stages
        self._threads = [
            threading.Thread(
                target=self._run_stage, args=(i,), name=f"stage-{i}", daemon=True
            )
            for i in range(n_stages)
        ]
        for thread in self._threads:
            thread.start()

    def _stop(self, timeout: Optional[float] = None) -> None:
        """Let every submitted frame finish, then stop the threads."""
        self._queues[0].put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout)

    # -- client interface ----------------------------------------------
    def submit(
        self, frame: int, x: np.ndarray, block: bool = True, last: bool = False
    ) -> bool:
        """Queue one frame at the pipeline entrance.

        With a ``capacity`` the call waits for the frame count to fall
        below it (at most :data:`STALL_S`); with ``block=False`` it
        refuses the frame instead and returns ``False`` (the caller
        sheds it).  ``last`` marks the final frame of the caller's
        arrival schedule: a batch window that takes it launches at once
        instead of waiting out ``batch_timeout`` for frames that will
        never come.
        """
        wait = STALL_S if block else None
        if self._admit is not None and not self._admit.acquire(block, wait):
            if block:
                raise self._stalled()
            return False
        if last:
            self._last = frame
        self._queues[0].put(((frame,), x, None))
        return True

    def collect(self, block: bool = True):
        """The next ``(frame, output, error, batch, done_at)`` off
        :attr:`results`; ``None`` when ``block`` is false and none is
        there.  A blocking call waits at most :data:`STALL_S`."""
        try:
            return self.results.get(block, STALL_S)
        except queue.Empty:
            if block:
                raise self._stalled() from None
            return None

    def _stalled(self) -> TimeoutError:
        serving = ", ".join(
            f"frame {fids[0]} at stage {stage}" for stage, fids in self.in_flight()
        )
        return TimeoutError(
            f"no frame completed within {STALL_S} s; being served: "
            f"{serving or 'none'}"
        )

    def in_flight(self) -> "List[Tuple[int, Tuple[int, ...]]]":
        """``(stage, frames)`` for every frame (or batch) a stage holds
        now: the one it collects, then the one dispatched ahead."""
        return [
            (s, fids) for s, held in enumerate(self._serving) for fids in held
        ]

    def close(self, timeout: Optional[float] = None) -> None:
        """Finish the submitted frames and stop the stage threads.

        ``timeout`` bounds the wait per thread (a stage wedged on a
        silent worker is left to the transport's own ``close``).
        """
        if self._closed:
            return
        self._closed = True
        self._stop(timeout)

    def replan(self, program: PlanProgram, adopt) -> None:
        """Swap to ``program`` at a drain boundary.  Called from the
        submitting thread, so admission holds: every frame in the system
        (both frames each stage holds) finishes, ``adopt()`` rebinds the
        transport, and one thread per stage of ``program`` starts."""
        self._stop()
        adopt()
        self.program = program
        self._start()

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
        window open up to ``batch_timeout`` — or until it holds the
        schedule's ``last`` frame (:meth:`submit`).
        """
        first = in_q.get()
        if first is _SENTINEL:
            return None, True
        if limit == 1 or first[0] == (self._last,):
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
            if nxt[0] == (self._last,):
                break
        if len(items) == 1:
            return first, stop
        fids = tuple(fid for (fid,), _, _ in items)
        return (fids, stack_frames([x for _, x, _ in items]), None), stop

    @staticmethod
    def _take_queued(in_q: "queue.Queue"):
        """The next item if one is queued already: ``(item, stop)``."""
        try:
            item = in_q.get_nowait()
        except queue.Empty:
            return None, False
        if item is _SENTINEL:
            return None, True
        return item, False

    def _run_stage(self, stage_index: int) -> None:
        in_q = self._queues[stage_index]
        last = stage_index + 1 == self.program.n_stages
        out_q = None if last else self._queues[stage_index + 1]
        limit = self.max_batch if stage_index == 0 else 1
        current, stop = None, False
        while True:
            if current is None:
                if stop:
                    break
                item, stop = self._take(in_q, limit)
                if item is None:
                    break
                current = self._hold(stage_index, item)
            # (Re-)dispatch unless its tiles are out for the current
            # task set — a repartition while collecting the frame
            # before makes them stale — and only then send the next.
            self._dispatch(stage_index, current, repair=True)
            ahead = None
            if limit == 1 and not stop:  # a batching entrance waits until free
                item, stop = self._take_queued(in_q)
                if item is not None:
                    ahead = self._hold(stage_index, item)
                    self._dispatch(stage_index, ahead, repair=False)
            self._finish(stage_index, current, last, out_q)
            current = ahead
        if not last:
            out_q.put(_SENTINEL)

    def _hold(self, stage_index: int, item):
        """``(frames, work, error)`` for a taken item; ``work`` is
        ``None`` for a frame that failed upstream (its fate forwards)."""
        fids, x, error = item
        if error is not None:
            return fids, None, error
        self._serving[stage_index] += (fids,)
        return fids, StageWork(x, fids), None

    def _dispatch(self, stage_index: int, held, repair: bool) -> None:
        work = held[1]
        if work is not None:
            dispatch_stage(self.transport, stage_index, work, self.config, repair)

    def _finish(self, stage_index: int, held, last: bool, out_q) -> None:
        fids, work, error = held
        x = None
        if work is not None:
            try:
                x = collect_stage(
                    self.transport, self.program, stage_index, work,
                    self.tracer, self.config,
                )
            except Exception as exc:  # noqa: BLE001 - fate recorded
                error = exc
            self._serving[stage_index] = self._serving[stage_index][1:]
        if last:
            self._deliver(fids, x, error)
        else:
            out_q.put((fids, x, error))

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
            if self._admit is not None:
                self._admit.release()
