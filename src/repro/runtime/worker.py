"""Worker process: executes tile programs on demand.

A worker owns one device role in one stage.  It is forked with that
role — the model spec, its compiled segment program, the weights and
its compute width — as process arguments, so the weights it computes
with are the coordinator's own pages, never shipped or decoded: a
shared mapping, faulted in on first use, so the worker is resident
only in the layers its program reads.  It sizes its
:mod:`repro.nn.parallel` pool to that width, connects back to the
coordinator, then loops: receive a tile, run the program with the numpy
engine, return the output tile with its compute time.
"""

from __future__ import annotations

import socket
import time
from typing import Optional

from repro.models.graph import Model
from repro.nn import parallel
from repro.nn.executor import Engine
from repro.nn.tiles import SegmentProgram, run_segment
from repro.nn.weights import Weights
from repro.runtime.faults import FaultSchedule
from repro.runtime.messages import (
    Hello,
    Reconfigure,
    ShmAttach,
    Shutdown,
    TileResult,
    TileTask,
    WorkerError,
)
from repro.runtime.shm import ShmChannel, ShmRing
from repro.runtime.transport import TransportClosed

__all__ = ["worker_main"]


def worker_main(
    host: str,
    port: int,
    worker_id: int,
    model: Model,
    program: SegmentProgram,
    weights: Weights,
    threads: int,
    device: str = "",
    faults: "Optional[FaultSchedule]" = None,
) -> None:
    """Entry point for a worker process serving one role of ``device``.

    ``program`` is the segment it runs until a ``Reconfigure`` replaces
    it; ``weights`` holds every layer a later program may touch (the
    engine packs and folds only the ones it runs) and ``threads`` is
    the worker's share of the deployment's threads.

    ``faults`` is acted out for ``device``: the worker exits — its
    socket closes, as a crashed device's would — on the first tile of a
    frame at or after the device's crash frame, and sleeps a scheduled
    compute delay after running a tile, as the in-process backend does.
    A coordinator that dies is EOF on the worker's next receive.
    """
    # The one width decision of a worker, made by the transport that
    # launched it: one thread means no pool, no per-thread scratch
    # and every batch run whole on this thread.
    parallel.set_threads(threads)
    engine = Engine(model, weights)
    injector = faults.start() if faults is not None else None
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = ShmChannel(sock)  # ring-less unless the coordinator attaches
    try:
        channel.send(Hello(worker_id))
        while True:
            message = channel.recv()
            if isinstance(message, Shutdown):
                return
            if isinstance(message, ShmAttach):
                # Zero-copy mode: attach to the coordinator's rings (never
                # unlink them — they outlive this process); tile tensors
                # now ride slots, the socket keeps carrying control frames.
                channel.attach(
                    ShmRing.attach(message.send_name),
                    ShmRing.attach(message.recv_name),
                )
                continue
            if isinstance(message, Reconfigure):
                program = message.program
                continue
            if not isinstance(message, TileTask):
                raise RuntimeError(f"unexpected message {type(message).__name__}")
            frame = message.task_id
            if injector is not None and injector.crashed(device, frame):
                return  # scheduled crash: drop the connection mid-task
            started = time.perf_counter()
            try:
                out = run_segment(engine, program, message.tile)
            except Exception as exc:  # report, keep serving
                channel.send(
                    WorkerError(message.task_id, worker_id, str(exc), message.epoch)
                )
                continue
            if injector is not None:
                time.sleep(injector.compute_delay(device, frame))
            channel.send(
                TileResult(
                    message.task_id,
                    worker_id,
                    out,
                    time.perf_counter() - started,
                    message.epoch,
                )
            )
    except TransportClosed:
        return
    finally:
        channel.close()  # detaches any rings; never unlinks
