"""Worker process: executes tile programs on demand.

A worker owns one device role in one stage.  It connects back to the
coordinator, receives its :class:`Setup` (model spec + segment program
+ weights), then loops: receive a tile, run the compiled program with
the numpy engine, return the output tile with its compute time.
"""

from __future__ import annotations

import socket
import time
from typing import Optional

from repro.nn.executor import Engine
from repro.nn.tiles import run_segment
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
from repro.runtime.shm import ShmChannel, ShmRing
from repro.runtime.transport import TransportClosed

__all__ = ["worker_main"]


def worker_main(
    host: str,
    port: int,
    worker_id: int,
    fail_after: Optional[int] = None,
    idle_timeout_s: Optional[float] = None,
) -> None:
    """Entry point for a worker process.

    ``fail_after`` makes the worker crash after N tasks — used by the
    failure-injection tests to exercise coordinator recovery.
    ``idle_timeout_s`` bounds how long the worker waits for the next
    message; hitting it exits cleanly (an orphaned worker whose
    coordinator died stops consuming the host instead of blocking on
    ``recv`` forever).
    """
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = ShmChannel(sock)  # ring-less unless the coordinator attaches
    if idle_timeout_s is not None:
        channel.settimeout(idle_timeout_s)
    try:
        channel.send(Hello(worker_id))
        setup = channel.recv()
        if isinstance(setup, ShmAttach):
            # Zero-copy mode: attach to the coordinator's rings (never
            # unlink them — they outlive this process); tile tensors
            # now ride slots, the socket keeps carrying control frames.
            channel.attach(
                ShmRing.attach(setup.send_name),
                ShmRing.attach(setup.recv_name),
            )
            setup = channel.recv()
        if not isinstance(setup, Setup):
            raise RuntimeError(f"expected Setup, got {type(setup).__name__}")
        engine = Engine(setup.model, setup.weights)
        program = setup.program
        processed = 0
        while True:
            message = channel.recv()
            if isinstance(message, Shutdown):
                return
            if isinstance(message, Reconfigure):
                program = message.program
                continue
            if not isinstance(message, TileTask):
                raise RuntimeError(f"unexpected message {type(message).__name__}")
            if fail_after is not None and processed >= fail_after:
                # Simulated crash: drop the connection mid-task.
                return
            started = time.perf_counter()
            try:
                out = run_segment(engine, program, message.tile)
            except Exception as exc:  # report, keep serving
                channel.send(
                    WorkerError(message.task_id, worker_id, str(exc), message.epoch)
                )
                continue
            processed += 1
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
