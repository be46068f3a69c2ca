"""Wire messages for the distributed runtime.

A worker gets its role — model, compiled tile program, weights (the
model copy of paper Fig. 6) and compute width — through the fork that
starts it, so the wire carries no weights: after the :class:`Hello`
handshake (and :class:`ShmAttach` on the shared-memory transport) the
coordinator streams :class:`TileTask` frames per inference.  Everything
is a plain dataclass: the wire codec (:mod:`repro.runtime.transport`)
carries a :class:`TileTask` or :class:`TileResult` in a fixed binary
body and pickles the rest through its restricted unpickler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.tiles import SegmentProgram

__all__ = [
    "Hello",
    "ShmAttach",
    "Reconfigure",
    "TileTask",
    "TileResult",
    "WorkerError",
    "Shutdown",
]


@dataclass(frozen=True)
class Hello:
    """Worker → coordinator handshake."""

    worker_id: int


@dataclass(frozen=True)
class ShmAttach:
    """Coordinator → worker: switch tile payloads to shared memory.

    Sent right after the handshake, before any tile, by the shm
    transport.  ``send_name`` is the ring this worker writes its
    results into, ``recv_name`` the ring it reads tiles from; both were
    created (and will be unlinked) by the coordinator.  Geometry is
    carried for validation — the rings' headers are authoritative.
    """

    send_name: str
    recv_name: str
    slot_bytes: int
    n_slots: int


@dataclass(frozen=True)
class Reconfigure:
    """Coordinator → worker: replace the tile program (e.g. after a
    peer failure redistributes the stage partition)."""

    program: SegmentProgram


@dataclass(frozen=True)
class TileTask:
    """Coordinator → worker: one input tile to process.

    ``epoch`` identifies the stage partition generation; it increments
    when a failure redistributes the stage, letting the coordinator
    discard results computed under a stale partition."""

    task_id: int
    tile: np.ndarray
    epoch: int = 0


@dataclass(frozen=True)
class TileResult:
    """Worker → coordinator: the computed output tile."""

    task_id: int
    worker_id: int
    tile: np.ndarray
    compute_s: float
    epoch: int = 0


@dataclass(frozen=True)
class WorkerError:
    """Worker → coordinator: the worker failed processing a task."""

    task_id: Optional[int]
    worker_id: int
    message: str
    epoch: int = 0


@dataclass(frozen=True)
class Shutdown:
    """Coordinator → worker: clean exit."""
