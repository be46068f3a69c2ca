"""Zero-copy shared-memory payload plane for same-host workers.

The framed TCP transport pays three copies per tensor hop on one box:
encode → kernel send buffer → receive buffer.  This module moves the
tensor *payload plane* into a ``multiprocessing.shared_memory`` ring of
preallocated slots while the *control plane* (message bodies, slot
descriptors, releases) stays on the existing framed socket:

* the sender copies a contiguous tensor once into a free ring slot
  (or not at all when the tensor is already a slot view);
* the control frame — the one frame layout of
  :mod:`repro.runtime.transport` — carries ``(slot, dtype, shape)``
  instead of bytes;
* the receiver maps the slot with ``np.ndarray(buffer=shm.buf)`` — a
  view, zero copy, zero deserialisation.

Segment layout (one ring)::

    offset 0    magic | slot_bytes | n_slots          (64-byte header)
    offset 64   slot 0  [slot_bytes, 64-byte aligned]
    ...         slot k  at 64 + k * slot_bytes

Each channel owns **two** rings — coordinator→worker and
worker→coordinator — both created (and eventually unlinked) by the
coordinator; the worker only attaches.  Slot lifetime follows the
stage protocol: the reader of a slot announces it free in the header
of its *next send* on the same channel (a release list piggybacked on
the control frame), which costs zero extra round trips because stage
traffic strictly alternates send → recv per channel.  A full ring
blocks the sender in :meth:`ShmRing.acquire` — that wait *is* the
transport's backpressure, surfaced via ring occupancy.

Crash safety: creator rings register in a module registry unlinked by
an ``atexit`` hook, so a coordinator killed by ``KeyboardInterrupt``
leaves no ``/dev/shm`` segments behind; attachers deregister from the
``resource_tracker`` so a worker's exit never unlinks segments the
coordinator still serves from.  Tensors that don't fit a slot (or are
too small to be worth one) ship inline in the same frame — correctness
never depends on slot geometry.
"""

from __future__ import annotations

import atexit
import itertools
import os
import struct
import threading
from collections import deque
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.messages import TileResult, TileTask
from repro.runtime.transport import Channel, decode_message, encode_parts

__all__ = [
    "SHM_PREFIX",
    "SlotExhausted",
    "ShmRing",
    "ShmChannel",
    "cleanup_rings",
]

#: Every segment this module creates is named ``repro_shm_<pid>_<seq>``
#: so leak guards (and humans) can find strays in ``/dev/shm``.
SHM_PREFIX = "repro_shm_"

_MAGIC = 0x52505253  # "RPRS"
_RING_HEADER = struct.Struct(">IQI")  # magic, slot_bytes, n_slots
_HEADER_BYTES = 64
_SLOT_ALIGN = 64

#: Arrays smaller than this ship inline — a slot round-trip costs more
#: than the copy it saves.
MIN_SLOT_PAYLOAD = 1 << 10

#: Only tile traffic rides slots.  Everything else — handshakes,
#: programs, errors — ships inline.
SLOT_TYPES = (TileTask, TileResult)

#: How long a send waits for a free slot before :class:`SlotExhausted`.
ACQUIRE_TIMEOUT_S = 60.0

_seq = itertools.count()
_registry_lock = threading.Lock()
_created: "dict" = {}  # name -> ShmRing (creator side only)


def _unregister_tracker(name: str) -> None:
    """Detach a segment from this process's resource tracker.

    An attaching ``SharedMemory`` auto-registers with the tracker,
    which would unlink the segment when *this* process exits — wrong
    for workers attaching to coordinator-owned rings.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def cleanup_rings() -> None:
    """Destroy every still-registered creator ring (atexit / interrupt)."""
    with _registry_lock:
        rings = list(_created.values())
    for ring in rings:
        ring.destroy()


atexit.register(cleanup_rings)


class SlotExhausted(RuntimeError):
    """No ring slot freed up within the acquire timeout."""


class ShmRing:
    """A shared-memory segment of fixed-size tensor slots.

    The *writer* side owns the free list (plain local state — slots
    are never contended across processes because each ring has exactly
    one writer); the reader returns slots via the channel's release
    piggyback, which the writer applies with :meth:`release`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slot_bytes: int,
        n_slots: int,
        creator: bool,
    ) -> None:
        self._shm = shm
        self.slot_bytes = slot_bytes
        self.n_slots = n_slots
        self._creator = creator
        self._free: "deque" = deque(range(n_slots))
        self._cond = threading.Condition()
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(cls, slot_bytes: int, n_slots: int) -> "ShmRing":
        """Create (and own) a new ring segment."""
        if slot_bytes <= 0 or n_slots <= 0:
            raise ValueError("ring needs positive slot_bytes and n_slots")
        slot_bytes = -(-slot_bytes // _SLOT_ALIGN) * _SLOT_ALIGN
        name = f"{SHM_PREFIX}{os.getpid()}_{next(_seq)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=_HEADER_BYTES + slot_bytes * n_slots
        )
        _RING_HEADER.pack_into(shm.buf, 0, _MAGIC, slot_bytes, n_slots)
        ring = cls(shm, slot_bytes, n_slots, creator=True)
        with _registry_lock:
            _created[name] = ring
        return ring

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Attach to an existing ring; geometry comes from its header."""
        shm = shared_memory.SharedMemory(name=name)
        _unregister_tracker(name)
        magic, slot_bytes, n_slots = _RING_HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise ValueError(f"segment {name!r} is not a repro shm ring")
        return cls(shm, slot_bytes, n_slots, creator=False)

    def close(self) -> None:
        """Detach from the segment (never unlinks)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Live numpy views still export the buffer; the mapping is
            # released with the process instead — unlink still works.
            pass

    def unlink(self) -> None:
        """Remove the segment from /dev/shm (creator side, idempotent)."""
        if not self._creator:
            return
        with _registry_lock:
            _created.pop(self.name, None)
        try:
            # Re-register first: a forked worker shares this process's
            # resource tracker, and its attach-side unregister already
            # removed our entry — unlink()'s own unregister would then
            # make the tracker print a KeyError.  Registering is a set
            # add, so this balances the books either way.
            from multiprocessing import resource_tracker

            resource_tracker.register(f"/{self.name}", "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def destroy(self) -> None:
        self.close()
        self.unlink()

    # -- slot bookkeeping (writer side) --------------------------------
    def acquire(self, timeout: "Optional[float]" = None) -> int:
        """Claim a free slot, blocking up to ``timeout`` — this wait is
        the ring's backpressure.  Raises :class:`SlotExhausted` when
        nothing frees up in time."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._free, timeout=timeout):
                raise SlotExhausted(
                    f"ring {self.name}: no free slot within {timeout}s"
                )
            return self._free.popleft()

    def release(self, slot: int) -> None:
        """Return a slot to the free list (the reader announced it)."""
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.n_slots})")
        with self._cond:
            if slot in self._free:
                raise ValueError(f"slot {slot} released twice")
            self._free.append(slot)
            self._cond.notify()

    def occupancy(self) -> float:
        """In-use fraction of the ring, in [0, 1]."""
        with self._cond:
            return 1.0 - len(self._free) / self.n_slots

    # -- slot data -----------------------------------------------------
    def _offset(self, slot: int) -> int:
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.n_slots})")
        return _HEADER_BYTES + slot * self.slot_bytes

    def write(self, slot: int, contiguous: np.ndarray) -> None:
        """Copy a contiguous array into a slot (the send-side memcpy)."""
        nbytes = contiguous.nbytes
        if nbytes > self.slot_bytes:
            raise ValueError(
                f"{nbytes} byte tensor exceeds {self.slot_bytes} byte slot"
            )
        off = self._offset(slot)
        # np.copyto over a flat byte view — measurably faster than a
        # memoryview slice assignment for multi-megabyte tensors.
        dst = np.frombuffer(self._shm.buf, dtype=np.uint8, count=nbytes, offset=off)
        np.copyto(dst, contiguous.reshape(-1).view(np.uint8))

    def slot_view(self, slot: int, shape, dtype) -> np.ndarray:
        """Map an *owned* slot as a writable ndarray (in-place produce)."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if nbytes > self.slot_bytes:
            raise ValueError(
                f"{nbytes} byte tensor exceeds {self.slot_bytes} byte slot"
            )
        return np.frombuffer(
            self._shm.buf,
            dtype=dtype,
            count=nbytes // dtype.itemsize,
            offset=self._offset(slot),
        ).reshape(shape)

    def view(self, slot: int, dtype, shape, nbytes: int) -> np.ndarray:
        """Map a slot as an ndarray — the zero-copy read (``dtype`` is a
        dtype or its descr)."""
        dtype = np.dtype(dtype)
        if nbytes > self.slot_bytes:
            raise ValueError("slot descriptor overruns the slot")
        return np.frombuffer(
            self._shm.buf,
            dtype=dtype,
            count=nbytes // dtype.itemsize,
            offset=self._offset(slot),
        ).reshape(shape)


class ShmChannel(Channel):
    """A framed channel whose tensor payloads ride shared-memory slots.

    The socket carries the same frame every :class:`Channel` speaks;
    this class adds only the ring side of it — which arrays go to a
    slot on encode, the slot views and release bookkeeping on decode.
    Until :meth:`attach` hands it rings (a worker learns their names
    from ``ShmAttach``, over this very channel) it is ring-less.

    Only :data:`SLOT_TYPES` messages use slots, and within them only
    tensors of at least :data:`MIN_SLOT_PAYLOAD` bytes that fit one.
    Received slot views are valid until this side's next :meth:`send`
    on the channel (which is when their release is announced) —
    exactly the window the stage protocol needs, since a stage stitches
    (copying) before the next frame is sent.
    """

    def __init__(
        self,
        sock,
        send_ring: "Optional[ShmRing]" = None,
        recv_ring: "Optional[ShmRing]" = None,
    ) -> None:
        super().__init__(sock)
        self._to_release: "List[int]" = []
        self._loans: "Dict[int, int]" = {}  # data pointer -> owned slot
        self.attach(send_ring, recv_ring)

    def attach(
        self, send_ring: "Optional[ShmRing]", recv_ring: "Optional[ShmRing]"
    ) -> None:
        """Back the channel with its ring pair."""
        self.send_ring = send_ring
        self.recv_ring = recv_ring

    def loan_slot(self, shape, dtype=np.float32) -> np.ndarray:
        """Borrow a send-ring slot as a writable ndarray (zero-copy send).

        The producer fills the returned view in place and passes it to
        :meth:`send` inside a slot-eligible message; the encoder
        recognises the loaned array by its data pointer and skips the
        slot memcpy entirely — the tensor was *produced* in shared
        memory, so the send carries only the header-sized control
        frame.  Each loan must be sent exactly once; a loan that is
        never sent holds its slot until the channel closes.
        """
        slot = self.send_ring.acquire(ACQUIRE_TIMEOUT_S)
        view = self.send_ring.slot_view(slot, shape, dtype)
        self._loans[view.__array_interface__["data"][0]] = slot
        return view

    # -- the ring side of the codec -------------------------------------
    def _place(self, contiguous: np.ndarray) -> "Optional[int]":
        """The slot now holding ``contiguous``, or ``None`` for inline."""
        if not MIN_SLOT_PAYLOAD <= contiguous.nbytes <= self.send_ring.slot_bytes:
            return None
        ptr = contiguous.__array_interface__["data"][0]
        slot = self._loans.pop(ptr, None)
        if slot is None:  # not produced in place via loan_slot()
            slot = self.send_ring.acquire(ACQUIRE_TIMEOUT_S)
            self.send_ring.write(slot, contiguous)
        return slot

    def _slot_view(self, slot: int, dtype, shape, nbytes: int) -> np.ndarray:
        arr = self.recv_ring.view(slot, dtype, shape, nbytes)
        self._to_release.append(slot)
        return arr

    def _encode_parts(self, message: Any) -> "Tuple[List[Any], int]":
        releases, self._to_release = self._to_release, []
        use_slots = self.send_ring is not None and isinstance(message, SLOT_TYPES)
        return encode_parts(message, releases, self._place if use_slots else None)

    def _decode(self, payload: memoryview) -> Any:
        if self.send_ring is None:
            return decode_message(payload)
        return decode_message(payload, self.send_ring.release, self._slot_view)

    def occupancy(self) -> float:
        """The send ring's in-use fraction (the backpressure signal)."""
        return self.send_ring.occupancy() if self.send_ring is not None else 0.0

    def close(self) -> None:
        super().close()
        # Detach only — unlinking is the creator transport's job.
        if self.send_ring is not None:
            self.send_ring.close()
            self.recv_ring.close()
