"""Length-prefixed framed transport with a restricted, numpy-aware codec.

Mirrors the paper's implementation ("a distributed framework …
using C++ extension and TCP/IP with socket"): each frame is an 8-byte
big-endian length followed by the encoded message.  The payload is no
raw pickle:

* numpy arrays are lifted out of the message and carried as
  header-tagged ``(dtype, shape, raw bytes)`` segments — no pickle
  round-trip for tensor payloads, and the receiver reconstructs them
  as ndarray views straight off the receive buffer;
* the per-inference messages, :class:`~repro.runtime.messages.TileTask`
  and :class:`~repro.runtime.messages.TileResult`, carry their ids in a
  fixed binary body — one precompiled ``struct``, no pickler at all;
* every other message's skeleton is pickled, but decoded through a
  restricted ``Unpickler`` whose ``find_class`` only resolves this
  package's dataclasses plus a small closed set of safe builtins — a
  frame from a hostile peer cannot name arbitrary callables.

Frame layout (after the 8-byte length) — the one layout every channel
speaks::

    u16 n_releases | n_releases × u32 slot
    u32 n_arrays
    n_arrays × [u8 kind | u8 len | dtype descr | u8 ndim |
                u64×ndim shape | u64 nbytes |
                kind=0: raw data — kind=1: u32 slot]
    u8 body
    body=0: pickled skeleton (arrays replaced by persistent ids)
    body=1: TileTask   — i64 task_id | i64 epoch
    body=2: TileResult — i64 task_id | i64 worker_id | f64 compute_s |
                         i64 epoch

A tile body (1 or 2) follows exactly one array, the tile, and fills
the rest of the frame.  The body field sits after the arrays so that
inline data keeps its offset in the frame (4-byte aligned for a
float32 tile).  The encoder picks a tile body when the message is a
``TileTask`` or ``TileResult`` whose ``tile`` is one plain ndarray and
whose ids are Python ints within int64 (``compute_s`` a float); any
other tile message — nested payloads, ids past int64 — takes the
pickled body and round-trips all the same.  The body field is written
by the encoder, never inferred from the bytes that follow it.

Releases and ``kind=1`` slot references belong to channels backed by
shared-memory rings (:mod:`repro.runtime.shm`): a tensor rides a ring
slot instead of the stream, and the reader hands the slot back on its
next frame.  A plain :class:`Channel` is the ring-less case — nothing
to release, every array inline — and rejects a frame that names a
slot.

Oversized frames are rejected from the length header *before* any
payload allocation, and receives fill one preallocated buffer via
``socket.recv_into`` — large feature maps don't pay a per-chunk
``bytes`` join.  On the send side array data travels as ``memoryview``s
of the contiguous buffers straight into ``sendall`` — a multi-megabyte
tensor frame is never duplicated into an intermediate ``bytes``.

Every socket here is blocking: each stage's workers are driven by that
stage's own thread (:mod:`repro.runtime.scheduler`), so a channel never
has more than one reader.
"""

from __future__ import annotations

import functools
import io
import math
import pickle
import socket
import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.runtime.messages import TileResult, TileTask

__all__ = [
    "TransportClosed",
    "MAX_FRAME_BYTES",
    "encode_message",
    "encode_parts",
    "decode_message",
    "send_parts",
    "recv_message",
    "Channel",
]

_HEADER = struct.Struct(">Q")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_INLINE, _SLOT = 0, 1  # array kinds
_PICKLED, _TILE_TASK, _TILE_RESULT = 0, 1, 2  # body kinds
_TASK_BODY = struct.Struct(">qq")  # task_id, epoch
_RESULT_BODY = struct.Struct(">qqdq")  # task_id, worker_id, compute_s, epoch
_TILE_BODIES = {_TILE_TASK: _TASK_BODY, _TILE_RESULT: _RESULT_BODY}
_BODY_KINDS = tuple(bytes([kind]) for kind in (_PICKLED, _TILE_TASK, _TILE_RESULT))
#: The smallest payload: no releases, no arrays and a body field.
_MIN_PAYLOAD = _U16.size + _U32.size + 1

#: An array descriptor, precompiled: its head ``u8 kind | u8 len |
#: descr | u8 ndim`` per descr length, and its tail ``u64×ndim shape |
#: u64 nbytes`` (a slot reference adds ``u32 slot``) per ndim — numpy
#: allows at most 64 dims.
_ARRAY_HEADS = tuple(struct.Struct(">BB%dsB" % n) for n in range(256))
_SHAPES = tuple(struct.Struct(">%dQQ" % n) for n in range(65))
_SLOT_SHAPES = tuple(struct.Struct(">%dQQI" % n) for n in range(65))

#: Distinct dtypes the descriptor writer and parser remember: the
#: writer's descr per dtype, the parser's dtype per descr — filled only
#: with dtypes the wire accepts.
_DTYPE_CACHE_MAX = 64
_DESCRS: "Dict[np.dtype, bytes]" = {}
_DTYPES: "Dict[bytes, np.dtype]" = {}

#: Refuse absurd frames (corrupt header, protocol desync) before any
#: allocation happens.
MAX_FRAME_BYTES = 1 << 31

#: Globals the restricted unpickler resolves outside this package.
#: Data containers only — nothing callable into the OS.
_SAFE_GLOBALS: "Dict[str, Set[str]]" = {
    "builtins": {"bytearray", "bytes", "complex", "frozenset", "range",
                 "set", "slice"},
    "collections": {"OrderedDict", "deque"},
    "numpy": {"dtype", "ndarray"},
    "numpy.core.multiarray": {"_reconstruct", "scalar"},
    "numpy._core.multiarray": {"_reconstruct", "scalar"},
}


class TransportClosed(ConnectionError):
    """The peer closed the connection."""


class _ArrayPickler(pickle.Pickler):
    """Pickles the skeleton; arrays leave via persistent ids."""

    def __init__(self, file: io.BytesIO, arrays: "List[np.ndarray]") -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arrays = arrays

    def persistent_id(self, obj: Any):  # noqa: D102 - pickle hook
        if isinstance(obj, np.ndarray):
            self._arrays.append(obj)
            return len(self._arrays) - 1
        return None


class _RestrictedUnpickler(pickle.Unpickler):
    """Resolves persistent ids to decoded arrays; gates ``find_class``."""

    def __init__(self, file, arrays: "List[np.ndarray]") -> None:
        super().__init__(file)
        self._arrays = arrays

    def persistent_load(self, pid: Any) -> np.ndarray:  # noqa: D102
        if not isinstance(pid, int) or not 0 <= pid < len(self._arrays):
            raise pickle.UnpicklingError(f"bad array reference {pid!r}")
        return self._arrays[pid]

    def find_class(self, module: str, name: str) -> Any:  # noqa: D102
        if module == "repro" or module.startswith("repro."):
            return super().find_class(module, name)
        allowed = _SAFE_GLOBALS.get(module)
        if allowed is not None and name in allowed:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"frame references forbidden global {module}.{name}"
        )


@functools.lru_cache(maxsize=64)
def _slots(n: int) -> struct.Struct:
    """The precompiled ``n × u32`` of a release list."""
    return struct.Struct(">%dI" % n)


def _tile_body(message: Any) -> "Optional[Tuple[int, bytes]]":
    """``(body kind, body)`` of a tile message the fixed body carries
    exactly, or ``None`` for the pickled body."""
    cls = type(message)
    if cls is TileTask:
        ids = (message.task_id, message.epoch)
        exact = type(ids[0]) is int and type(ids[1]) is int
        kind, body = _TILE_TASK, _TASK_BODY
    elif cls is TileResult:
        ids = (message.task_id, message.worker_id, message.compute_s, message.epoch)
        exact = (
            type(ids[0]) is int and type(ids[1]) is int
            and type(ids[2]) is float and type(ids[3]) is int
        )
        kind, body = _TILE_RESULT, _RESULT_BODY
    else:
        return None
    if not exact or type(message.tile) is not np.ndarray:
        return None
    try:
        return kind, body.pack(*ids)
    except struct.error:  # an id outside int64
        return None


def _descr(dtype: np.dtype) -> bytes:
    """The wire descr of ``dtype``; refuses dtypes the wire cannot carry."""
    descr = _DESCRS.get(dtype)
    if descr is None:
        if dtype.hasobject or dtype.names is not None:
            raise TypeError(
                f"cannot encode array of dtype {dtype} (object/"
                "structured dtypes are not wire-safe)"
            )
        descr = dtype.str.encode("ascii")
        if len(_DESCRS) < _DTYPE_CACHE_MAX:
            _DESCRS[dtype] = descr
    return descr


def _dtype(descr: bytes) -> np.dtype:
    """The dtype a descriptor names; ``TypeError`` when numpy refuses it
    or it holds object pointers (which no byte buffer may forge)."""
    dtype = _DTYPES.get(descr)
    if dtype is None:
        dtype = np.dtype(descr.decode("ascii"))
        if dtype.hasobject:
            raise TypeError(f"object dtype {descr!r} is not wire-safe")
        if len(_DTYPES) < _DTYPE_CACHE_MAX:
            _DTYPES[descr] = dtype
    return dtype


def encode_parts(
    message: Any,
    releases: "Sequence[int]" = (),
    place: "Optional[Callable[[np.ndarray], Optional[int]]]" = None,
) -> "Tuple[List[Any], int]":
    """Serialise one message into frame-payload parts plus total bytes.

    ``releases`` and ``place`` are a ring-backed channel's share of the
    frame: the slots it hands back to the peer, and its choice, per
    contiguous array, of the ring slot that now holds the data (or
    ``None`` for inline).  Without them this is the ring-less frame.

    Inline array data contributes flat ``memoryview``s of the
    contiguous buffers — nothing tensor-sized is copied here;
    :func:`send_parts` hands the views to ``sendall`` directly.  The
    views keep their source arrays alive for as long as the parts list
    is.
    """
    tile = _tile_body(message)
    if tile is None:
        arrays: "List[np.ndarray]" = []
        skeleton = io.BytesIO()
        _ArrayPickler(skeleton, arrays).dump(message)
        kind, body = _PICKLED, skeleton.getvalue()
    else:
        (kind, body), arrays = tile, [message.tile]
    parts: "List[Any]" = [
        _U16.pack(len(releases))
        + (_slots(len(releases)).pack(*releases) if releases else b"")
        + _U32.pack(len(arrays))
    ]
    for arr in arrays:
        descr = _descr(arr.dtype)
        # ascontiguousarray promotes 0-d to 1-d; keep the true shape.
        contiguous = np.ascontiguousarray(arr)
        slot = place(contiguous) if place is not None else None
        ndim, nbytes = arr.ndim, contiguous.nbytes
        if slot is None:
            parts.append(
                _ARRAY_HEADS[len(descr)].pack(_INLINE, len(descr), descr, ndim)
                + _SHAPES[ndim].pack(*arr.shape, nbytes)
            )
            if nbytes:
                parts.append(memoryview(contiguous).cast("B"))
        else:
            parts.append(
                _ARRAY_HEADS[len(descr)].pack(_SLOT, len(descr), descr, ndim)
                + _SLOT_SHAPES[ndim].pack(*arr.shape, nbytes, slot)
            )
    parts.append(_BODY_KINDS[kind] + body)
    return parts, sum(map(len, parts))


def encode_message(message: Any) -> bytes:
    """Serialise one message into a frame payload (no length prefix)."""
    parts, _total = encode_parts(message)
    return b"".join(parts)


def decode_message(
    payload: memoryview,
    release: "Optional[Callable[[int], None]]" = None,
    slot_view: "Optional[Callable[..., np.ndarray]]" = None,
) -> Any:
    """Decode one frame payload produced by :func:`encode_parts`.

    ``release(slot)`` and ``slot_view(slot, dtype, shape, nbytes)`` are
    a ring-backed channel's share; without them a frame that carries a
    release or a slot reference is malformed.  The whole frame — tile
    body included — is parsed and bounds-checked before either is
    called, so a malformed frame touches no ring; inline arrays are
    views of ``payload``.
    """
    arrays: "List[Optional[np.ndarray]]" = []
    slot_refs = []  # (index into arrays, slot, dtype, shape, nbytes)
    end = len(payload)
    try:
        (n_releases,) = _U16.unpack_from(payload, 0)
        offset = _U16.size
        releases: "Tuple[int, ...]" = ()
        if n_releases:
            listed = _slots(n_releases)
            releases = listed.unpack_from(payload, offset)
            offset += listed.size
        (n_arrays,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        for _ in range(n_arrays):
            head = _ARRAY_HEADS[payload[offset + 1]]
            array_kind, _len, descr, ndim = head.unpack_from(payload, offset)
            offset += head.size
            dtype = _dtype(descr)
            if array_kind == _INLINE:
                tail = _SHAPES[ndim]
                fields = tail.unpack_from(payload, offset)
                shape, nbytes = fields[:-1], fields[-1]
            elif array_kind == _SLOT:
                tail = _SLOT_SHAPES[ndim]
                fields = tail.unpack_from(payload, offset)
                shape, nbytes, slot = fields[:-2], fields[-2], fields[-1]
            else:
                raise ValueError(f"unknown array kind {array_kind}")
            offset += tail.size
            if nbytes != dtype.itemsize * math.prod(shape):
                raise ValueError("array descriptor disagrees with its size")
            if array_kind == _SLOT:
                slot_refs.append((len(arrays), slot, dtype, shape, nbytes))
                arrays.append(None)
            else:
                if offset + nbytes > end:
                    raise ValueError("array segment overruns the frame")
                arrays.append(
                    np.ndarray(shape, dtype, buffer=payload, offset=offset)
                )
                offset += nbytes
        kind = payload[offset]
        offset += 1
    except (struct.error, IndexError) as exc:
        raise ValueError("truncated frame: bad header") from exc
    except TypeError as exc:
        raise ValueError(f"bad array dtype: {exc}") from exc
    if kind != _PICKLED:
        fixed = _TILE_BODIES.get(kind)
        if fixed is None:
            raise ValueError(f"unknown body kind {kind}")
        if n_arrays != 1:
            raise ValueError(f"tile body with {n_arrays} arrays")
        if end - offset != fixed.size:
            raise ValueError(
                f"malformed tile body: {end - offset} bytes where "
                f"{fixed.size} are due"
            )
        ids = fixed.unpack_from(payload, offset)
    if (releases and release is None) or (slot_refs and slot_view is None):
        raise ValueError("frame names ring slots on a ring-less channel")
    for slot in releases:
        release(slot)
    for index, slot, dtype, shape, nbytes in slot_refs:
        arrays[index] = slot_view(slot, dtype, shape, nbytes)
    if kind == _TILE_TASK:
        return TileTask(ids[0], arrays[0], ids[1])
    if kind == _TILE_RESULT:
        return TileResult(ids[0], ids[1], arrays[0], ids[2], ids[3])
    return _RestrictedUnpickler(
        io.BytesIO(bytes(payload[offset:])), arrays
    ).load()


#: Parts below this coalesce into one buffer per ``sendall``; parts at
#: or above it (tensor data) go to the socket as-is, uncopied.
_COALESCE_BYTES = 1 << 20


def send_parts(sock: socket.socket, parts: "List[Any]", total: int) -> None:
    """Send one framed message from its encoded parts.

    Small frames ship as a single coalesced ``sendall``; large frames
    send the header first and then stream the parts, passing any
    tensor-sized ``memoryview`` straight to ``sendall`` — the
    no-recopy path now covers the whole encode+send pipeline.
    """
    if total > MAX_FRAME_BYTES:
        raise ValueError(
            f"message of {total} bytes exceeds MAX_FRAME_BYTES"
        )
    header = _HEADER.pack(total)
    if total < _COALESCE_BYTES:
        sock.sendall(header + b"".join(parts))
        return
    sock.sendall(header)
    small: "List[Any]" = []
    for part in parts:
        if isinstance(part, memoryview) and len(part) >= _COALESCE_BYTES:
            if small:
                sock.sendall(b"".join(small))
                small = []
            sock.sendall(part)
        else:
            small.append(part)
    if small:
        sock.sendall(b"".join(small))


def _recv_exact_into(sock: socket.socket, buf: memoryview) -> None:
    """Fill ``buf`` from the socket (no per-chunk ``bytes`` join)."""
    view = buf
    while view.nbytes > 0:
        received = sock.recv_into(view)
        if received == 0:
            raise TransportClosed("peer closed the connection")
        view = view[received:]


def recv_message(sock: socket.socket, decode=decode_message) -> Any:
    """Receive one framed message (blocking); ``decode`` turns the
    payload into the message (channels swap in their payload plane)."""
    header = bytearray(_HEADER.size)
    _recv_exact_into(sock, memoryview(header))
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds limit")
    if length < _MIN_PAYLOAD:
        raise ValueError(f"truncated frame: {length} byte payload")
    payload = bytearray(length)
    _recv_exact_into(sock, memoryview(payload))
    return decode(memoryview(payload))


class Channel:
    """A connected socket with message framing and idempotent close.

    Blocking, optionally bounded by :meth:`settimeout`.  This is the
    ring-less channel; the shared-memory channel overrides
    :meth:`_encode_parts` / :meth:`_decode` to pass the one codec its
    ring callbacks.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._closed = False

    def settimeout(self, seconds: "float | None") -> None:
        """Bound blocking sends/recvs (``None`` = block forever).

        A timeout mid-frame desyncs the length-prefixed codec, so a
        timed-out :meth:`recv` reports :class:`TransportClosed` — the
        peer must be declared dead, not retried on the same socket.
        """
        self._sock.settimeout(seconds)

    # -- codec hooks (the shared-memory channel adds its rings) --------
    def _encode_parts(self, message: Any) -> "Tuple[List[Any], int]":
        return encode_parts(message)

    def _decode(self, payload: memoryview) -> Any:
        return decode_message(payload)

    def send(self, message: Any) -> None:
        if self._closed:
            raise TransportClosed("channel is closed")
        parts, total = self._encode_parts(message)
        send_parts(self._sock, parts, total)

    def recv(self) -> Any:
        if self._closed:
            raise TransportClosed("channel is closed")
        try:
            return recv_message(self._sock, self._decode)
        except socket.timeout:
            raise TransportClosed("recv timed out") from None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
