"""Shared-memory transport tests: ring mechanics, channel codec, pipeline.

Covers the slot ring's wraparound and backpressure behaviour, the
``ShmChannel`` control/payload plane split (slot vs inline vs loaned
arrays, release piggyback), resource hygiene (unlink on close and on
interrupt-style sweeps), and end-to-end bit-exactness of
``ShmTransport`` against the in-process reference.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime import transport as wire
from repro.runtime.coordinator import ShmTransport
from repro.runtime.core import InProcTransport, PipelineSession
from repro.runtime.messages import Hello, ShmAttach, TileResult, TileTask
from repro.runtime.program import compile_plan
from repro.runtime.shm import (
    MIN_SLOT_PAYLOAD,
    SHM_PREFIX,
    ShmChannel,
    ShmRing,
    SlotExhausted,
    cleanup_rings,
)
from repro.runtime.transport import Channel, decode_message, encode_message
from repro.schemes.pico import PicoScheme
from tests.conftest import serve_on_workers

NET = NetworkModel.from_mbps(50.0)


@pytest.fixture
def ring():
    r = ShmRing.create(slot_bytes=1 << 16, n_slots=3)
    yield r
    r.destroy()


class TestShmRing:
    def test_geometry_and_attach(self, ring):
        assert ring.n_slots == 3
        assert ring.slot_bytes >= 1 << 16
        other = ShmRing.attach(ring.name)
        try:
            assert (other.slot_bytes, other.n_slots) == (
                ring.slot_bytes,
                ring.n_slots,
            )
        finally:
            other.close()

    def test_wraparound_keeps_data_intact(self, ring, rng):
        """Cycling through the ring many times never corrupts a tensor."""
        for i in range(ring.n_slots * 4):
            arr = rng.standard_normal((64, 32)).astype(np.float32) + i
            slot = ring.acquire(timeout=1.0)
            ring.write(slot, arr)
            out = ring.view(slot, arr.dtype.str, arr.shape, arr.nbytes)
            np.testing.assert_array_equal(out, arr)
            ring.release(slot)

    def test_exhaustion_raises(self, ring):
        slots = [ring.acquire(timeout=1.0) for _ in range(ring.n_slots)]
        with pytest.raises(SlotExhausted):
            ring.acquire(timeout=0.05)
        for slot in slots:
            ring.release(slot)

    def test_acquire_blocks_until_release(self, ring):
        """A full ring is backpressure: acquire waits for the release."""
        slots = [ring.acquire(timeout=1.0) for _ in range(ring.n_slots)]
        timer = threading.Timer(0.05, ring.release, args=(slots.pop(),))
        timer.start()
        got = ring.acquire(timeout=5.0)  # must not raise
        timer.join()
        for slot in slots + [got]:
            ring.release(slot)

    def test_double_release_rejected(self, ring):
        slot = ring.acquire(timeout=1.0)
        ring.release(slot)
        with pytest.raises(ValueError):
            ring.release(slot)

    def test_oversized_write_rejected(self, ring):
        big = np.zeros(ring.slot_bytes + 1, dtype=np.uint8)
        slot = ring.acquire(timeout=1.0)
        with pytest.raises(ValueError):
            ring.write(slot, big)
        ring.release(slot)

    def test_destroy_unlinks_segment(self):
        ring = ShmRing.create(slot_bytes=4096, n_slots=2)
        path = f"/dev/shm/{ring.name}"
        assert os.path.exists(path)
        ring.destroy()
        assert not os.path.exists(path)
        ring.destroy()  # idempotent

    def test_cleanup_rings_sweeps_creators(self):
        """The atexit / interrupt sweep unlinks every live creator ring."""
        rings = [ShmRing.create(slot_bytes=4096, n_slots=2) for _ in range(2)]
        paths = [f"/dev/shm/{r.name}" for r in rings]
        assert all(os.path.exists(p) for p in paths)
        cleanup_rings()
        assert not any(os.path.exists(p) for p in paths)


def _channel_pair(slot_bytes=1 << 20, n_slots=3):
    """Two ShmChannels over a socketpair sharing a crossed ring pair."""
    sa, sb = socket.socketpair()
    a_to_b = ShmRing.create(slot_bytes, n_slots)
    b_to_a = ShmRing.create(slot_bytes, n_slots)
    cha = ShmChannel(sa, send_ring=a_to_b, recv_ring=b_to_a)
    chb = ShmChannel(sb, send_ring=b_to_a, recv_ring=a_to_b)

    def teardown():
        cha.close()
        chb.close()
        a_to_b.destroy()
        b_to_a.destroy()

    return cha, chb, teardown


def _recv_threaded(channel):
    """Recv on a thread so large inline sends can't deadlock the pair."""
    box = {}

    def read():
        box["msg"] = channel.recv()

    t = threading.Thread(target=read)
    t.start()
    return t, box


class TestShmChannel:
    def test_slot_roundtrip_and_release_piggyback(self, rng):
        cha, chb, teardown = _channel_pair()
        try:
            arr = rng.standard_normal((128, 128)).astype(np.float32)
            cha.send(TileTask(7, arr))
            assert cha.occupancy() > 0  # payload rides a slot
            msg = chb.recv()
            np.testing.assert_array_equal(msg.tile, arr)
            del msg  # drop the slot view so teardown can unmap
            # The consumed slot is announced on B's next send and the
            # release applies when A decodes that frame.
            chb.send(Hello(0))
            cha.recv()
            assert cha.occupancy() == 0
        finally:
            teardown()

    def test_small_array_ships_inline(self, rng):
        cha, chb, teardown = _channel_pair()
        try:
            arr = np.arange(4, dtype=np.float32)  # < MIN_SLOT_PAYLOAD
            assert arr.nbytes < MIN_SLOT_PAYLOAD
            cha.send(TileTask(1, arr))
            assert cha.occupancy() == 0
            np.testing.assert_array_equal(chb.recv().tile, arr)
        finally:
            teardown()

    def test_oversized_array_falls_back_inline(self, rng):
        cha, chb, teardown = _channel_pair(slot_bytes=1 << 12)
        try:
            arr = rng.standard_normal((64, 64)).astype(np.float32)
            assert arr.nbytes > cha.send_ring.slot_bytes
            t, box = _recv_threaded(chb)
            cha.send(TileTask(2, arr))
            t.join(timeout=10.0)
            assert cha.occupancy() == 0
            np.testing.assert_array_equal(box["msg"].tile, arr)
        finally:
            teardown()

    def test_non_slot_types_ship_inline(self, rng):
        """Only tile traffic rides slots: the same slot-sized tensor in
        any other message (weights a worker keeps, say) ships inline."""
        cha, chb, teardown = _channel_pair()
        try:
            arr = rng.standard_normal((64, 64)).astype(np.float32)
            assert MIN_SLOT_PAYLOAD <= arr.nbytes <= cha.send_ring.slot_bytes
            t, box = _recv_threaded(chb)
            cha.send({"weights": arr})
            t.join(timeout=10.0)
            assert cha.occupancy() == 0
            np.testing.assert_array_equal(box["msg"]["weights"], arr)
        finally:
            teardown()

    def test_loan_slot_zero_copy_send(self, rng):
        """A loaned view is produced in place: send skips the memcpy."""
        cha, chb, teardown = _channel_pair()
        try:
            view = cha.loan_slot((64, 64), np.float32)
            assert cha.occupancy() > 0  # the loan owns its slot already
            view[:] = rng.standard_normal((64, 64)).astype(np.float32)
            expect = view.copy()
            cha.send(TileTask(4, view))
            msg = chb.recv()
            np.testing.assert_array_equal(msg.tile, expect)
            del msg, view  # drop slot views so teardown can unmap
            chb.send(Hello(0))
            cha.recv()
            assert cha.occupancy() == 0  # loaned slot released normally
        finally:
            teardown()

    def test_loan_sent_twice_copies_second_time(self, rng):
        """Only the first send of a loan is zero-copy; resends fall back
        to the ordinary acquire+write path with fresh slots."""
        cha, chb, teardown = _channel_pair()
        try:
            view = cha.loan_slot((64, 64), np.float32)
            view.fill(3.0)
            cha.send(TileTask(5, view))
            cha.send(TileTask(6, view))  # same buffer, no loan left
            first, second = chb.recv(), chb.recv()
            np.testing.assert_array_equal(first.tile, second.tile)
            del first, second, view  # drop slot views before unmap
        finally:
            teardown()


# ---------------------------------------------------------------------------
# One wire frame: a ring-less and a ring-backed channel speak the same
# layout, differing only in slot references and releases.
# ---------------------------------------------------------------------------

SLOT_BYTES = 2048  # small slots keep every generated frame socket-buffer sized


@contextmanager
def _pairs():
    """A ring-backed ShmChannel pair and a ring-less Channel pair."""
    cha, chb, teardown = _channel_pair(slot_bytes=SLOT_BYTES, n_slots=8)
    sa, sb = socket.socketpair()
    plain_a, plain_b = Channel(sa), Channel(sb)
    try:
        yield cha, chb, plain_a, plain_b
    finally:
        plain_a.close()
        plain_b.close()
        teardown()


_SHAPES = st.sampled_from([
    (),            # 0-d
    (0, 3),        # empty
    (5,),          # smaller than MIN_SLOT_PAYLOAD
    (16, 20),      # slot-sized for 4- and 8-byte dtypes
    (40, 40),      # larger than a slot
])


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from(["f4", "f8", "i1", "i8", "u2", "c8", "?"]))
    shape = draw(_SHAPES)
    n = int(np.prod(shape, dtype=int))
    arr = (np.arange(n) % 7).astype(dtype).reshape(shape)
    if arr.ndim and arr.shape[0] > 1 and draw(st.booleans()):
        arr = arr[::2]  # non-contiguous
    return arr


def _nested(leaves):
    return st.one_of(
        st.lists(leaves, max_size=2),
        st.tuples(leaves, st.integers(0, 9)),
        st.dictionaries(st.sampled_from("abc"), leaves, max_size=2),
    )


#: Nested containers holding at most four arrays (the ring has 8 slots).
_PAYLOADS = st.recursive(_arrays(), _nested, max_leaves=4)


def _same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)
    else:
        assert got == want


class TestOneFrame:
    @settings(max_examples=30, deadline=None)
    @given(payloads=st.lists(_PAYLOADS, min_size=1, max_size=4))
    def test_ringless_and_ring_backed_pairs_decode_alike(self, payloads):
        """Tile messages round-trip equal over both pairs, in both
        directions, and alternating traffic hands every slot back."""
        with _pairs() as (cha, chb, plain_a, plain_b):
            used_a_slot = False
            for i, payload in enumerate(payloads):
                for src, dst, psrc, pdst, wrap in (
                    (cha, chb, plain_a, plain_b, TileTask),
                    (chb, cha, plain_b, plain_a, TileResult),
                ):
                    message = (
                        wrap(i, payload) if wrap is TileTask
                        else wrap(i, 0, payload, 0.0)
                    )
                    src.send(message)
                    used_a_slot = used_a_slot or cha.occupancy() > 0
                    over_rings = dst.recv()
                    psrc.send(message)
                    over_socket = pdst.recv()
                    assert type(over_rings) is type(over_socket) is wrap
                    _same(over_rings.tile, payload)
                    _same(over_socket.tile, payload)
                    del over_rings  # slot views die before their release
            # one more exchange announces the last consumed slots
            cha.send(Hello(0))
            chb.recv()
            chb.send(Hello(0))
            cha.recv()
            assert cha.occupancy() == 0 and chb.occupancy() == 0
            slot_sized = any(
                MIN_SLOT_PAYLOAD <= a.nbytes <= SLOT_BYTES
                for a in _leaves(payloads)
            )
            assert used_a_slot == slot_sized

    @settings(max_examples=30, deadline=None)
    @given(payload=_PAYLOADS)
    def test_frames_cross_between_channel_classes(self, payload):
        """The handshake case: a ring-less sender's frame decodes on a
        ring-backed receiver and (for non-tile messages, which never
        name a slot) the other way round — byte-identical frames."""
        cha, chb, teardown = _channel_pair(slot_bytes=SLOT_BYTES, n_slots=8)
        sa, sb = socket.socketpair()
        plain, ringed = Channel(sa), ShmChannel(sb)
        ringed.attach(chb.send_ring, chb.recv_ring)
        try:
            for message in (TileTask(1, payload), {"setup": payload}):
                plain.send(message)  # ring-less -> ring-backed
                got = ringed.recv()
                _same(
                    got.tile if isinstance(message, TileTask) else got["setup"],
                    payload,
                )
            attach = ShmAttach("tx", "rx", SLOT_BYTES, 8)
            for message in ({"setup": payload}, attach, Hello(3)):
                parts, total = ringed._encode_parts(message)
                frame = b"".join(parts)
                assert len(frame) == total
                assert frame == encode_message(message)
                ringed.send(message)  # ring-backed -> ring-less
                got = plain.recv()
                if isinstance(message, dict):
                    _same(got["setup"], payload)
                else:
                    assert got == message
            assert ringed.occupancy() == 0
        finally:
            plain.close()
            ringed.attach(None, None)  # the rings belong to the pair
            ringed.close()
            teardown()


def _leaves(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _leaves(value)


def _frame(releases=(), arrays=(), skeleton=pickle.dumps(None), body=0):
    """A hand-built payload; ``arrays`` are pre-encoded array entries,
    ``skeleton`` the bytes of body kind ``body``."""
    head = struct.pack(">H", len(releases))
    head += b"".join(struct.pack(">I", slot) for slot in releases)
    head += struct.pack(">I", len(arrays)) + b"".join(arrays)
    return head + struct.pack(">B", body) + skeleton


def _entry(kind, tail, descr=b"<f4", shape=(4,), nbytes=16):
    head = struct.pack(">BB", kind, len(descr)) + descr
    head += struct.pack(">B", len(shape))
    head += b"".join(struct.pack(">Q", d) for d in shape)
    return head + struct.pack(">Q", nbytes) + tail


_SLOT_REF = _entry(1, struct.pack(">I", 0))


_TASK_IDS = struct.pack(">qq", 5, 0)
_RESULT_IDS = struct.pack(">qqdq", 5, 1, 0.25, 0)
_INLINE_TILE = _entry(0, b"\0" * 16)


class TestMalformedFramesOnRings:
    """A bad frame is a ``ValueError`` and leaves the rings alone."""

    @pytest.fixture
    def channel(self):
        cha, chb, teardown = _channel_pair(slot_bytes=SLOT_BYTES, n_slots=3)
        touched = []
        for ring in (chb.send_ring, chb.recv_ring):
            for name in ("release", "view"):
                real = getattr(ring, name)
                setattr(
                    ring, name,
                    lambda *a, _real=real, _name=name: (
                        touched.append(_name), _real(*a)
                    )[1],
                )
        chb.touched = touched
        yield chb
        teardown()

    @pytest.mark.parametrize(
        "payload, match",
        [
            (_frame(arrays=[_SLOT_REF, _entry(7, b"")]), "unknown array kind"),
            (_frame(arrays=[_SLOT_REF, _entry(0, b"\0" * 16)[:9]], skeleton=b""),
             "truncated"),
            (_frame(releases=[0], arrays=[_entry(0, b"\0" * 4)], skeleton=b""),
             "overruns"),
            (_frame(releases=[0], arrays=[_SLOT_REF])[:5], "truncated"),
            (_frame(arrays=[_entry(1, struct.pack(">I", 0), nbytes=12)]),
             "disagrees"),
            # tile bodies
            (_frame([0], [_SLOT_REF], _RESULT_IDS[:-1], body=2), "tile body"),
            (_frame([0], [_SLOT_REF], _TASK_IDS + b"\0", body=1), "tile body"),
            (_frame([0], [_SLOT_REF], _TASK_IDS, body=3), "unknown body kind"),
            (_frame([0], [], _TASK_IDS, body=1), "tile body with 0 arrays"),
            (_frame([0], [_SLOT_REF, _INLINE_TILE], _TASK_IDS, body=1),
             "tile body with 2 arrays"),
            (_frame([0], [_entry(1, struct.pack(">I", 0), nbytes=12)],
                    _TASK_IDS, body=1), "disagrees"),
            (_frame([0], [_entry(0, b"\0" * 12, nbytes=12)], _RESULT_IDS,
                    body=2), "disagrees"),
            (_frame([0], [_entry(1, struct.pack(">I", 0), descr=b"|O")],
                    _TASK_IDS, body=1), "dtype"),
        ],
        ids=["unknown-kind", "truncated-descriptor", "inline-overrun",
             "truncated-release-list", "size-mismatch", "tile-truncated",
             "tile-trailing-bytes", "unknown-body-kind", "tile-no-array",
             "tile-two-arrays", "tile-slot-size-mismatch",
             "tile-inline-size-mismatch", "tile-object-dtype"],
    )
    def test_rejected_before_any_ring_access(self, channel, payload, match):
        with pytest.raises(ValueError, match=match):
            channel._decode(memoryview(payload))
        assert channel.touched == [] and channel._to_release == []

    def test_slot_index_out_of_range_rejected(self, channel):
        payload = _frame(arrays=[_entry(1, struct.pack(">I", 3))])
        with pytest.raises(ValueError, match="out of range"):
            channel._decode(memoryview(payload))
        assert channel._to_release == []

    def test_release_out_of_range_rejected(self, channel):
        with pytest.raises(ValueError, match="out of range"):
            channel._decode(memoryview(_frame(releases=[3])))
        assert channel.occupancy() == 0

    def test_tile_slot_reference_rejected_on_a_ringless_channel(self):
        payload = _frame((), [_SLOT_REF], _TASK_IDS, body=1)
        with pytest.raises(ValueError, match="ring-less"):
            decode_message(memoryview(payload))

    def test_well_formed_handmade_tile_frame_decodes(self):
        payload = _frame((), [_INLINE_TILE], _RESULT_IDS, body=2)
        got = decode_message(memoryview(payload))
        assert got == TileResult(5, 1, got.tile, 0.25, 0)
        assert got.tile.dtype == np.float32 and got.tile.tolist() == [0.0] * 4

    def test_slot_descriptor_larger_than_a_slot_rejected(self, channel):
        big = _entry(1, struct.pack(">I", 0), shape=(1024,), nbytes=4096)
        with pytest.raises(ValueError, match="overruns the slot"):
            channel._decode(memoryview(_frame(arrays=[big])))
        assert channel._to_release == []


# ---------------------------------------------------------------------------
# The fixed tile body: TileTask / TileResult with one plain ndarray and
# int64 ids cross without pickle; anything else takes the pickled body.
# ---------------------------------------------------------------------------

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_IDS = st.one_of(
    st.sampled_from([0, 1, -1, _INT64_MIN, _INT64_MAX]),
    st.integers(_INT64_MIN, _INT64_MAX),
)
_WIDE_IDS = st.sampled_from([1 << 63, _INT64_MIN - 1, 1 << 70])


@st.composite
def _tiles(draw):
    """Rank 1-4 float32 tiles: empty, contiguous or strided."""
    shape = tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=4)))
    arr = (np.arange(int(np.prod(shape))) * 0.25 - 3.0).astype(np.float32)
    arr = arr.reshape(shape)
    if shape[-1] > 1 and draw(st.booleans()):
        arr = arr[..., ::2]  # strided
    return arr


def _body_kind(message):
    """The body field of the frame a message encodes to: 0 when the
    encoder built a pickler, else the byte before the fixed body."""
    built = []

    class Counting(wire._ArrayPickler):
        def __init__(self, *args) -> None:
            built.append(self)
            super().__init__(*args)

    with mock.patch.object(wire, "_ArrayPickler", Counting):
        frame = encode_message(message)
    size = {TileTask: 16, TileResult: 32}[type(message)]
    return 0 if built else frame[-size - 1]


class TestTileBody:
    @settings(max_examples=40, deadline=None)
    @given(
        tile=_tiles(), task_id=_IDS, worker_id=_IDS, epoch=_IDS,
        compute_s=st.floats(allow_nan=False),
        wide=st.one_of(st.none(), _WIDE_IDS),
        nested=st.booleans(),
    )
    def test_tile_messages_round_trip_on_both_pairs(
        self, tile, task_id, worker_id, epoch, compute_s, wide, nested
    ):
        """int64 ids and one plain ndarray take the fixed body; an id past
        int64 or a non-array tile takes the pickled body; every message
        decodes equal on a ring-less and a ring-backed pair."""
        if wide is not None:
            task_id = wide
        payload = [tile, tile] if nested else tile
        fixed = wide is None and not nested
        with _pairs() as (cha, chb, plain_a, plain_b):
            for message, kind in (
                (TileTask(task_id, payload, epoch), 1),
                (TileResult(task_id, worker_id, payload, compute_s, epoch), 2),
            ):
                assert _body_kind(message) == (kind if fixed else 0)
                for src, dst in ((cha, chb), (plain_a, plain_b)):
                    src.send(message)
                    got = dst.recv()
                    assert type(got) is type(message)
                    assert got.task_id == message.task_id
                    assert got.epoch == message.epoch
                    if isinstance(message, TileResult):
                        assert got.worker_id == worker_id
                        assert got.compute_s == compute_s
                    _same(got.tile, payload)
                    del got  # slot views die before their release
                    dst.send(Hello(0))  # hands the consumed slot back
                    src.recv()
            assert cha.occupancy() == 0 and chb.occupancy() == 0

    def test_ids_of_other_types_take_the_pickled_body(self):
        tile = np.zeros(4, dtype=np.float32)
        for message in (
            TileTask(np.int64(3), tile),
            TileTask(True, tile),
            TileResult(1, 0, tile, 0, 0),  # an int compute_s
            TileTask(1, np.ma.masked_array(tile)),  # an ndarray subclass
        ):
            assert _body_kind(message) == 0
            got = decode_message(memoryview(encode_message(message)))
            assert got.task_id == message.task_id
            assert type(got.task_id) is type(message.task_id)

    def test_object_tile_is_refused_on_encode(self):
        with pytest.raises(TypeError, match="wire-safe"):
            encode_message(TileTask(1, np.array([object()], dtype=object)))


class TestShmTransportPipeline:
    @pytest.fixture
    def model(self):
        return toy_chain(4, 1, input_hw=32, in_channels=3, base_channels=8)

    def _frames(self, model, n, seed=21):
        rng = np.random.default_rng(seed)
        return [
            rng.standard_normal(model.input_shape).astype(np.float32)
            for _ in range(n)
        ]

    def test_session_matches_inproc_past_ring_wrap(self, model):
        """More frames than ring slots: wraparound stays bit-exact."""
        weights = init_weights(model, seed=5)
        cluster = heterogeneous_cluster([1200, 1000, 800])
        program = compile_plan(model, PicoScheme().plan(model, cluster, NET))
        frames = self._frames(model, 6)
        with PipelineSession(program, InProcTransport(Engine(model, weights))) as s:
            refs = [s.run_frame(x) for x in frames]
        transport = ShmTransport(model, weights, slots_per_ring=2)
        with PipelineSession(program, transport) as s:
            outs = [s.run_frame(x) for x in frames]
        for out, ref in zip(outs, refs):
            np.testing.assert_array_equal(out, ref)

    def test_single_worker_stage_output_owns_its_buffer(self, model):
        """The stitch pass-through must not leak a live slot view."""
        weights = init_weights(model, seed=5)
        program = compile_plan(
            model, PicoScheme().plan(model, pi_cluster(1, 1000), NET)
        )
        frames = self._frames(model, 2)
        transport = ShmTransport(model, weights)
        with PipelineSession(program, transport) as s:
            outs = [s.run_frame(x) for x in frames]
        for out in outs:
            assert out.base is None  # a copy, not a view into the ring

    def test_distributed_pipeline_shm_backend(self, model):
        weights = init_weights(model, seed=5)
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        frames = self._frames(model, 3)
        engine = Engine(model, weights)
        refs = [engine.forward_features(x) for x in frames]
        served, _ = serve_on_workers(model, plan, weights, frames, "shm")
        for i, ref in enumerate(refs):
            np.testing.assert_allclose(
                served.outputs[i], ref, atol=1e-4, rtol=1e-4
            )
        assert served.throughput > 0

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_served_toy_frames_bit_equal_to_engine(self, transport):
        """Tile frames cross the wire in the fixed body both ways: the
        served features equal one process's, bit for bit."""
        model = toy_chain(8, 2, input_hw=64, base_channels=8)
        weights = init_weights(model, seed=3)
        plan = PicoScheme().plan(
            model, heterogeneous_cluster([1200, 1000, 800, 600]), NET
        )
        frames = self._frames(model, 3)
        engine = Engine(model, weights)
        served, _ = serve_on_workers(model, plan, weights, frames, transport)
        for i, x in enumerate(frames):
            assert np.array_equal(served.outputs[i], engine.forward_features(x))

    def test_close_unlinks_all_rings(self, model):
        weights = init_weights(model, seed=5)
        plan = PicoScheme().plan(model, pi_cluster(2, 1000), NET)
        transport = ShmTransport(model, weights)
        program = compile_plan(model, plan)
        transport.open(program)
        names = [ring.name for ring in transport._rings]
        assert names and all(
            os.path.exists(f"/dev/shm/{n}") for n in names
        )
        transport.close()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)

    def test_slots_per_ring_validation(self, model):
        weights = init_weights(model, seed=5)
        with pytest.raises(ValueError):
            ShmTransport(model, weights, slots_per_ring=1)
        with pytest.raises(ValueError):
            ShmTransport(model, weights, slot_frames=0)
