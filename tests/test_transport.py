"""Tests for the framed TCP transport and its restricted codec."""

from __future__ import annotations

import io
import pickle
import pickletools
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.messages import Hello, TileResult, TileTask
from repro.runtime.transport import (
    MAX_FRAME_BYTES,
    Channel,
    TransportClosed,
    decode_message,
    encode_message,
    recv_message,
)
from repro.testing.formats import send_message


#: The frame prefix of a pickled-body message: no releases, no arrays,
#: body field 0.
_NO_ARRAYS = struct.pack(">HIB", 0, 0, 0)


@pytest.fixture
def sock_pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_roundtrip_simple(self, sock_pair):
        a, b = sock_pair
        send_message(a, {"x": 1, "y": [1, 2, 3]})
        assert recv_message(b) == {"x": 1, "y": [1, 2, 3]}

    def test_roundtrip_numpy(self, sock_pair):
        a, b = sock_pair
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        send_message(a, TileTask(7, arr, epoch=2))
        got = recv_message(b)
        assert isinstance(got, TileTask)
        assert got.task_id == 7 and got.epoch == 2
        np.testing.assert_array_equal(got.tile, arr)

    def test_multiple_messages_in_order(self, sock_pair):
        a, b = sock_pair
        for i in range(10):
            send_message(a, Hello(i))
        for i in range(10):
            assert recv_message(b).worker_id == i

    def test_large_message(self, sock_pair):
        a, b = sock_pair
        arr = np.ones((8, 256, 256), dtype=np.float32)  # 2 MB

        def sender():
            send_message(a, TileResult(1, 0, arr, 0.5))

        thread = threading.Thread(target=sender)
        thread.start()
        got = recv_message(b)
        thread.join()
        np.testing.assert_array_equal(got.tile, arr)

    def test_closed_peer_raises(self, sock_pair):
        a, b = sock_pair
        a.close()
        with pytest.raises(TransportClosed):
            recv_message(b)

    def test_partial_close_mid_frame(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"\x00\x00\x00\x00\x00\x00\x00\x10partial")
        a.close()
        with pytest.raises(TransportClosed):
            recv_message(b)

    def test_oversized_frame_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall((1 << 40).to_bytes(8, "big"))
        with pytest.raises(ValueError):
            recv_message(b)

    def test_oversized_frame_rejected_before_allocation(self, sock_pair):
        # A corrupt length header must be refused from the header alone:
        # only 8 bytes are on the wire, so if recv_message tried to
        # allocate/receive the announced payload it would block forever.
        a, b = sock_pair
        b.settimeout(5.0)
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
        with pytest.raises(ValueError, match="exceeds limit"):
            recv_message(b)

    def test_zero_length_frame_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall((0).to_bytes(8, "big"))
        with pytest.raises(ValueError, match="truncated"):
            recv_message(b)

    def test_truncated_header_raises_closed(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"\x00\x00\x00")  # 3 of 8 length bytes
        a.close()
        with pytest.raises(TransportClosed):
            recv_message(b)

    def test_peer_close_mid_payload(self, sock_pair):
        a, b = sock_pair
        payload = encode_message({"k": np.zeros((4, 4), dtype=np.float32)})
        a.sendall(len(payload).to_bytes(8, "big"))
        a.sendall(payload[: len(payload) // 2])
        a.close()
        with pytest.raises(TransportClosed):
            recv_message(b)


class TestCodec:
    def test_roundtrip_nested_structure(self):
        msg = {
            "arrays": [np.arange(6, dtype=np.int64).reshape(2, 3)],
            "tuple": (1, "two", 3.0),
            "none": None,
        }
        got = decode_message(memoryview(encode_message(msg)))
        np.testing.assert_array_equal(got["arrays"][0], msg["arrays"][0])
        assert got["tuple"] == msg["tuple"] and got["none"] is None

    def test_zero_size_array(self):
        arr = np.empty((0, 3), dtype=np.float32)
        got = decode_message(memoryview(encode_message(arr)))
        assert got.shape == (0, 3) and got.dtype == np.float32

    def test_noncontiguous_array(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[::2, ::3]
        got = decode_message(memoryview(encode_message(arr)))
        np.testing.assert_array_equal(got, arr)

    def test_object_dtype_rejected_on_encode(self):
        with pytest.raises(TypeError, match="wire-safe"):
            encode_message(np.array([object()], dtype=object))

    def test_truncated_payload_rejected(self):
        payload = encode_message(np.ones((8, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            decode_message(memoryview(payload[: len(payload) // 2]))

    def test_forbidden_global_rejected(self):
        # Hand-craft a frame whose skeleton pickle names os.system: the
        # restricted unpickler must refuse to resolve it.
        skeleton = pickletools.optimize(
            b"\x80\x04cos\nsystem\n."  # GLOBAL os.system
        )
        payload = _NO_ARRAYS + skeleton
        with pytest.raises(pickle.UnpicklingError, match="forbidden"):
            decode_message(memoryview(payload))

    def test_builtin_eval_rejected(self):
        skeleton = b"\x80\x04cbuiltins\neval\n."
        payload = _NO_ARRAYS + skeleton
        with pytest.raises(pickle.UnpicklingError, match="forbidden"):
            decode_message(memoryview(payload))

    def test_bad_array_reference_rejected(self):
        # A persistent id past the array table must not index random memory.
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: 5 if obj == "marker" else None
        pickler.dump("marker")
        payload = _NO_ARRAYS + buf.getvalue()
        with pytest.raises(pickle.UnpicklingError, match="bad array reference"):
            decode_message(memoryview(payload))

    # -- malformed frames: every one is a ValueError, and the ring-less
    # -- decoder refuses anything that names a ring slot ----------------
    @staticmethod
    def _array_frame(kind=0, descr=b"<f4", shape=(2,), nbytes=8, tail=b"\0" * 8):
        head = struct.pack(">HI", 0, 1) + struct.pack(">BB", kind, len(descr))
        head += descr + struct.pack(">B", len(shape))
        head += b"".join(struct.pack(">Q", d) for d in shape)
        return head + struct.pack(">Q", nbytes) + tail + b"\0" + pickle.dumps(None)

    def test_well_formed_handmade_frame_decodes(self):
        # the builder the rejections below mutate does speak the codec
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: 0 if obj == "array" else None
        pickler.dump("array")
        payload = self._array_frame()[: -len(pickle.dumps(None))] + buf.getvalue()
        got = decode_message(memoryview(payload))
        assert got.dtype == np.float32 and got.tolist() == [0.0, 0.0]

    def test_unknown_array_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown array kind"):
            decode_message(memoryview(self._array_frame(kind=7)))

    def test_slot_reference_rejected_without_rings(self):
        payload = self._array_frame(kind=1, tail=struct.pack(">I", 0))
        with pytest.raises(ValueError, match="ring-less"):
            decode_message(memoryview(payload))

    def test_release_rejected_without_rings(self):
        payload = struct.pack(">HI", 1, 3) + struct.pack(">IB", 0, 0)
        with pytest.raises(ValueError, match="ring-less"):
            decode_message(memoryview(payload + pickle.dumps(None)))

    @pytest.mark.parametrize("cut", [1, 3, 7, 9, 12, 20])
    def test_truncated_descriptor_rejected(self, cut):
        payload = self._array_frame()[:cut]
        with pytest.raises(ValueError, match="truncated"):
            decode_message(memoryview(payload))

    def test_array_segment_overrunning_frame_rejected(self):
        payload = self._array_frame(shape=(1 << 20,), nbytes=4 << 20)
        with pytest.raises(ValueError, match="overruns"):
            decode_message(memoryview(payload))

    def test_descriptor_size_mismatch_rejected(self):
        # nbytes must be the dtype's itemsize times the shape: a lying
        # header never reaches frombuffer/reshape
        with pytest.raises(ValueError, match="disagrees"):
            decode_message(memoryview(self._array_frame(shape=(3,), nbytes=8)))

    def test_unparseable_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            decode_message(memoryview(self._array_frame(descr=b"zz9")))

    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from(
            ["f4", "f8", "i1", "i4", "i8", "u2", "u8", "c8", "?"]
        ),
        shape=st.lists(st.integers(0, 5), min_size=0, max_size=4),
    )
    def test_roundtrip_random_dtypes_shapes(self, dtype, shape):
        rng = np.random.default_rng(0)
        n = int(np.prod(shape)) if shape else 1
        arr = (rng.integers(0, 2, size=n) * rng.standard_normal(n)).astype(
            dtype
        ).reshape(shape)
        got = decode_message(memoryview(encode_message(arr)))
        assert got.dtype == arr.dtype and got.shape == arr.shape
        np.testing.assert_array_equal(got, arr)


class TestChannel:
    def test_send_recv(self, sock_pair):
        a, b = sock_pair
        ca, cb = Channel(a), Channel(b)
        ca.send("ping")
        assert cb.recv() == "ping"

    def test_close_idempotent(self, sock_pair):
        a, _ = sock_pair
        channel = Channel(a)
        channel.close()
        channel.close()  # no error

    def test_use_after_close_raises(self, sock_pair):
        a, _ = sock_pair
        channel = Channel(a)
        channel.close()
        with pytest.raises(TransportClosed):
            channel.send("x")
        with pytest.raises(TransportClosed):
            channel.recv()

    def test_context_manager(self, sock_pair):
        a, _ = sock_pair
        with Channel(a) as channel:
            pass
        with pytest.raises(TransportClosed):
            channel.send("x")
