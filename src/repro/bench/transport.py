"""Transport micro-benchmark: tensor frames/s per payload plane.

Measures what the shared-memory slot rings buy over framed TCP for
same-host tensor traffic, with the in-process reference-passing queue
as the ceiling.  One forked echo child per run plays the worker; the
parent streams ``TileTask`` frames at a fixed window and the child
answers — a tiny ack in ``oneway`` mode (isolates the forward payload
plane), the full tensor back in ``echo`` mode (both directions).

``oneway`` models *fresh-frame production*: every transport fills the
payload anew each frame before delivering it, the way a camera stage
or compute kernel produces output.  The shm producer fills a slot view
borrowed via :meth:`~repro.runtime.shm.ShmChannel.loan_slot` — the
tensor is produced directly in shared memory, so the send is a
header-only control frame with **zero** payload copies.  The tcp and
inproc producers fill process-local memory, which the transport must
then move (or, for inproc, hand over by reference).  ``echo`` round
trips an already-materialised array — the honest per-hop cost when the
producer cannot write in place:

* **tcp** — the framed socket codec end to end: no-recopy sends, but
  every byte still crosses the kernel twice per hop.
* **shm** — :class:`~repro.runtime.shm.ShmChannel`: payloads ride
  preallocated shared-memory slots (at most one memcpy, none when
  loaned), header-only control frames on the socket, and a zero-copy
  ``np.ndarray`` view on the far side.
* **inproc** — two threads handing array references over a
  ``queue.Queue``; no serialisation at all (upper bound).

Protocol: transports are *interleaved* inside each repeat (drift hits
every transport equally) and the reported number is the median
frames/s across repeats.  The ``oneway`` window stays below the shm
ring's slot count — a sender blocked on slot acquire cannot drain its
own socket, which is exactly the backpressure the serving layer sheds
on, not something to measure through.

The headline gate: shm must beat tcp by ``--min-ratio`` (default 3×;
``--quick``, on shared-runner timing, 1.3× over fewer frames, repeats
and sizes) frames/s on multi-megabyte oneway frames.

The **dispatch** section measures the runtime around the wire: the
e2e toy chain (``toy_chain(8, 2, input_hw=64, base_channels=8)``, PICO
on the 1200/1000/800/600 MHz cluster at 50 Mbps — two stages of two
workers) served by :class:`~repro.serve.PipelineServer` (``policy="block"``)
with 8 frames in the system, over tcp and shm: frames/s and the CPU
milliseconds a frame costs the coordinator process and its workers
(``/proc/<pid>/stat``), BLAS pinned to one thread as in the e2e
children.  Its gate is exactness only — every output equals the
single-process oracle bit for bit; there is no speed gate.
``before_after`` times the same rows at a parent checkout and at this
one, alternating (``--before-after PARENT_SRC``), and is carried over
from the committed report when not re-measured.

The **codec** section times the one frame codec in process, per
message: µs per :func:`~repro.runtime.transport.encode_parts` and per
:func:`~repro.runtime.transport.decode_message` of a ``TileTask`` and a
``TileResult`` at the first stage tile of the e2e toy64 and resnet34@64
plans (PICO, the 1200/1000/800/600 MHz cluster, 50 Mbps), inline and
in a ring slot, the fixed tile body beside the pickled body (the body
every other message takes, and the one tile frames took before the
fixed body; the encoder is pointed at it for these rows).  Its gate,
``codec_tile_frames_pickle_nothing``, is deterministic: encoding and
decoding a tile frame constructs no pickler and no unpickler, and every
control frame still round-trips through the restricted unpickler.

Results land in ``BENCH_transport.json``; non-zero exit when a gate
fails.  ``--check`` holds the case list and frame sizes against the
committed report and enforces the gates on the fresh run::

    python -m repro.bench.transport --quick
    python -m repro.bench.transport --check BENCH_transport.json --quick
    python -m repro.bench.transport --before-after /path/to/parent/src
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing as mp
import os
import queue
import socket
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench import common
from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn import parallel
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime import transport as wire
from repro.runtime.coordinator import ShmTransport, TcpTransport
from repro.runtime.messages import (
    Hello,
    Reconfigure,
    ShmAttach,
    Shutdown,
    TileResult,
    TileTask,
    WorkerError,
)
from repro.runtime.program import compile_plan, split_stage
from repro.runtime.shm import ShmChannel, ShmRing
from repro.runtime.transport import (
    Channel,
    decode_message,
    encode_message,
    encode_parts,
)
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig

__all__ = ["BENCH", "run"]

#: (label, float32 tensor shape) — ~1, ~4 and ~16 MB frames.
SIZES: "Tuple[Tuple[str, Tuple[int, int, int]], ...]" = (
    ("1MB", (16, 128, 128)),
    ("4MB", (64, 128, 128)),
    ("16MB", (64, 256, 256)),
)

#: Outstanding oneway frames; must stay < the shm ring's slot count.
ONEWAY_WINDOW = 3
SLOTS_PER_RING = 4

#: The dispatch rows: frames per run (full, quick), outstanding
#: submits, distinct input frames cycled, and the fresh interpreter's
#: BLAS pinning (the e2e children's).
DISPATCH_FRAMES = (3000, 300)
DISPATCH_WINDOW = 8
DISPATCH_INPUTS = 16
DISPATCH_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: The codec rows: the e2e models whose first stage tile they encode,
#: and the calls per timing (full, quick).
CODEC_MODELS = (
    ("toy64", lambda: toy_chain(8, 2, input_hw=64, base_channels=8)),
    ("resnet34", lambda: get_model("resnet34", input_hw=64)),
)
CODEC_CALLS = (2000, 200)


def _echo_child(host: str, port: int, mode: str) -> None:
    """The worker side: ack or echo every frame until Shutdown."""
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = ShmChannel(sock)  # ring-less unless the parent attaches
    try:
        channel.send(Hello(0))
        first = channel.recv()
        if isinstance(first, ShmAttach):
            channel.attach(
                ShmRing.attach(first.send_name), ShmRing.attach(first.recv_name)
            )
            first = channel.recv()
        while True:
            if isinstance(first, Shutdown):
                return
            assert isinstance(first, TileTask)
            if mode == "echo":
                channel.send(TileResult(first.task_id, 0, first.tile, 0.0))
            else:
                channel.send(Hello(first.task_id))  # tiny ack
            first = channel.recv()
    finally:
        channel.close()


def _timed_stream(
    channel: Channel,
    arr: np.ndarray,
    n_frames: int,
    window: int,
    produce: bool,
    loan_shape: "Optional[Tuple[int, ...]]" = None,
) -> float:
    """Stream ``n_frames`` tasks at ``window`` outstanding; seconds.

    With ``produce`` each frame is filled fresh before delivery; when
    ``loan_shape`` is set the fill happens in a loaned shm slot (the
    zero-copy production path), otherwise in process-local memory.
    """
    outstanding = 0
    t0 = time.perf_counter()
    for i in range(n_frames):
        if produce:
            frame = channel.loan_slot(loan_shape) if loan_shape else arr
            frame.fill(float(i & 7))
        else:
            frame = arr
        channel.send(TileTask(i, frame))
        outstanding += 1
        if outstanding >= window:
            channel.recv()
            outstanding -= 1
    while outstanding:
        channel.recv()
        outstanding -= 1
    return time.perf_counter() - t0


def _run_socket_transport(
    transport: str, shape: "Tuple[int, ...]", mode: str, n_frames: int
) -> float:
    """One child round over tcp or shm; returns measured seconds."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    host, port = listener.getsockname()
    listener.listen(1)
    listener.settimeout(30.0)
    child = mp.get_context("fork").Process(
        target=_echo_child, args=(host, port, mode), daemon=True
    )
    child.start()
    conn, _ = listener.accept()
    listener.close()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = ShmChannel(conn) if transport == "shm" else Channel(conn)
    rings: "List[ShmRing]" = []
    try:
        hello = channel.recv()
        assert isinstance(hello, Hello)
        arr = np.ones(shape, dtype=np.float32)
        if transport == "shm":
            to_child = ShmRing.create(arr.nbytes, SLOTS_PER_RING)
            from_child = ShmRing.create(arr.nbytes, SLOTS_PER_RING)
            rings = [to_child, from_child]
            channel.send(
                ShmAttach(
                    send_name=from_child.name,
                    recv_name=to_child.name,
                    slot_bytes=to_child.slot_bytes,
                    n_slots=to_child.n_slots,
                )
            )
            channel.attach(send_ring=to_child, recv_ring=from_child)
        window = ONEWAY_WINDOW if mode == "oneway" else 1
        produce = mode == "oneway"
        loan_shape = shape if produce and transport == "shm" else None
        # Warm every ring slot: first-touch page faults on fresh shm
        # segments must not land inside the measured window.
        _timed_stream(
            channel, arr, SLOTS_PER_RING + 2, window, produce, loan_shape
        )
        elapsed = _timed_stream(
            channel, arr, n_frames, window, produce, loan_shape
        )
        channel.send(Shutdown())
        return elapsed
    finally:
        channel.close()
        child.join(timeout=10.0)
        if child.is_alive():
            child.terminate()
        for ring in rings:
            ring.destroy()


def _run_inproc(
    shape: "Tuple[int, ...]", mode: str, n_frames: int
) -> float:
    """Reference-passing ceiling: two threads, queue hand-off."""
    tasks: "queue.Queue" = queue.Queue()
    replies: "queue.Queue" = queue.Queue()

    def child() -> None:
        while True:
            item = tasks.get()
            if item is None:
                return
            replies.put(item if mode == "echo" else item.task_id)

    t = threading.Thread(target=child, daemon=True)
    t.start()
    arr = np.ones(shape, dtype=np.float32)
    window = ONEWAY_WINDOW if mode == "oneway" else 1

    def stream(n: int) -> float:
        outstanding = 0
        t0 = time.perf_counter()
        for i in range(n):
            if mode == "oneway":
                arr.fill(float(i & 7))  # fresh-frame production
            tasks.put(TileTask(i, arr))
            outstanding += 1
            if outstanding >= window:
                replies.get()
                outstanding -= 1
        while outstanding:
            replies.get()
            outstanding -= 1
        return time.perf_counter() - t0

    stream(2)  # warmup
    elapsed = stream(n_frames)
    tasks.put(None)
    t.join(timeout=10.0)
    return elapsed


def _dispatch_row(transport: str, frames: int, seed: int) -> Dict:
    """Serve ``frames`` toy-chain frames with ``DISPATCH_WINDOW``
    in the system; frames/s, CPU ms a frame on each side, exactness."""
    model = toy_chain(8, 2, input_hw=64, base_channels=8)
    cluster = heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0])
    plan = PicoScheme().plan(model, cluster, NetworkModel.from_mbps(50.0))
    weights = init_weights(model, seed)
    rng = np.random.default_rng(seed)
    inputs = [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(DISPATCH_INPUTS)
    ]
    engine = Engine(model, weights)
    oracle = [engine.forward_features(x) for x in inputs]  # the chain has no head
    parallel.shutdown_pool()  # no live pool in the parent of forked workers
    backend = {"tcp": TcpTransport, "shm": ShmTransport}[transport](model, weights)
    config = ServerConfig(queue_capacity=DISPATCH_WINDOW, policy="block")
    with PipelineServer.from_plan(model, plan, backend, config=config) as server:
        server.serve(inputs)  # warm-up: sockets, rings, kernels
        pids = [h.process.pid for h in backend.all_handles()]
        coord0 = common.cpu_seconds(os.getpid())
        work0 = sum(map(common.cpu_seconds, pids))
        t0 = time.perf_counter()
        served = server.serve([inputs[i % DISPATCH_INPUTS] for i in range(frames)])
        elapsed = time.perf_counter() - t0
        coord = common.cpu_seconds(os.getpid()) - coord0
        work = sum(map(common.cpu_seconds, pids)) - work0
    exact = len(served.outputs) == frames and all(
        np.array_equal(out, oracle[i % DISPATCH_INPUTS])
        for i, out in served.outputs.items()
    )
    return {
        "transport": transport,
        "frames": frames,
        "exact": bool(exact),
        "frames_per_s": round(frames / elapsed, 1),
        "coordinator_cpu_ms": round(1e3 * coord / frames, 3),
        "worker_cpu_ms": round(1e3 * work / frames, 3),
    }


def _dispatch_rows(frames: int, seed: int) -> "List[Dict]":
    rows = [
        common.run_fresh(__file__, "_dispatch_row", (t, frames, seed), DISPATCH_ENV)
        for t in ("tcp", "shm")
    ]
    for row in rows:
        print(
            f"dispatch[{row['transport']}]: {row['frames_per_s']:.1f} frames/s, "
            f"coordinator {row['coordinator_cpu_ms']:.3f} + workers "
            f"{row['worker_cpu_ms']:.3f} CPU ms a frame, exact {row['exact']}"
        )
    return rows


def _first_stage_tiles(model) -> "Tuple[np.ndarray, np.ndarray, Reconfigure]":
    """The first task of the model's e2e plan: its input tile, an output
    tile of its shape, and the ``Reconfigure`` that would ship it."""
    cluster = heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0])
    program = compile_plan(
        model, PicoScheme().plan(model, cluster, NetworkModel.from_mbps(50.0))
    )
    stage = program.stages[0]
    task = stage.tasks[0]
    x = np.linspace(-1.0, 1.0, int(np.prod(model.input_shape)), dtype=np.float32)
    tile = split_stage(stage.tasks, x.reshape(model.input_shape))[0]
    region = task.program.out_region
    out_shape = (stage.out_shape[0], region.height, region.width)
    out = np.linspace(0.0, 1.0, int(np.prod(out_shape)), dtype=np.float32)
    return tile, out.reshape(out_shape), Reconfigure(task.program)


@contextlib.contextmanager
def _pickled_tile_body():
    """Point the encoder at the pickled body for tile messages too."""
    fixed = wire._tile_body
    wire._tile_body = lambda message: None
    try:
        yield
    finally:
        wire._tile_body = fixed


@contextlib.contextmanager
def _counting_picklers(counts: "Dict[str, int]"):
    """Count every ``_ArrayPickler`` / ``_RestrictedUnpickler`` the codec
    constructs while the block runs."""
    pickler, unpickler = wire._ArrayPickler, wire._RestrictedUnpickler

    class Pickler(pickler):
        def __init__(self, *args) -> None:
            counts["picklers"] += 1
            super().__init__(*args)

    class Unpickler(unpickler):
        def __init__(self, *args) -> None:
            counts["unpicklers"] += 1
            super().__init__(*args)

    wire._ArrayPickler, wire._RestrictedUnpickler = Pickler, Unpickler
    try:
        yield
    finally:
        wire._ArrayPickler, wire._RestrictedUnpickler = pickler, unpickler


def _ring_side(ring: "Optional[ShmRing]"):
    """``(place, slot_view)`` of a codec call: slot 0 of ``ring``, or
    inline when there is none."""
    if ring is None:
        return None, None
    return (lambda contiguous: (ring.write(0, contiguous), 0)[1]), ring.view


def _codec_us(message, ring: "Optional[ShmRing]", calls: int, pickled: bool):
    """µs per encode and per decode of ``message`` and its frame bytes."""
    place, slot_view = _ring_side(ring)
    with _pickled_tile_body() if pickled else contextlib.nullcontext():
        parts, total = encode_parts(message, (), place)
        t0 = time.perf_counter()
        for _ in range(calls):
            encode_parts(message, (), place)
        t1 = time.perf_counter()
    payload = memoryview(bytearray(b"".join(parts)))
    t2 = time.perf_counter()
    for _ in range(calls):
        decode_message(payload, None, slot_view)
    t3 = time.perf_counter()
    return 1e6 * (t1 - t0) / calls, 1e6 * (t3 - t2) / calls, total


def _same_message(got, want) -> bool:
    if isinstance(want, (TileTask, TileResult)):
        return (
            type(got) is type(want) and np.array_equal(got.tile, want.tile)
            and dataclasses.replace(got, tile=None)
            == dataclasses.replace(want, tile=None)
        )
    return got == want


def _codec(calls: int, repeats: int) -> "Tuple[List[Dict], Dict]":
    """The codec rows and the counts behind the pickle-nothing gate."""
    rows: "List[Dict]" = []
    counts = {
        kind: {"frames": 0, "mismatched": 0, "picklers": 0, "unpicklers": 0}
        for kind in ("tile", "control")
    }
    tiles, controls = [], [
        Hello(3), ShmAttach("tx", "rx", 4096, 2), WorkerError(7, 1, "boom", 2),
        WorkerError(None, 0, "lost", 0), Shutdown(),
    ]
    for name, build in CODEC_MODELS:
        tile, out, reconfigure = _first_stage_tiles(build())
        controls.append(reconfigure)
        tiles += [(name, TileTask(5, tile, 1)), (name, TileResult(5, 2, out, 1e-3, 1))]
    ring = ShmRing.create(max(m.tile.nbytes for _, m in tiles), 1)
    try:
        for placement, on in (("inline", None), ("slot", ring)):
            place, slot_view = _ring_side(on)
            for name, message in tiles:
                with _counting_picklers(counts["tile"]):
                    parts, _total = encode_parts(message, (), place)
                    got = decode_message(
                        memoryview(bytearray(b"".join(parts))), None, slot_view
                    )
                counts["tile"]["frames"] += 1
                counts["tile"]["mismatched"] += not _same_message(got, message)
                del got  # a slot view dies before the ring
                (pickled, fixed) = common.interleaved(
                    [lambda body=body: _codec_us(message, on, calls, body)
                     for body in (True, False)],
                    repeats,
                )
                row = {
                    "model": name,
                    "message": type(message).__name__,
                    "shape": list(message.tile.shape),
                    "placement": placement,
                    "pickled_bytes": pickled[0][2],
                    "fixed_bytes": fixed[0][2],
                }
                for side, samples in (("pickled", pickled), ("fixed", fixed)):
                    for i, op in enumerate(("encode", "decode")):
                        row[f"{side}_{op}_us"] = round(
                            statistics.median(s[i] for s in samples), 2
                        )
                rows.append(row)
                print(
                    f"codec[{name} {row['message']} {placement}]: encode "
                    f"{row['pickled_encode_us']:.1f} -> {row['fixed_encode_us']:.1f}"
                    f" us, decode {row['pickled_decode_us']:.1f} -> "
                    f"{row['fixed_decode_us']:.1f} us (pickled -> fixed body)"
                )
    finally:
        ring.destroy()
    for message in controls:
        with _counting_picklers(counts["control"]):
            got = decode_message(memoryview(encode_message(message)))
        counts["control"]["frames"] += 1
        counts["control"]["mismatched"] += not _same_message(got, message)
    return rows, counts


def _before_after(parent_src: str, frames: int, seed: int, rounds: int) -> Dict:
    """The dispatch rows at ``parent_src`` and at this checkout,
    alternating (:func:`repro.bench.common.parent_vs_change`); both
    sides must be exact."""
    section: Dict = {
        "parent": common.parent_commit(parent_src), "rounds": int(rounds),
        "frames": int(frames), "rows": [],
    }
    for transport in ("tcp", "shm"):
        runs = common.parent_vs_change(
            parent_src, __file__, "_dispatch_row", (transport, frames, seed),
            rounds, agree=("exact",), env=DISPATCH_ENV,
        )
        before, after, wins = common.paired_rates(runs, "frames_per_s")
        row = {
            "transport": transport,
            "parent_frames_per_s": before,
            "change_frames_per_s": after,
            "speedup": round(after / before, 3),
            "wins": wins,
        }
        for field in ("coordinator_cpu_ms", "worker_cpu_ms"):
            for side in ("parent", "change"):
                row[f"{side}_{field}"] = round(
                    statistics.median(m[field] for m in runs[side]), 3
                )
        section["rows"].append(row)
        print(
            f"before_after[{transport}]: {before:.1f} -> {after:.1f} frames/s "
            f"(x{after / before:.3f}, change ahead in {wins}/{rounds} rounds); "
            f"coordinator {row['parent_coordinator_cpu_ms']:.3f} -> "
            f"{row['change_coordinator_cpu_ms']:.3f}, workers "
            f"{row['parent_worker_cpu_ms']:.3f} -> "
            f"{row['change_worker_cpu_ms']:.3f} CPU ms a frame"
        )
    return section


def run(
    quick: bool = False,
    seed: int = 0,
    frames: int = 40,
    repeats: int = 5,
    min_ratio: Optional[float] = None,
    before_after: Optional[str] = None,
    rounds: int = 10,
    *,
    committed: Optional[Dict] = None,
):
    """Run the interleaved sweep and the dispatch rows; returns
    ``(sections, gates)``.  The sweep's frames are constant fills, so
    ``seed`` only seeds the dispatch rows' weights and inputs."""
    chosen, modes = list(SIZES), ("oneway", "echo")
    if quick:
        frames, repeats = min(frames, 10), min(repeats, 2)
        chosen, modes = [SIZES[1]], ("oneway",)
    if min_ratio is None:
        min_ratio = 1.3 if quick else 3.0
    cases = [
        (transport, label, mode)
        for label, _ in chosen
        for mode in modes
        for transport in ("tcp", "shm", "inproc")  # interleaved within repeat
    ]
    shapes = dict(chosen)

    def frames_per_s(transport: str, label: str, mode: str) -> float:
        if transport == "inproc":
            elapsed = _run_inproc(shapes[label], mode, frames)
        else:
            elapsed = _run_socket_transport(
                transport, shapes[label], mode, frames
            )
        return frames / elapsed

    samples = dict(zip(cases, common.interleaved(
        [lambda case=case: frames_per_s(*case) for case in cases], repeats
    )))

    results = []
    for (transport, label, mode), fps_samples in sorted(samples.items()):
        nbytes = int(np.prod(shapes[label])) * 4
        fps = statistics.median(fps_samples)
        results.append(
            {
                "transport": transport,
                "size": label,
                "frame_bytes": nbytes,
                "mode": mode,
                "frames_per_s": round(fps, 2),
                "mb_per_s": round(fps * nbytes / 1e6, 1),
                "samples": [round(s, 2) for s in fps_samples],
            }
        )
        print(
            f"{transport:>7} {label:>5} {mode:>7}: {fps:>8.2f} frames/s "
            f"({fps * nbytes / 1e6:>9.1f} MB/s)"
        )

    # Gate on the multi-megabyte oneway sizes (every chosen size >= 4MB).
    fps_of = {
        (row["transport"], row["size"], row["mode"]): row["frames_per_s"]
        for row in results
    }
    ratios = {
        label: round(
            fps_of["shm", label, "oneway"]
            / max(fps_of["tcp", label, "oneway"], 1e-9), 2
        )
        for label, shape in chosen
        if int(np.prod(shape)) * 4 >= 4e6 and "oneway" in modes
    }
    print(f"shm/tcp oneway ratios {ratios} (min {min_ratio})")
    codec, codec_counts = _codec(CODEC_CALLS[quick], repeats)
    dispatch_frames = DISPATCH_FRAMES[quick]
    dispatch = _dispatch_rows(dispatch_frames, seed)
    if before_after:
        parent_vs_change = _before_after(before_after, dispatch_frames, seed, rounds)
    else:
        parent_vs_change = (committed or {}).get("before_after")
    sections = {
        "config": {
            "n_frames": frames,
            "repeats": repeats,
            "oneway_window": ONEWAY_WINDOW,
            "slots_per_ring": SLOTS_PER_RING,
            "sizes": {label: list(shape) for label, shape in chosen},
            "modes": list(modes),
            "dispatch_window": DISPATCH_WINDOW,
        },
        "protocol": (
            "transports interleaved within each repeat; median frames/s "
            "across repeats; oneway = fresh-frame production at window-3 "
            "with tiny acks (each frame is filled before delivery — shm "
            "fills a loaned slot view in shared memory, tcp/inproc fill "
            "process-local memory the transport must then move); "
            "echo = window-1 round trips of an already-materialised array"
        ),
        "results": results,
        "shm_over_tcp": {
            "metric": "shm/tcp oneway frames_per_s",
            "min_ratio": min_ratio,
            "ratios": ratios,
        },
        "codec": codec,
        "codec_counts": codec_counts,
        "dispatch": dispatch,
        "before_after": parent_vs_change,
    }
    tile, control = codec_counts["tile"], codec_counts["control"]
    return sections, {
        "shm_beats_tcp_oneway": bool(ratios)
        and all(r >= min_ratio for r in ratios.values()),
        # tile frames round-trip with no pickler or unpickler built;
        # every control frame takes one of each
        "codec_tile_frames_pickle_nothing": (
            tile["frames"] > 0 and control["frames"] > 0
            and tile["mismatched"] == control["mismatched"] == 0
            and tile["picklers"] == tile["unpicklers"] == 0
            and control["picklers"] == control["unpicklers"] == control["frames"]
        ),
        "dispatch_outputs_exact": all(row["exact"] for row in dispatch),
    }


BENCH = common.Bench(
    name="transport",
    run=run,
    deterministic=(
        common.Section("config", same_mode=True),
        common.Section("results", key=("transport", "size", "mode")),
        common.Section("codec", key=("model", "message", "placement")),
        common.Section("codec_counts"),
        common.Section("dispatch", key=("transport",), same_mode=True),
    ),
    timings=(
        "frames_per_s", "mb_per_s", "samples", "coordinator_cpu_ms",
        "worker_cpu_ms", "pickled_encode_us", "pickled_decode_us",
        "fixed_encode_us", "fixed_decode_us",
    ),
    extras={
        "--frames": dict(type=int, default=40),
        "--repeats": dict(type=int, default=5),
        "--min-ratio": dict(
            type=float, help="shm-over-tcp gate (default 3.0, quick 1.3)"
        ),
        "--before-after": dict(
            metavar="PARENT_SRC",
            help="also time the dispatch rows against the src/ of a parent "
            "checkout, alternating, and record the medians",
        ),
        "--rounds": dict(
            type=int, default=10,
            help="parent/change pairs per row for --before-after",
        ),
    },
    reads_committed=True,
)

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(common.main(BENCH))
