"""Structured per-frame trace events shared by every runtime backend.

Every backend — in-process queues, TCP workers, the virtual-clock
simulator — reports the same four event kinds per (frame, stage, device)
through :class:`Tracer`:

``enqueue``
    the frame arrived at the stage (``start``) and began service
    (``end``); the gap is queueing delay.
``send``
    the input tile travelled coordinator → device; ``nbytes`` is the
    tile payload.
``compute``
    the device executed its compiled segment program.
``recv``
    the output tile travelled device → coordinator; ``nbytes`` is the
    result payload.

Timestamps are seconds relative to the session epoch — wall-clock for
the real backends, virtual for :class:`~repro.runtime.core.SimTransport`
— so real and simulated runs produce directly comparable timelines.
The *canonical* projection drops timestamps entirely, leaving the
deterministic ``(frame, stage, kind, device, nbytes)`` sequence: two
backends executed the same plan iff their canonical traces are equal,
which is the exactness gate ``tests/test_differential.py`` enforces.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "EVENT_KINDS",
    "RECOVERY_KINDS",
    "ADMISSION_KINDS",
    "TraceEvent",
    "Tracer",
    "coerce_tracer",
    "canonical_trace",
    "diff_traces",
    "device_busy",
    "trace_makespan",
    "format_timeline",
    "dump_jsonl",
]

#: The trace schema's event kinds, in per-task emission order.
EVENT_KINDS = ("enqueue", "send", "compute", "recv")

#: Recovery event kinds, emitted by the fault-tolerance layer only:
#: ``device_dead`` the first time a device is declared dead,
#: ``device_join`` when scenario churn brings a device (back) into the
#: cluster, ``retry`` per backoff attempt after a transient failure,
#: ``frame_replayed`` when a stage replays a frame from its input
#: boundary after a repartition, and ``replan``/``degraded`` when the
#: session adopts a fresh plan over the survivors (or a single-device
#: fallback).  Fault-free runs never emit these, so the four-kind
#: canonical gate (``tests/test_differential.py``) is unchanged.
RECOVERY_KINDS = ("device_dead", "device_join", "retry", "frame_replayed",
                  "replan", "degraded")

#: Admission-control event kinds, emitted by the serving layer and the
#: bounded-queue simulator: ``shed`` when an arrival is rejected because
#: the queue is full.  Shed frames never enter a stage, so the four-kind
#: canonical gate on executed frames is unchanged.
ADMISSION_KINDS = ("shed",)

_ALL_KINDS = EVENT_KINDS + RECOVERY_KINDS + ADMISSION_KINDS


@dataclass(frozen=True)
class TraceEvent:
    """One timed step of one frame on one stage (and usually device)."""

    kind: str
    frame: int
    stage: int
    device: str  # "" for stage-level events (enqueue)
    start: float
    end: float
    nbytes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown trace event kind {self.kind!r}")
        if self.end < self.start:
            raise ValueError(
                f"{self.kind} event ends before it starts "
                f"({self.end} < {self.start})"
            )
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe event sink.

    Stage threads of the TCP runtime emit concurrently; the in-process
    and simulated backends emit from one thread.  Events keep insertion
    order (which the core makes deterministic per backend).
    """

    def __init__(self) -> None:
        self._events: "List[TraceEvent]" = []
        self._lock = threading.Lock()

    def emit(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def extend(self, events: "Iterable[TraceEvent]") -> None:
        with self._lock:
            self._events.extend(events)

    @property
    def events(self) -> "Tuple[TraceEvent, ...]":
        with self._lock:
            return tuple(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def coerce_tracer(trace) -> "Tracer | None":
    """Normalise the ``trace=`` kwarg every executor accepts.

    One contract everywhere (``PipelineServer``'s ``tracer=``, the
    simulators, :func:`repro.simulate`):
    ``None``/``False`` disables tracing, ``True`` mints a fresh
    :class:`Tracer`, and an existing :class:`Tracer` is used as-is (so
    one sink can aggregate several runs).
    """
    if trace is None or trace is False:
        return None
    if trace is True:
        return Tracer()
    if isinstance(trace, Tracer):
        return trace
    raise TypeError(
        f"trace must be a Tracer, bool or None, not {type(trace).__name__}"
    )


Canonical = Tuple[int, int, str, str, int]


def canonical_trace(events: "Sequence[TraceEvent]") -> "List[Canonical]":
    """The timestamp-free projection used for backend-equality diffs."""
    return [(e.frame, e.stage, e.kind, e.device, e.nbytes) for e in events]


#: Mismatches :func:`diff_traces` lists before it stops.
DIFF_MAX_LINES = 10


def diff_traces(
    a: "Sequence[TraceEvent]", b: "Sequence[TraceEvent]"
) -> "List[str]":
    """Human-readable canonical differences; empty iff traces agree."""
    ca, cb = canonical_trace(a), canonical_trace(b)
    lines: "List[str]" = []
    for i, (ea, eb) in enumerate(zip(ca, cb)):
        if ea != eb:
            lines.append(f"event {i}: {ea} != {eb}")
            if len(lines) >= DIFF_MAX_LINES:
                lines.append("... (further mismatches suppressed)")
                return lines
    if len(ca) != len(cb):
        lines.append(f"event count: {len(ca)} != {len(cb)}")
    return lines


def device_busy(events: "Sequence[TraceEvent]") -> "Dict[str, float]":
    """Busy seconds per device: compute plus its own transfer time.

    Matches the simulator's accounting (and the paper's Table I): on a
    single-core device, socket I/O consumes the CPU like convolutions.
    """
    busy: "Dict[str, float]" = {}
    for e in events:
        if e.device and e.kind in ("send", "compute", "recv"):
            busy[e.device] = busy.get(e.device, 0.0) + e.duration
    return busy


def trace_makespan(events: "Sequence[TraceEvent]") -> float:
    """Last event end minus first event start (0 for empty traces)."""
    if not events:
        return 0.0
    return max(e.end for e in events) - min(e.start for e in events)


def format_timeline(events: "Sequence[TraceEvent]") -> str:
    """A per-frame, per-stage table of the trace, times in ms."""
    scale = 1e3
    lines = [
        f"{'frame':>5s} {'stage':>5s} {'kind':>8s} {'device':>16s} "
        f"{'start':>10s} {'end':>10s} {'bytes':>10s}"
    ]
    for e in events:
        lines.append(
            f"{e.frame:>5d} {e.stage:>5d} {e.kind:>8s} "
            f"{e.device or '-':>16s} {e.start * scale:>10.3f} "
            f"{e.end * scale:>10.3f} {e.nbytes:>10d}"
        )
    lines.append(
        f"-- {len(events)} events, makespan "
        f"{trace_makespan(events) * scale:.3f} ms"
    )
    return "\n".join(lines)


def dump_jsonl(events: "Sequence[TraceEvent]", path: str) -> None:
    """Write one JSON object per event (the trace interchange format)."""
    with open(path, "w") as handle:
        for e in events:
            handle.write(json.dumps(asdict(e)) + "\n")
