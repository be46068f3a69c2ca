"""Harness arithmetic on plain records — no program imports, stdlib only.

Everything here works on numbers the harness collected from outside the
program (``FrameRecord`` fields, ``tracer=True`` event tuples, its own
clock readings), so ``test_harness.py`` can exercise it on synthetic
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

Interval = Tuple[float, float]


# ---------------------------------------------------------------------------
# Percentiles and medians
# ---------------------------------------------------------------------------
def percentile(values: "Sequence[float]", q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n_samples: int, beyond: int = 10) -> "Optional[float]":
    """The highest ladder percentile with at least ``beyond`` samples
    beyond it; ``None`` when not even the median has that many."""
    best = None
    for q in TAIL_LADDER:
        if n_samples * (100.0 - q) / 100.0 >= beyond - 1e-9:
            best = q
    return best


#: Completions per throughput window on the closed loops.
WINDOW_FRAMES = 16


def window_rates(
    completions: "Sequence[float]", size: int = WINDOW_FRAMES
) -> "List[float]":
    """Frames per second over consecutive windows of ``size`` completions
    (``completions`` ascending).  A window runs from one completion to
    the ``size``-th after it, so a pipeline's fill time before the first
    completion is outside it."""
    out = []
    for i in range(0, len(completions) - size, size):
        span = completions[i + size] - completions[i]
        if span > 0:
            out.append(size / span)
    return out


# ---------------------------------------------------------------------------
# Host-speed reference
# ---------------------------------------------------------------------------
def samples_between(
    samples: "Iterable[Tuple[float, float]]", t0: float, t1: float
) -> "List[float]":
    """Values of the ``(time, value)`` reference samples taken in
    ``[t0, t1]``."""
    return [value for at, value in samples if t0 <= at <= t1]


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------
@dataclass
class Tally:
    """Every submitted frame lands in exactly one bucket."""

    submitted: int = 0
    ok: int = 0  # done and output equal to the oracle
    wrong: int = 0  # done but output differs
    shed: int = 0
    failed: int = 0
    unaccounted: int = 0  # no record, two records, or an unknown status

    @property
    def missed(self) -> int:
        return self.wrong + self.shed + self.failed + self.unaccounted

    def add(self, other: "Tally") -> None:
        for name in ("submitted", "ok", "wrong", "shed", "failed", "unaccounted"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def tally_frames(
    submitted: int,
    statuses: "Iterable[Tuple[int, str]]",
    verified: "Dict[int, bool]",
) -> Tally:
    """Bucket ``submitted`` frames from ``(frame, status)`` records.

    ``verified[frame]`` says whether a done frame's output equalled the
    oracle; a done frame missing from it counts as wrong.
    """
    seen: "Dict[int, str]" = {}
    duplicate = set()
    for frame, status in statuses:
        if frame in seen:
            duplicate.add(frame)
        seen[frame] = status
    tally = Tally(submitted=submitted)
    for frame in range(submitted):
        status = seen.get(frame)
        if frame in duplicate or status not in ("done", "shed", "failed"):
            tally.unaccounted += 1
        elif status == "shed":
            tally.shed += 1
        elif status == "failed":
            tally.failed += 1
        elif verified.get(frame, False):
            tally.ok += 1
        else:
            tally.wrong += 1
    return tally


# ---------------------------------------------------------------------------
# Open-loop sojourn from due times
# ---------------------------------------------------------------------------
def due_sojourns(
    completions: "Dict[int, float]", due: "Sequence[float]", epoch: float
) -> "Dict[int, float]":
    """Sojourn of each completed frame from the instant it was *due*.

    ``completions`` are on the server's clock, ``due`` are offsets from
    the serve ``epoch`` (frame 0 is due at 0 and the server stamps its
    arrival immediately, so record 0's arrival is the epoch).
    """
    return {f: c - epoch - due[f] for f, c in completions.items()}


def generator_lateness(
    arrivals: "Sequence[float]", due: "Sequence[float]", epoch: float
) -> "List[float]":
    """How late each frame was actually offered, in seconds (>= 0)."""
    return [max(0.0, a - epoch - d) for a, d in zip(arrivals, due)]


def slo_attainment(
    sojourns_ok: "Iterable[float]", sent: int, limit_s: float
) -> float:
    """Share of frames *sent* that completed correctly within the limit."""
    if sent <= 0:
        return 0.0
    return sum(1 for s in sojourns_ok if s <= limit_s) / sent


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Optional[int]" = None  # index into the log


class SpanLog:
    """In-memory harness spans; ``span()`` nests by call order."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: "List[Span]" = []
        self._stack: "List[int]" = []

    def span(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self, name)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)


class _OpenSpan:
    def __init__(self, log: SpanLog, name: str) -> None:
        self.log, self.name = log, name

    def __enter__(self) -> "_OpenSpan":
        log = self.log
        parent = log._stack[-1] if log._stack else None
        self.index = len(log.spans)
        log.spans.append(Span(self.name, log.clock(), float("nan"), parent))
        log._stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        self.log.spans[self.index].end = self.log.clock()
        self.log._stack.pop()


def covered(parent: Interval, children: "Iterable[Interval]") -> float:
    """Length of ``parent`` covered by the union of ``children``."""
    lo, hi = parent
    clipped = sorted(
        (max(lo, s), min(hi, e)) for s, e in children if min(hi, e) > max(lo, s)
    )
    total, cursor = 0.0, lo
    for s, e in clipped:
        if e > cursor:
            total += e - max(s, cursor)
            cursor = e
    return total


def self_time(parent: Interval, children: "Iterable[Interval]") -> float:
    """A span's duration minus the part its child spans cover."""
    return (parent[1] - parent[0]) - covered(parent, children)


# ---------------------------------------------------------------------------
# Per-frame attribution from tracer events
# ---------------------------------------------------------------------------
@dataclass
class StageObs:
    """One frame at one stage, reduced to its blocking (critical) task."""

    entry: float  # stage began serving the frame (after the split)
    send_end: float  # critical task's tile was on its way
    compute_start: float
    compute_end: float
    exit: float  # last result gathered (before the stitch)
    work: float  # compute seconds summed over all tasks
    send_bytes: int = 0
    recv_bytes: int = 0


@dataclass
class FrameObs:
    frame: int
    due: float
    arrival: float
    admitted: float
    completion: float
    stages: "List[StageObs]" = field(default_factory=list)


def stage_obs(
    entry: float,
    tasks: "Sequence[Tuple[Interval, Interval, Interval, int, int]]",
) -> StageObs:
    """Reduce a stage's per-task ``(send, compute, recv, nbytes_in,
    nbytes_out)`` spans to the task whose result arrived last."""
    if not tasks:
        raise ValueError("stage without tasks")
    critical = max(tasks, key=lambda t: (t[1][1], t[1][1] - t[1][0]))
    send, compute, _recv, _, _ = critical
    exit_ = max(max(t[2][1], t[1][1]) for t in tasks)
    return StageObs(
        entry=entry,
        send_end=max(entry, send[1]),
        compute_start=max(entry, send[1], compute[0]),
        compute_end=compute[1],
        exit=exit_,
        work=sum(t[1][1] - t[1][0] for t in tasks),
        send_bytes=sum(t[3] for t in tasks),
        recv_bytes=sum(t[4] for t in tasks),
    )


def frames_from_events(
    events: "Iterable[Tuple[str, int, int, str, float, float, int]]",
    timeline: "Dict[int, Tuple[float, float, float, float]]",
) -> "List[FrameObs]":
    """Build :class:`FrameObs` from ``(kind, frame, stage, device, start,
    end, nbytes)`` trace tuples and a per-frame ``(due, arrival,
    admitted, completion)`` timeline, all on one clock.  Frames missing
    from the timeline or from the trace are skipped (shed frames never
    enter a stage)."""
    per: "Dict[Tuple[int, int], Dict]" = {}
    for kind, frame, stage, device, start, end, nbytes in events:
        if kind not in ("enqueue", "send", "compute", "recv"):
            continue
        slot = per.setdefault((frame, stage), {"entry": None, "tasks": {}})
        if kind == "enqueue":
            slot["entry"] = end  # service start (== start on real backends)
        else:
            slot["tasks"].setdefault(device, {})[kind] = (start, end, nbytes)
    frames: "List[FrameObs]" = []
    for frame, (due, arrival, admitted, completion) in sorted(timeline.items()):
        stages = []
        index = 0
        while (frame, index) in per:
            slot = per[(frame, index)]
            tasks = [
                (
                    t["send"][:2], t["compute"][:2], t["recv"][:2],
                    t["send"][2], t["recv"][2],
                )
                for t in slot["tasks"].values()
                if {"send", "compute", "recv"} <= set(t)
            ]
            if slot["entry"] is None or not tasks:
                break
            stages.append(stage_obs(slot["entry"], tasks))
            index += 1
        if stages:
            frames.append(FrameObs(frame, due, arrival, admitted, completion, stages))
    return frames


#: Attribution rows, in path order; they telescope to the sojourn.
ROWS = (
    "gen_late", "admit_wait", "entry_wait", "send", "stage_wait",
    "compute", "recv", "handoff_wait", "stage_other",
)


def _stage_free_times(frames: "Sequence[FrameObs]") -> "Dict[Tuple[int, int], float]":
    """For every (frame, stage): when that stage finished the unit of
    work it served just before this frame's (its previous exit)."""
    free: "Dict[Tuple[int, int], float]" = {}
    n_stages = max((len(f.stages) for f in frames), default=0)
    for s in range(n_stages):
        served = sorted(
            (f.stages[s].entry, f.stages[s].exit, f.frame)
            for f in frames
            if len(f.stages) > s
        )
        prev_entry, prev_exit, last_exit = None, 0.0, None
        for entry, exit_, frame in served:
            if prev_entry is not None and entry > prev_entry:
                last_exit = prev_exit  # a new unit; batch members share one
            # The first unit found its stage idle: nothing to wait for.
            free[(frame, s)] = last_exit if last_exit is not None else float("-inf")
            prev_entry, prev_exit = entry, exit_
    return free


def attribute(frames: "Sequence[FrameObs]") -> "Dict[str, float]":
    """Mean seconds per frame in each row of :data:`ROWS`, plus
    ``sojourn`` (mean completion - due), ``work`` (compute summed over
    all tasks) and ``bottleneck`` (the stage with the largest mean
    critical compute).

    Each stage owns the frame from its entry to the next stage's entry
    (the completion, for the last): send, wait, compute and gather are
    its measured children, and its *self time* — stitch, hand-off,
    next split, dispatch — is divided into ``handoff_wait`` (the part
    spent waiting for the next stage to finish its previous unit) and
    ``stage_other`` (the rest).
    """
    if not frames:
        raise ValueError("no traced frames to attribute")
    free = _stage_free_times(frames)
    sums = {row: 0.0 for row in ROWS}
    sojourn = work = 0.0
    per_stage: "Dict[int, float]" = {}
    for f in frames:
        sojourn += f.completion - f.due
        sums["gen_late"] += f.arrival - f.due
        sums["admit_wait"] += f.admitted - f.arrival
        sums["entry_wait"] += f.stages[0].entry - f.admitted
        for s, st in enumerate(f.stages):
            last = s + 1 == len(f.stages)
            owner_end = f.completion if last else f.stages[s + 1].entry
            children = [
                (st.entry, st.send_end),
                (st.send_end, st.compute_start),
                (st.compute_start, st.compute_end),
                (st.compute_end, st.exit),
            ]
            sums["send"] += st.send_end - st.entry
            sums["stage_wait"] += st.compute_start - st.send_end
            sums["compute"] += st.compute_end - st.compute_start
            sums["recv"] += st.exit - st.compute_end
            own = self_time((st.entry, owner_end), children)
            handoff = 0.0
            if not last:
                handoff = min(own, max(0.0, free[(f.frame, s + 1)] - st.exit))
            sums["handoff_wait"] += handoff
            sums["stage_other"] += own - handoff
            work += st.work
            per_stage[s] = per_stage.get(s, 0.0) + (st.compute_end - st.compute_start)
    n = len(frames)
    rows = {row: total / n for row, total in sums.items()}
    rows["sojourn"] = sojourn / n
    rows["work"] = work / n
    rows["bottleneck"] = max(per_stage.values()) / n
    return rows


# ---------------------------------------------------------------------------
# --check: two sets of runs must agree
# ---------------------------------------------------------------------------
def compare_sets(
    first: "Dict[str, float]",
    second: "Dict[str, float]",
    bounds: "Dict[str, float]",
) -> "List[str]":
    """Names of metrics whose two values differ by more than the bound
    (a share of the first value)."""
    bad = []
    for name, bound in bounds.items():
        a, b = first.get(name), second.get(name)
        if a is None or b is None:
            if a is not b:
                bad.append(name)
            continue
        if abs(b - a) > bound * abs(a):
            bad.append(name)
    return bad
