"""Unit tests of the harness arithmetic on synthetic records.

Run with ``python -m pytest benchmarks/e2e``.  Nothing here starts a
process or imports the program.
"""

from __future__ import annotations

import statistics

import pytest

from . import metrics as M
from .reference import NOMINAL_S, Reference
from .workloads import EXACT_COUNTS, WORKLOADS, contract, idle


# -- percentiles ------------------------------------------------------------
def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert M.percentile(values, 0) == 1.0
    assert M.percentile(values, 100) == 4.0
    assert M.percentile(values, 50) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        M.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_needs_ten_samples_beyond(n, expected):
    assert M.tail_percentile(n) == expected


def test_window_rates_leave_the_pipeline_fill_outside():
    # 9 completions 0.1 s apart, window of 4: two windows, one left over.
    completions = [1.0 + 0.1 * i for i in range(9)]
    assert M.window_rates(completions, size=4) == pytest.approx([10.0, 10.0])
    # the time before the first completion (pipeline fill) is in no window
    later = [c + 3.0 for c in completions]
    assert M.window_rates(later, size=4) == pytest.approx([10.0, 10.0])
    assert M.window_rates(completions[:4], size=4) == []
    # a stall in one of three windows lowers that window, not the median
    stalled = completions[:5] + [c + 0.5 for c in completions[5:]] + [
        2.3 + 0.1 * i for i in range(1, 5)]
    rates = M.window_rates(stalled, size=4)
    assert rates == pytest.approx([10.0, 4 / 0.9, 10.0])
    assert statistics.median(rates) == pytest.approx(10.0)


# -- open loop ----------------------------------------------------------------
def test_sojourn_counts_from_due_time_not_from_stamped_arrival():
    due = [0.0, 0.1, 0.2]
    epoch = 50.0
    # The generator stalled: frame 1 was offered 80 ms late.  Its sojourn
    # still starts at the instant it was due.
    arrivals = [50.0, 50.18, 50.2]
    completions = {0: 50.03, 1: 50.21, 2: 50.26}
    sojourn = M.due_sojourns(completions, due, epoch)
    assert sojourn[0] == pytest.approx(0.03)
    assert sojourn[1] == pytest.approx(0.11)  # not 0.03 from the late stamp
    assert sojourn[2] == pytest.approx(0.06)
    late = M.generator_lateness(arrivals, due, epoch)
    assert late == pytest.approx([0.0, 0.08, 0.0])


def test_slo_attainment_is_a_share_of_frames_sent():
    # 4 sent: two in time, one late, one shed (absent) -> 0.5
    assert M.slo_attainment([0.05, 0.09, 0.2], sent=4, limit_s=0.1) == 0.5
    assert M.slo_attainment([], sent=0, limit_s=0.1) == 0.0


# -- accounting -----------------------------------------------------------------
def test_failed_share_counts_shed_wrong_failed_and_unaccounted():
    statuses = [(0, "done"), (1, "done"), (2, "shed"), (3, "failed"),
                (4, "done"), (4, "done"), (6, "bogus")]
    verified = {0: True, 1: False, 4: True}
    tally = M.tally_frames(8, statuses, verified)
    assert (tally.ok, tally.wrong, tally.shed, tally.failed) == (1, 1, 1, 1)
    # frame 4 has two records, 5 has none, 6 an unknown status, 7 none
    assert tally.unaccounted == 4
    assert tally.missed == 7  # failed_share = 7 / 8
    assert tally.ok + tally.missed == tally.submitted


def test_done_frame_without_verdict_is_wrong():
    tally = M.tally_frames(1, [(0, "done")], {})
    assert tally.wrong == 1 and tally.ok == 0


def test_tally_add_accumulates():
    total = M.Tally()
    total.add(M.tally_frames(2, [(0, "done"), (1, "shed")], {0: True}))
    total.add(M.tally_frames(1, [(0, "done")], {0: True}))
    assert (total.submitted, total.ok, total.shed) == (3, 2, 1)


# -- spans --------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    parent = (0.0, 10.0)
    children = [(1.0, 3.0), (2.0, 5.0), (7.0, 12.0), (-1.0, 0.5)]
    # union inside the parent: [0,0.5] + [1,5] + [7,10] = 7.5
    assert M.covered(parent, children) == pytest.approx(7.5)
    assert M.self_time(parent, children) == pytest.approx(2.5)
    assert M.self_time(parent, []) == 10.0


def test_span_log_nests_by_call_order():
    ticks = iter(range(100))
    log = M.SpanLog(lambda: float(next(ticks)))
    with log.span("outer"):
        with log.span("inner"):
            pass
    with log.span("outer"):
        pass
    outer, inner, again = log.spans
    assert inner.parent == 0 and outer.parent is None
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
    assert log.total("outer") == (3.0 - 0.0) + (again.end - again.start)


# -- attribution ------------------------------------------------------------------
def _stage(entry, send, wait, compute, recv, work=None):
    send_end = entry + send
    start = send_end + wait
    end = start + compute
    return M.StageObs(entry, send_end, start, end, end + recv,
                      work if work is not None else compute)


def test_rows_sum_to_sojourn_and_split_stage_self_time():
    # Two frames through two stages.  Frame 1 finishes stage 0 at t=16 but
    # stage 1 serves frame 0 until t=20: 4 of its 5 self-time units are
    # hand-off wait, 1 is stage machinery.
    f0 = M.FrameObs(0, due=0.0, arrival=0.5, admitted=1.0, completion=21.0,
                    stages=[_stage(2.0, 1, 1, 5, 0), _stage(10.0, 1, 0, 9, 0)])
    f1 = M.FrameObs(1, due=1.0, arrival=1.0, admitted=3.0, completion=33.0,
                    stages=[_stage(9.0, 1, 1, 5, 0), _stage(21.0, 1, 0, 10, 0)])
    rows = M.attribute([f0, f1])
    assert rows["sojourn"] == pytest.approx((21.0 + 32.0) / 2)
    assert sum(rows[r] for r in M.ROWS) == pytest.approx(rows["sojourn"])
    assert rows["gen_late"] == pytest.approx(0.25)
    assert rows["admit_wait"] == pytest.approx((0.5 + 2.0) / 2)
    assert rows["entry_wait"] == pytest.approx((1.0 + 6.0) / 2)
    assert rows["compute"] == pytest.approx((14 + 15) / 2)
    # frame 0: stage0 self = 10-9 = 1 (no wait: stage 1 idle), last = 1
    # frame 1: stage0 self = 21-16 = 5, stage 1 busy until 20 -> 4 wait
    assert rows["handoff_wait"] == pytest.approx(4.0 / 2)
    assert rows["stage_other"] == pytest.approx((1 + 1 + 1 + 1) / 2)
    assert rows["bottleneck"] == pytest.approx((9 + 10) / 2)


def test_frames_from_events_picks_last_arriving_task_and_skips_shed():
    events = [
        ("enqueue", 0, 0, "", 1.0, 1.0, 0),
        ("send", 0, 0, "a", 1.0, 1.1, 100), ("compute", 0, 0, "a", 1.1, 1.6, 0),
        ("recv", 0, 0, "a", 1.6, 1.6, 40),
        ("send", 0, 0, "b", 1.1, 1.2, 60), ("compute", 0, 0, "b", 1.3, 2.0, 0),
        ("recv", 0, 0, "b", 2.0, 2.0, 50),
        ("replan", 0, 0, "a", 2.0, 2.0, 0),  # recovery kinds are ignored
        ("enqueue", 0, 1, "", 2.5, 2.5, 0),
        ("send", 0, 1, "c", 2.5, 2.6, 90), ("compute", 0, 1, "c", 2.6, 3.0, 0),
        ("recv", 0, 1, "c", 3.0, 3.0, 10),
    ]
    timeline = {0: (0.0, 0.2, 0.3, 3.2), 7: (0.0, 0.0, 0.0, 0.0)}  # 7 was shed
    (frame,) = M.frames_from_events(events, timeline)
    s0, s1 = frame.stages
    assert (s0.send_end, s0.compute_start, s0.compute_end, s0.exit) == (1.2, 1.3, 2.0, 2.0)
    assert s0.work == pytest.approx(0.5 + 0.7)
    assert (s0.send_bytes, s0.recv_bytes) == (160, 90)
    assert s1.entry == 2.5
    rows = M.attribute([frame])
    assert sum(rows[r] for r in M.ROWS) == pytest.approx(3.2)


def test_batch_members_share_one_stage_unit():
    # Frames 1 and 2 ride one batch (same entry): both waited for the
    # unit before them, neither for the other.
    def frame(i, entry0, entry1, done):
        return M.FrameObs(i, 0.0, 0.0, 0.0, done,
                          stages=[_stage(entry0, 0, 0, 2, 0), _stage(entry1, 0, 0, 4, 0)])
    frames = [frame(0, 0.0, 2.0, 6.0), frame(1, 2.0, 6.0, 10.0), frame(2, 2.0, 6.0, 10.0)]
    free = M._stage_free_times(frames)
    assert free[(1, 1)] == free[(2, 1)] == 6.0
    rows = M.attribute(frames)
    assert rows["handoff_wait"] == pytest.approx((0 + 2 + 2) / 3)


# -- host-speed reference -----------------------------------------------------------
def test_speed_is_nominal_over_the_mean_sample_inside_the_interval(tmp_path):
    path = tmp_path / "reference.txt"
    lines = [f"{at!r} {cpu!r}\n" for at, cpu in
             [(0.0, 9.0)] + [(1.0 + 0.1 * i, 2 * NOMINAL_S) for i in range(5)]
             + [(1.5, 4 * NOMINAL_S), (3.0, 9.0)]]
    path.write_text("".join(lines) + "3.05 0.00")  # a torn last line is skipped
    ref = Reference(str(path))
    assert len(ref.samples()) == 8
    assert M.samples_between(ref.samples(), 1.0, 1.4) == [2 * NOMINAL_S] * 5
    # a host on which the kernel takes twice the nominal time runs at half speed
    assert ref.speed(1.0, 1.4) == pytest.approx(0.5)
    # the mean, not the median: a burst inside the interval slowed the work too
    assert ref.speed(1.0, 1.5) == pytest.approx(6 / 14)
    # an interval too short for MIN_SAMPLES is widened on both sides
    assert ref.speed(1.2, 1.25) == pytest.approx(0.5)


def test_speed_without_samples_nearby_is_an_error(tmp_path):
    path = tmp_path / "reference.txt"
    path.write_text("0.0 0.002\n")
    with pytest.raises(RuntimeError, match="sampler"):
        Reference(str(path)).speed(-50.0, -49.0)


# -- --check ---------------------------------------------------------------------
def test_compare_sets_uses_relative_bounds():
    first = {"frames_per_s": 100.0, "setup_s": 2.0}
    assert M.compare_sets(first, {"frames_per_s": 91.0, "setup_s": 2.4},
                          {"frames_per_s": 0.10, "setup_s": 0.25}) == []
    assert M.compare_sets(first, {"frames_per_s": 89.0, "setup_s": 2.6},
                          {"frames_per_s": 0.10, "setup_s": 0.25}) == [
        "frames_per_s", "setup_s"]
    assert M.compare_sets(first, {"setup_s": 2.0}, {"frames_per_s": 0.1}) == [
        "frames_per_s"]


# -- the contract file -------------------------------------------------------------
def test_benchmark_json_names_what_the_harness_runs():
    spec = contract()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec["per_layer"]]
    assert set(EXACT_COUNTS) <= set(layers)
    # every layer metric is exercised by at least one kind of workload
    assert not [n for n in layers if idle(n, True) and idle(n, False)]
    assert idle("serve.virtual_shed", False) and not idle("serve.virtual_shed", True)
    assert idle("nn.compute_ms", True) and not idle("runtime.open_s", False)
    names = [m["name"] for m in spec["end_to_end"]] + layers
    assert len(names) == len(set(names))
