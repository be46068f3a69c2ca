"""The bench spine (``repro.bench.common``) and the harnesses on it: the
one check, the one envelope over every committed BENCH file, the one
interleaved protocol, and tiny runs of the engine / exact / sim benches."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench import common
from repro.bench.engine import BENCH as ENGINE, DEFAULT_MODELS
from repro.bench.exact import BENCH as EXACT
from repro.bench.sim import BENCH as SIM

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_ENGINE = ROOT / "BENCH_engine.json"
BENCH_EXACT = ROOT / "BENCH_exact.json"
BENCH_SIM = ROOT / "BENCH_sim.json"


def test_run_suite_smoke():
    """A quick run measures the resnet34 memory row — each worker
    resident only in its own layers, each once, as its plan predicts —
    and carries the committed parent
    comparison over, which its gate reads."""
    committed = json.loads(BENCH_ENGINE.read_text())
    report = common.run_report(
        ENGINE, quick=True, committed=committed, models=(("vgg16", 32),),
        repeats=1, seed=0,
    )
    assert report["bench"] == "engine"
    assert report["repeats"] == 1
    assert "baseline_note" in report
    for key in ("python", "numpy", "platform", "threads"):
        assert key in report["meta"]
    (entry,) = report["results"]
    assert entry["model"] == "vgg16"
    assert entry["input_hw"] == 32
    for key in (
        "ops_before_s",
        "ops_after_s",
        "features_before_s",
        "features_after_s",
        "end_to_end_before_s",
        "end_to_end_after_s",
        "speedup",
        "features_speedup",
    ):
        assert key in entry
    assert entry["end_to_end_before_s"] > 0
    assert entry["end_to_end_after_s"] > 0
    assert entry["speedup"] > 0
    assert "conv" in entry["ops_before_s"]
    assert entry["ops_before_s"]["conv"] > 0
    assert report["gates"] == {
        "fast_matches_reference": True,
        "memory_outputs_exact": True,
        "memory_workers_hold_only_their_layers": True,
        "memory_plan_matches_held": True,
        "memory_coordinator_holds_only_the_backbone": True,
        "memory_last_stage_private_below_parent": True,
    }
    (memory,) = report["memory"]
    assert memory["model"] == "resnet34" and memory["exact"]
    assert [w["stage"] for w in memory["workers"]] == [0, 1, 2, 3]
    for worker in memory["workers"]:
        assert 0 < worker["uss_mb"] <= worker["pss_mb"] <= worker["vm_hwm_mb"]
        assert worker["shmem_open_mb"] < 1.0
        assert abs(worker["shmem_mb"] - worker["program_weight_mb"]) <= 1.0
        assert abs(worker["plan_weight_mb"] - worker["program_weight_mb"]) <= 1.0
    assert abs(
        memory["coordinator"]["shmem_mb"] - memory["backbone_shared_mb"]
    ) <= 1.0
    assert report["memory_before_after"] == committed["memory_before_after"]
    assert report["memory_fold_before_after"] == committed["memory_fold_before_after"]
    # The whole report must round-trip through JSON (what main() writes).
    assert json.loads(json.dumps(report)) == report


def test_default_models_are_paper_models():
    names = [name for name, _ in DEFAULT_MODELS]
    assert names == ["vgg16", "resnet34", "inception_v3"]


def test_exact_gap_quick_suite_smoke():
    """The optimality-gap harness on its CI subset: a tiny model on 2-3
    devices, homogeneous gap exactly zero, JSON-serialisable report."""
    report = common.run_report(EXACT, quick=True)
    assert report["bench"] == "exact"
    assert report["quick"] is True
    cases = {r["case"]: r for r in report["results"]}
    assert set(cases) == {"toy/hom2", "toy/het3"}
    hom = cases["toy/hom2"]
    assert hom["homogeneous"] and hom["gap_pct"] == 0.0
    het = cases["toy/het3"]
    assert het["exact_period_s"] <= het["greedy_period_s"]
    assert het["gap_pct"] >= 0.0
    assert report["pass"] is True
    assert json.loads(json.dumps(report)) == report


def test_exact_gap_committed_report_reproduces_quick():
    """The quick subset of the committed BENCH_exact.json must
    reproduce exactly (analytic, deterministic numbers)."""
    assert common.check_file(EXACT, str(BENCH_EXACT), quick=True) == []


@pytest.mark.slow
def test_exact_gap_committed_report_reproduces_full_zoo():
    """Full-zoo gap sweep: every committed cell — all four models x all
    four mixes — reproduces bit-for-bit."""
    assert common.check_file(EXACT, str(BENCH_EXACT)) == []


def test_sim_committed_report_reproduces_quick(tmp_path):
    """Every host-independent field of the committed BENCH_sim.json —
    counts, simulated makespans, the flash-crowd recovery sequence, the
    legacy-adapter digests, the gates — reproduces on the quick stream;
    a drifted count or a wrong reference digest is reported."""
    assert common.check_file(SIM, str(BENCH_SIM), quick=True) == []

    report = json.loads(BENCH_SIM.read_text())
    report["flash_crowd"]["shed"] += 1
    report["bit_exact"]["reference"]["folded"] = "0" * 64
    drifted = tmp_path / "BENCH_sim.json"
    drifted.write_text(json.dumps(report))
    errors = common.check_file(SIM, str(drifted), quick=True)
    assert sorted(e.split(":")[0] for e in errors) == [
        "bit_exact.folded", "flash_crowd.shed",
        "gates.one_link_bit_exact_folded",
    ]


# -- the spine itself ---------------------------------------------------------

SECTIONS = (
    common.Section("config"),
    common.Section("results", key=("case",)),
    common.Section("totals", same_mode=True),
)
TIMINGS = ("elapsed_s",)


def _synthetic(quick=False):
    cases = ("a",) if quick else ("a", "b")
    return {
        "bench": "synthetic", "quick": quick, "meta": {},
        "config": {"model": "toy", "sizes": [1, 2]},
        "results": [
            {"case": c, "period": 0.25, "elapsed_s": 1.0} for c in cases
        ],
        "totals": {"frames": 8 if quick else 64, "elapsed_s": 2.0},
        "host_only": {"cores": 2},
        "gates": {"accounted": True}, "pass": True,
    }


class TestCheckReport:
    def check(self, committed, fresh):
        return common.check_report(committed, fresh, SECTIONS, TIMINGS)

    def test_identical_reports_reproduce(self):
        assert self.check(_synthetic(), _synthetic()) == []

    def test_drifted_deterministic_field_is_named(self):
        fresh = _synthetic()
        fresh["results"][1]["period"] = 0.5
        fresh["config"]["sizes"][1] = 3
        fresh["totals"]["frames"] = 65
        assert self.check(_synthetic(), fresh) == [
            "config.sizes[1]: committed 2 != fresh 3",
            "results[b].period: committed 0.25 != fresh 0.5",
            "totals.frames: committed 64 != fresh 65",
        ]

    def test_drifted_timing_and_undeclared_section_are_ignored(self):
        fresh = _synthetic()
        fresh["results"][0]["elapsed_s"] = 9.0
        fresh["totals"]["elapsed_s"] = 9.0
        fresh["host_only"]["cores"] = 64
        fresh["meta"] = {"platform": "elsewhere"}
        assert self.check(_synthetic(), fresh) == []

    def test_failing_fresh_gate_fails_the_check(self):
        fresh = _synthetic()
        fresh["gates"]["accounted"] = False
        assert self.check(_synthetic(), fresh) == [
            "gates.accounted: fails on the fresh run"
        ]

    def test_case_missing_from_a_quick_run_is_not_an_error(self):
        # ... nor is a size-dependent section; the same hole in a
        # same-mode run is.
        assert self.check(_synthetic(), _synthetic(quick=True)) == []
        fresh = _synthetic()
        del fresh["results"][1]
        assert self.check(_synthetic(), fresh) == [
            "results[b]: missing from the fresh run"
        ]


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name
)
def test_committed_reports_share_the_one_envelope(path):
    report = json.loads(path.read_text())
    assert list(report)[:3] == ["bench", "quick", "meta"]
    assert list(report)[-2:] == ["gates", "pass"]
    assert path.name == f"BENCH_{report['bench']}.json"
    bench = common.load(report["bench"])  # raises unless registered
    assert bench.name == report["bench"]
    assert report["quick"] is False
    assert set(report["meta"]) == {"python", "numpy", "platform", "threads"}
    assert report["gates"] and report["pass"] is all(report["gates"].values())
    assert report["pass"] is True
    for section in bench.deterministic:
        assert section.name in report


@pytest.mark.parametrize("name", ["serve", "fleet"])
def test_timing_only_benches_build_no_weights(name, monkeypatch):
    """``SimTransport(compute=False)`` never reads a weight; drawing
    vgg16's for every server was most of ``make bench-check``."""

    def boom(*args, **kwargs):
        raise AssertionError(f"bench.{name} built weights it never reads")

    monkeypatch.setattr("repro.nn.executor.init_weights", boom)
    report = common.run_report(common.load(name), quick=True)
    slow_host_only = "replay_frames_per_s_ge_10000"  # a wall-clock floor
    assert all(ok for gate, ok in report["gates"].items() if gate != slow_host_only)
    if name == "serve":
        assert [r["input_hw"] for r in report["replay"]] == [64, 224]


def test_every_registered_bench_has_a_committed_report():
    names = {p.name for p in ROOT.glob("BENCH_*.json")}
    assert names == {f"BENCH_{name}.json" for name in common.BENCHES}


def test_interleaved_medians_alternates():
    calls = []
    medians = common.interleaved_medians(
        [lambda: calls.append("a"), lambda: calls.append("b")], repeats=3
    )
    assert calls == ["a", "b"] * 3  # never a a a b b b
    assert len(medians) == 2 and all(m >= 0.0 for m in medians)
    assert common.interleaved([lambda: 1, lambda: 2], 2) == [[1, 1], [2, 2]]
    with pytest.raises(ValueError):
        common.interleaved_medians([lambda: None], repeats=0)
