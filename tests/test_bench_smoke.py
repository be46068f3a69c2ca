"""Smoke test for the engine benchmark harness: a tiny configuration
must produce a complete, JSON-serialisable report."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.engine import DEFAULT_MODELS, run_suite
from repro.bench.exact import check_report
from repro.bench.exact import run_suite as run_exact_suite
from repro.bench.sim import check_report as check_sim_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_EXACT = ROOT / "BENCH_exact.json"
BENCH_SIM = ROOT / "BENCH_sim.json"


def test_run_suite_smoke():
    report = run_suite(models=(("vgg16", 32),), repeats=1, seed=0)
    assert report["benchmark"] == "engine_fast_path"
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
    # The whole report must round-trip through JSON (what main() writes).
    assert json.loads(json.dumps(report)) == report


def test_default_models_are_paper_models():
    names = [name for name, _ in DEFAULT_MODELS]
    assert names == ["vgg16", "resnet34", "inception_v3"]


def test_exact_gap_quick_suite_smoke():
    """The optimality-gap harness on its CI subset: a tiny model on 2-3
    devices, homogeneous gap exactly zero, JSON-serialisable report."""
    report = run_exact_suite(quick=True)
    assert report["benchmark"] == "exact_planner_gap"
    assert report["quick"] is True
    cases = {r["case"]: r for r in report["results"]}
    assert set(cases) == {"toy/hom2", "toy/het3"}
    hom = cases["toy/hom2"]
    assert hom["homogeneous"] and hom["gap_pct"] == 0.0
    het = cases["toy/het3"]
    assert het["exact_period_s"] <= het["greedy_period_s"]
    assert het["gap_pct"] >= 0.0
    assert json.loads(json.dumps(report)) == report


def test_exact_gap_committed_report_reproduces_quick():
    """The quick subset of the committed BENCH_exact.json must
    reproduce exactly (analytic, deterministic numbers)."""
    assert check_report(str(BENCH_EXACT), quick=True) == []


@pytest.mark.slow
def test_exact_gap_committed_report_reproduces_full_zoo():
    """Full-zoo gap sweep: every committed cell — all four models x all
    four mixes — reproduces bit-for-bit."""
    assert check_report(str(BENCH_EXACT)) == []


def test_sim_committed_report_reproduces_quick(tmp_path):
    """Every host-independent field of the committed BENCH_sim.json —
    counts, simulated makespans, the flash-crowd recovery sequence, the
    legacy-adapter digests, the gates — reproduces on the quick stream;
    a drifted count or a wrong reference digest is reported."""
    assert check_sim_report(str(BENCH_SIM), quick=True) == []

    report = json.loads(BENCH_SIM.read_text())
    report["flash_crowd"]["shed"] += 1
    report["bit_exact"]["reference"]["folded"] = "0" * 64
    drifted = tmp_path / "BENCH_sim.json"
    drifted.write_text(json.dumps(report))
    errors = check_sim_report(str(drifted), quick=True)
    assert sorted(e.split(":")[0] for e in errors) == [
        "bit_exact.folded", "flash_crowd.shed",
        "gates.one_link_bit_exact_folded",
    ]
