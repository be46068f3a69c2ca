"""Tests for the APICO adaptive switcher."""

from __future__ import annotations

import pytest

from repro.adaptive.switcher import AdaptiveSwitcher, CandidatePlan, build_apico_switcher
from repro.adaptive.estimator import ArrivalRateTracker
from repro.cluster.device import Device, pi_cluster
from repro.core.plan import PipelinePlan, StagePlan
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.partition.regions import Region


def make_candidate(name, period, latency, mode="pipelined"):
    model = toy_chain(2, 0, input_hw=8)
    _, h, w = model.final_shape
    d1, d2 = Device(f"{name}-a", 1.0), Device(f"{name}-b", 1.0)
    plan = PipelinePlan(
        model.name,
        (
            StagePlan(0, 1, ((d1, Region.full(8, 8)),)),
            StagePlan(1, 2, ((d2, Region.full(h, w)),)),
        ),
        mode=mode,
    )
    return CandidatePlan(name, plan, period, latency)


@pytest.fixture
def candidates():
    # One-stage scheme: short latency, long period.
    one_stage = make_candidate("ONE", period=2.0, latency=2.0, mode="exclusive")
    # Pipeline: short period, longer latency.
    pipeline = make_candidate("PIPE", period=0.5, latency=3.0)
    return one_stage, pipeline


class TestChoose:
    def test_light_load_prefers_one_stage(self, candidates):
        switcher = AdaptiveSwitcher(candidates)
        assert switcher.choose(0.01).name == "ONE"

    def test_heavy_load_prefers_pipeline(self, candidates):
        switcher = AdaptiveSwitcher(candidates)
        assert switcher.choose(0.45).name == "PIPE"

    def test_crossover_exists(self, candidates):
        switcher = AdaptiveSwitcher(candidates)
        choices = [switcher.choose(r).name for r in (0.01, 0.1, 0.2, 0.3, 0.45)]
        assert choices[0] == "ONE" and choices[-1] == "PIPE"
        # Monotone: once it flips to PIPE it stays.
        flipped = False
        for name in choices:
            if name == "PIPE":
                flipped = True
            elif flipped:
                pytest.fail(f"non-monotone switch sequence {choices}")

    def test_beyond_one_stage_capacity_only_pipeline_stable(self, candidates):
        switcher = AdaptiveSwitcher(candidates)
        assert switcher.choose(1.0).name == "PIPE"  # 1/period(ONE) = 0.5 < 1


class TestOnArrival:
    def test_switches_under_ramping_load(self, candidates):
        tracker = ArrivalRateTracker(window_s=5.0, beta=0.9)
        switcher = AdaptiveSwitcher(candidates, tracker)
        # Sparse arrivals: stays one-stage.
        t = 0.0
        for _ in range(5):
            t += 30.0
            assert switcher.on_arrival(t).name == "ONE"
        # Burst at 2/s: must flip to the pipeline.
        for _ in range(100):
            t += 0.5
            active = switcher.on_arrival(t)
        assert active.name == "PIPE"

    def test_hysteresis_blocks_marginal_switch(self, candidates):
        tracker = ArrivalRateTracker(window_s=10.0, beta=1.0, initial_rate=0.01)
        switcher = AdaptiveSwitcher(candidates, tracker, hysteresis=0.99)
        # ~0.4/s keeps both plans stable (ONE: rho=0.8, PIPE: rho=0.2);
        # PIPE is better but not by 99%, so hysteresis pins ONE.
        t = 0.0
        for _ in range(100):
            t += 3.0
            switcher.on_arrival(t)
        assert switcher.choose(tracker.rate).name == "PIPE"  # would switch
        assert switcher.active.name == "ONE"  # but hysteresis held it

    def test_hysteresis_never_pins_saturated_plan(self, candidates):
        """Overload overrides hysteresis: a plan that cannot keep up is
        abandoned for the higher-capacity one."""
        tracker = ArrivalRateTracker(window_s=5.0, beta=1.0, initial_rate=0.01)
        switcher = AdaptiveSwitcher(candidates, tracker, hysteresis=0.99)
        t = 0.0
        for _ in range(100):
            t += 1.0  # 1/s: ONE saturated (capacity 0.5/s), PIPE stable
            switcher.on_arrival(t)
        assert switcher.active.name == "PIPE"

    def test_invalid_hysteresis_rejected(self, candidates):
        with pytest.raises(ValueError):
            AdaptiveSwitcher(candidates, hysteresis=-0.1)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveSwitcher(())


class TestBuildApico:
    def test_default_candidates_are_pico_and_ofl(self):
        model = toy_chain(4, 1, input_hw=32, in_channels=3)
        cluster = pi_cluster(4, 800)
        net = NetworkModel.from_mbps(50.0)
        switcher = build_apico_switcher(model, cluster, net)
        names = {c.name for c in switcher.candidates}
        assert names == {"PICO", "OFL"}
        pico = next(c for c in switcher.candidates if c.name == "PICO")
        ofl = next(c for c in switcher.candidates if c.name == "OFL")
        assert pico.period <= ofl.period + 1e-12
        assert ofl.period == pytest.approx(ofl.latency)
