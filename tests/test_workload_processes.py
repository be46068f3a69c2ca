"""Tests for the lazy arrival processes and the ``get_arrivals`` registry."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.workload import (
    ArrivalProcess,
    CompositeProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    PoissonProcess,
    SaturationProcess,
    TraceReplayProcess,
    UniformProcess,
    available_arrivals,
    day_night_process,
    get_arrivals,
    poisson_arrivals,
)


class TestPoissonProcess:
    def test_matches_legacy_list_draw_for_draw(self):
        legacy = poisson_arrivals(2.0, 30.0, np.random.default_rng(7))
        process = PoissonProcess(2.0, horizon_s=30.0)
        streamed = list(process.times(np.random.default_rng(7)))
        assert streamed == legacy

    def test_default_seed_is_deterministic(self):
        process = PoissonProcess(1.0, horizon_s=20.0)
        assert list(process) == list(process)
        assert process.sample() == list(process.times())

    def test_count_bound(self):
        process = PoissonProcess(5.0, n_tasks=17)
        times = process.sample()
        assert len(times) == 17
        assert times == sorted(times)

    def test_needs_a_bound(self):
        with pytest.raises(ValueError):
            PoissonProcess(1.0)


class TestLaziness:
    def test_billion_task_process_streams_in_constant_memory(self):
        # Materialising 10^9 floats would need gigabytes; taking the
        # first few from the iterator must not.
        process = PoissonProcess(1000.0, n_tasks=10**9)
        head = list(itertools.islice(process.times(), 5))
        assert len(head) == 5
        assert head == sorted(head)

    def test_times_returns_an_iterator_not_a_list(self):
        process = DiurnalProcess(1.0, 5.0, period_s=60.0, horizon_s=60.0)
        stream = process.times()
        assert iter(stream) is stream


class TestEnvelopes:
    def test_flash_crowd_rate_shape(self):
        crowd = FlashCrowdProcess(
            base_rate=2.0, peak_rate=20.0, t_start=100.0,
            ramp_s=10.0, hold_s=50.0, decay_s=10.0, horizon_s=300.0,
        )
        assert crowd.rate_at(-1.0) == 0.0
        assert crowd.rate_at(50.0) == pytest.approx(2.0)
        assert crowd.rate_at(105.0) == pytest.approx(11.0)  # mid-ramp
        assert crowd.rate_at(130.0) == pytest.approx(20.0)  # hold
        assert crowd.rate_at(165.0) == pytest.approx(11.0)  # mid-decay
        assert crowd.rate_at(250.0) == pytest.approx(2.0)   # back to base
        assert crowd.rate_at(300.0) == 0.0

    def test_flash_crowd_empirical_burst(self):
        crowd = FlashCrowdProcess(
            base_rate=2.0, peak_rate=40.0, t_start=100.0,
            ramp_s=5.0, hold_s=60.0, decay_s=5.0, horizon_s=300.0,
        )
        times = crowd.sample(np.random.default_rng(3))
        before = sum(1 for t in times if t < 100.0)
        during = sum(1 for t in times if 105.0 <= t < 165.0)
        # ~200 baseline arrivals in [0,100) vs ~2400 during the hold.
        assert during / 60.0 > 5 * (before / 100.0)
        assert times == sorted(times)

    def test_flash_crowd_default_horizon_ends_after_decay(self):
        crowd = FlashCrowdProcess(1.0, 10.0, 30.0, 5.0, 20.0, 10.0)
        assert crowd.horizon_s == pytest.approx(65.0)

    def test_diurnal_trough_and_peak(self):
        diurnal = DiurnalProcess(
            base_rate=1.0, peak_rate=9.0, period_s=86400.0,
            horizon_s=86400.0,
        )
        assert diurnal.rate_at(0.0) == pytest.approx(1.0)
        assert diurnal.rate_at(43200.0) == pytest.approx(9.0)
        # Envelope is always within [base, peak].
        for t in range(0, 86400, 3600):
            assert 1.0 - 1e-9 <= diurnal.rate_at(float(t)) <= 9.0 + 1e-9

    def test_thinned_sampling_is_seed_deterministic(self):
        crowd = FlashCrowdProcess(2.0, 20.0, 10.0, 5.0, 10.0, 5.0)
        a = crowd.sample(np.random.default_rng(11))
        b = crowd.sample(np.random.default_rng(11))
        c = crowd.sample(np.random.default_rng(12))
        assert a == b
        assert a != c

    def test_day_night_matches_phased_trace(self):
        process = day_night_process(1.0, 5.0, 30.0, cycles=2)
        times = process.sample(np.random.default_rng(0))
        assert times == sorted(times)
        # the trace *is* the process: same draws streamed, materialised,
        # by name, and under the default seed-0 generator
        assert isinstance(process, ArrivalProcess) and process.horizon_s == 120.0
        assert list(process.times(np.random.default_rng(0))) == times
        assert list(process) == process.sample() == times
        by_name = get_arrivals(
            "day-night", light_rate=1.0, heavy_rate=5.0,
            phase_duration_s=30.0, cycles=2,
        )
        assert by_name == process and by_name.sample() == times
        assert process.rate_at(10.0) == pytest.approx(1.0)
        assert process.rate_at(40.0) == pytest.approx(5.0)


class TestTraceReplay:
    def test_file_source_with_comments(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# recorded submits\n0.5\n\n1.25\n3.0\n")
        process = TraceReplayProcess(str(path))
        assert process.sample() == [0.5, 1.25, 3.0]

    def test_scale_offset_and_count(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1.0\n2.0\n3.0\n4.0\n")
        process = TraceReplayProcess(
            str(path), time_scale=0.5, time_offset=10.0, n_tasks=3
        )
        assert process.sample() == [10.5, 11.0, 11.5]

    def test_in_memory_sequence(self):
        process = TraceReplayProcess([0.0, 0.0, 2.5])
        assert process.sample() == [0.0, 0.0, 2.5]

    def test_backwards_time_names_the_entry(self):
        process = TraceReplayProcess([1.0, 2.0, 1.5])
        with pytest.raises(ValueError, match="entry 2"):
            process.sample()

    def test_rate_is_zero_by_convention(self):
        assert TraceReplayProcess([1.0]).rate_at(1.0) == 0.0


class TestSimpleProcesses:
    def test_uniform_spacing(self):
        times = UniformProcess(2.0, horizon_s=3.0).sample()
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])

    def test_saturation_all_at_zero(self):
        process = SaturationProcess(5)
        assert process.sample() == [0.0] * 5
        assert process.rate_at(0.0) == math.inf

    def test_composite_merges_sorted(self):
        merged = CompositeProcess(
            [UniformProcess(1.0, 5.0), UniformProcess(2.0, 5.0)]
        ).sample()
        assert merged == sorted(merged)
        assert len(merged) == 4 + 9
        assert CompositeProcess(
            [UniformProcess(1.0, 5.0), UniformProcess(2.0, 5.0)]
        ).rate_at(1.0) == pytest.approx(3.0)


class TestRegistry:
    def test_available_covers_the_processes(self):
        names = available_arrivals()
        for name in (
            "poisson", "uniform", "saturation", "day-night",
            "diurnal", "flash-crowd", "trace-replay", "composite",
        ):
            assert name in names
        assert names == tuple(sorted(names))

    def test_get_arrivals_builds_instances(self):
        process = get_arrivals("poisson", rate=2.0, horizon_s=10.0)
        assert isinstance(process, PoissonProcess)
        crowd = get_arrivals(
            "flash-crowd", base_rate=1.0, peak_rate=5.0,
            t_start=10.0, ramp_s=2.0, hold_s=5.0, decay_s=2.0,
        )
        assert isinstance(crowd, FlashCrowdProcess)

    def test_name_normalisation(self):
        process = get_arrivals("Flash_Crowd", base_rate=1.0, peak_rate=5.0,
                               t_start=1.0, ramp_s=1.0, hold_s=1.0,
                               decay_s=1.0)
        assert isinstance(process, FlashCrowdProcess)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="poisson"):
            get_arrivals("zipf")

    def test_everything_is_an_arrival_process(self):
        assert issubclass(PoissonProcess, ArrivalProcess)
        assert issubclass(TraceReplayProcess, ArrivalProcess)
