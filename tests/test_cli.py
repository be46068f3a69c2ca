"""Tests for the command-line interface (in-process, no subprocesses)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.serialize import load_plan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestModels:
    def test_lists_zoo(self, capsys):
        code, out = run_cli(capsys, "models")
        assert code == 0
        for name in ("vgg16", "yolov2", "resnet34", "inception_v3"):
            assert name in out


class TestDescribe:
    def test_prints_layers(self, capsys):
        code, out = run_cli(capsys, "describe", "vgg16")
        assert code == 0
        assert "conv1_1" in out and "fc8" in out

    def test_unknown_model(self, capsys):
        with pytest.raises(KeyError):
            run_cli(capsys, "describe", "alexnet")


class TestPlan:
    def test_plan_toy(self, capsys):
        code, out = run_cli(
            capsys, "plan", "fig13_toy", "--devices", "4", "--freq", "800"
        )
        assert code == 0
        assert "period" in out and "pipelined" in out

    def test_plan_heterogeneous_and_save(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        code, out = run_cli(
            capsys, "plan", "fig13_toy", "--freqs", "1200,800,600",
            "--save", str(path),
        )
        assert code == 0
        plan = load_plan(str(path))
        assert plan.mode == "pipelined"
        names = {d.name for s in plan.stages for d in s.devices}
        assert any("1200" in n for n in names)


class TestCompare:
    def test_all_schemes_listed(self, capsys):
        code, out = run_cli(
            capsys, "compare", "fig13_toy", "--devices", "4", "--freq", "800"
        )
        assert code == 0
        for scheme in ("LW", "EFL", "OFL", "PICO"):
            assert scheme in out


class TestSim:
    def test_one_link_default(self, capsys):
        code, out = run_cli(
            capsys, "sim", "fig13_toy", "--devices", "4", "--freq", "800",
            "--horizon", "20",
        )
        assert code == 0
        assert "topology wlan" in out
        assert "served:" in out
        assert "plan usage:" in out

    def test_star_with_churn_prints_recovery(self, capsys):
        code, out = run_cli(
            capsys, "sim", "fig13_toy", "--devices", "4", "--freq", "800",
            "--topology", "star", "--arrivals", "flash-crowd",
            "--horizon", "20", "--rate", "0.5",
            "--churn", "pi2:5:10",
        )
        assert code == 0
        assert "topology star" in out
        assert "device_dead" in out
        assert "device_join" in out
        assert "replan" in out

    def test_trace_replay_from_file(self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# recorded\n0.5\n1.0\n2.5\n")
        code, out = run_cli(
            capsys, "sim", "fig13_toy", "--devices", "4", "--freq", "800",
            "--arrivals", "trace-replay", "--trace", str(path),
        )
        assert code == 0
        assert "3 done" in out

    def test_trace_replay_requires_file(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys, "sim", "fig13_toy", "--devices", "4",
                "--arrivals", "trace-replay",
            )

    def test_stats_mode_constant_memory(self, capsys):
        code, out = run_cli(
            capsys, "sim", "fig13_toy", "--devices", "4", "--freq", "800",
            "--horizon", "10", "--stats",
        )
        assert code == 0
        assert "constant memory" in out

    def test_contended_rejected_off_one_link(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys, "sim", "fig13_toy", "--devices", "4",
                "--topology", "mesh", "--contended",
            )

    def test_unknown_arrivals_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys, "sim", "fig13_toy", "--devices", "4",
                "--arrivals", "zipf",
            )


class TestTimeline:
    def test_draws_stages(self, capsys):
        code, out = run_cli(
            capsys, "timeline", "fig13_toy", "--devices", "4", "--freq", "800",
            "--tasks", "3",
        )
        assert code == 0
        assert "stage 0" in out


class TestServe:
    def test_serve_reports_stats(self, capsys):
        code, out = run_cli(
            capsys, "serve", "fig13_toy", "--devices", "4", "--freq", "800",
            "--load", "0.6", "--frames", "16", "--no-compute",
        )
        assert code == 0
        assert "served:" in out

    def test_max_batch_prints_batch_stats(self, capsys):
        code, out = run_cli(
            capsys, "serve", "fig13_toy", "--devices", "4", "--freq", "800",
            "--load", "0.9", "--frames", "24", "--no-compute",
            "--max-batch", "4", "--batch-timeout", "0.01",
            "--policy", "block",
        )
        assert code == 0
        assert "frames/batch" in out

    def test_adaptive_on_the_wall_clock(self, capsys):
        code, out = run_cli(
            capsys, "serve", "fig13_toy", "--devices", "4", "--freq", "800",
            "--load", "0.9", "--frames", "6", "--backend", "inproc",
            "--adaptive",
        )
        assert code == 0
        usage = out.split("plan usage: ")[1].split("\n")[0]
        counts = [int(item.split(":")[1]) for item in usage.split(", ")]
        done = int(out.split("served: ")[1].split(" done")[0])
        assert counts and sum(counts) == done == 6

    def test_max_batch_one_omits_batch_stats(self, capsys):
        code, out = run_cli(
            capsys, "serve", "fig13_toy", "--devices", "4", "--freq", "800",
            "--load", "0.5", "--frames", "8", "--no-compute",
        )
        assert code == 0
        assert "frames/batch" not in out


class TestSchemeIop:
    def test_plan_iop_saves_channel_groups(self, capsys, tmp_path):
        path = tmp_path / "iop.json"
        code, out = run_cli(
            capsys, "plan", "fig13_toy", "--freqs", "1200,1000,800,600",
            "--scheme", "iop", "--save", str(path),
        )
        assert code == 0
        assert "exclusive" in out
        assert "channel-parallel" in out
        plan = load_plan(str(path))
        assert any(s.channel_groups is not None for s in plan.stages)
        for stage in plan.stages:
            if stage.channel_groups is None:
                continue
            cursor = 0
            for lo, hi in stage.channel_groups:
                assert lo == cursor
                cursor = hi

    def test_sim_iop(self, capsys):
        code, out = run_cli(
            capsys, "sim", "fig13_toy", "--freqs", "1200,800,600",
            "--scheme", "iop", "--horizon", "10",
        )
        assert code == 0
        assert "served:" in out
        assert "IOP" in out

    def test_serve_iop(self, capsys):
        code, out = run_cli(
            capsys, "serve", "fig13_toy", "--freqs", "1200,800,600",
            "--scheme", "iop", "--load", "0.5", "--frames", "6",
            "--no-compute",
        )
        assert code == 0
        assert "served:" in out

    def test_fleet_iop(self, capsys):
        code, out = run_cli(
            capsys, "fleet", "--freqs", "1200,1000,800,600",
            "--tenant", "cam:fig13_toy:0.5:10.0",
            "--scheme", "iop", "--frames", "3",
        )
        assert code == 0
        assert "cam" in out and "fleet:" in out


class TestPlannerExact:
    def test_serve_planner_exact(self, capsys):
        code, out = run_cli(
            capsys, "serve", "fig13_toy", "--freqs", "1500,900,600",
            "--planner", "exact", "--load", "0.5", "--frames", "6",
            "--no-compute",
        )
        assert code == 0
        assert "served:" in out

    def test_sim_planner_exact(self, capsys):
        code, out = run_cli(
            capsys, "sim", "fig13_toy", "--freqs", "1500,900,600",
            "--planner", "exact", "--horizon", "10",
        )
        assert code == 0
        assert "served:" in out

    def test_exact_rejects_other_schemes(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys, "serve", "fig13_toy", "--freqs", "1500,900,600",
                "--scheme", "lw", "--planner", "exact", "--frames", "2",
                "--no-compute",
            )

    def test_fleet_planner_exact(self, capsys):
        code, out = run_cli(
            capsys, "fleet", "--freqs", "1500,900,600",
            "--tenant", "cam:fig13_toy:0.5:10.0",
            "--planner", "exact", "--frames", "3",
        )
        assert code == 0
        assert "fleet:" in out


class TestGap:
    def test_reports_gap(self, capsys):
        code, out = run_cli(
            capsys, "gap", "fig13_toy", "--freqs", "1500,900,600"
        )
        assert code == 0
        assert "greedy (Algorithm 1+2)" in out
        assert "exact (branch-and-bound)" in out
        assert "optimality gap:" in out

    def test_homogeneous_gap_is_zero(self, capsys):
        code, out = run_cli(
            capsys, "gap", "fig13_toy", "--devices", "3", "--freq", "1000"
        )
        assert code == 0
        assert "optimality gap: 0.00%" in out
        assert "greedy plan is optimal" in out

    def test_period_bound_returns_greedy(self, capsys):
        code, out = run_cli(
            capsys, "gap", "fig13_toy", "--freqs", "1500,900,600",
            "--period-bound", "1e-9",
        )
        assert code == 0
        assert "optimality gap: 0.00%" in out

    def test_eight_device_two_class_cluster(self, capsys):
        """Eight devices in two capacity classes are 5 * 5 - 1 = 24
        allocations per stage: well inside the exact planner's width."""
        code, out = run_cli(
            capsys, "gap", "fig13_toy",
            "--freqs", "1200,1200,1200,1200,600,600,600,600",
        )
        assert code == 0
        assert "exact (branch-and-bound)" in out
        assert "optimality gap:" in out
