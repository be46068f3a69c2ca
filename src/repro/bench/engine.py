"""Engine fast-path benchmark: reference kernels vs packed-GEMM path.

Runs the paper's evaluation models through both engine configurations —
``Engine(fast=False)`` (the seed's tensordot/einsum kernels with a
separate BN pass) and ``Engine(fast=True)`` (packed-GEMM convs, folded
BN, virtual-pad im2col, arena-backed outputs, in-place epilogues) — and
writes a JSON report with per-unit-kind op times plus feature-extractor
and end-to-end latencies.

Protocol: end-to-end runs are *interleaved* (before, after, before,
after, ...) and summarised by the median, which cancels the slow drift
of shared-host machines; per-op numbers are best-of-``repeats`` on warm
caches.  A note on ceilings: the reference conv already lowers to the
same BLAS sgemm via ``np.tensordot``, so on a single core the fast path
can only remove the non-GEMM overhead (window copies, padding, BN pass,
epilogue copies, allocation churn) — the measured speedup is bounded by
the GEMM's share of the runtime, not by 10×-style kernel rewrites.

A second section, ``stage_tasks``, times what a pipeline worker runs:
``run_segment`` on each of the four stage tasks of the end-to-end
benchmark's ``toy64_tcp_evloop`` plan (``toy_chain(8, 2, input_hw=64,
base_channels=8)``, PICO on the 1200/1000/800/600 MHz mix at 50 Mbps),
reference vs fast engine, interleaved, in a fresh interpreter on one
BLAS thread as a worker computes.  There the per-call overhead the
compiled tile plans remove is a large share of each task.

The gate is correctness, not speed: both engines must produce the same
activations (float32 tolerance), on every model and every stage task,
or the comparison means nothing.
``--check`` holds a fresh run's model list against the committed one.
Run it via ``make bench-json`` or directly::

    python -m repro.bench.engine --out BENCH_engine.json
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.bench import common
from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import ConvSpec, PoolSpec
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn.executor import Engine
from repro.nn.tiles import run_segment
from repro.nn.weights import init_weights
from repro.runtime.program import compile_plan, split_stage, stitch_stage
from repro.schemes import get_scheme

__all__ = ["BENCH", "run"]

#: (model name, input_hw) — sized so the suite finishes in seconds while
#: keeping the conv shapes representative.
DEFAULT_MODELS: "Tuple[Tuple[str, int], ...]" = (
    ("vgg16", 64),
    ("resnet34", 64),
    ("inception_v3", 96),
)


def _unit_kind(unit) -> str:
    if isinstance(unit, BlockUnit):
        return "block"
    assert isinstance(unit, LayerUnit)
    if isinstance(unit.layer, ConvSpec):
        return "conv"
    assert isinstance(unit.layer, PoolSpec)
    return f"{unit.layer.kind_}pool"


def _time_units(engine: Engine, x: np.ndarray, repeats: int) -> "Dict[str, float]":
    """Best-of-``repeats`` seconds per unit, summed by unit kind."""
    inputs = []
    out = x
    for unit in engine.model.units:
        inputs.append(out)
        out = engine.run_unit(unit, out)
    by_kind: "Dict[str, float]" = {}
    for unit, inp in zip(engine.model.units, inputs):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            engine.run_unit(unit, inp)
            best = min(best, time.perf_counter() - t0)
        kind = _unit_kind(unit)
        by_kind[kind] = by_kind.get(kind, 0.0) + best
    return by_kind


def _bench_model(
    name: str, hw: int, repeats: int, seed: int
) -> "Tuple[Dict[str, object], bool]":
    """One result row, plus whether both engines computed the same."""
    model: Model = get_model(name, input_hw=hw)
    weights = init_weights(model, seed)
    x = (
        np.random.default_rng(seed)
        .normal(size=model.input_shape)
        .astype(np.float32)
    )
    before = Engine(model, weights, fast=False)
    after = Engine(model, weights, fast=True)
    # Both calls also warm the packed-weight cache outside the clock.
    matches = np.allclose(after.run(x), before.run(x), rtol=1e-4, atol=1e-4)
    ops_before = _time_units(before, x, repeats)
    ops_after = _time_units(after, x, repeats)
    e2e_before, e2e_after = common.interleaved_medians(
        [lambda: before.run(x), lambda: after.run(x)], repeats
    )
    feat_before, feat_after = common.interleaved_medians(
        [lambda: before.forward_features(x), lambda: after.forward_features(x)],
        repeats,
    )
    print(
        f"{name:>14} hw={hw:<4} e2e {e2e_before * 1e3:7.1f} -> "
        f"{e2e_after * 1e3:7.1f} ms ({e2e_before / e2e_after:.2f}x)  "
        f"features ({feat_before / feat_after:.2f}x)"
    )
    return {
        "model": name,
        "input_hw": hw,
        "ops_before_s": ops_before,
        "ops_after_s": ops_after,
        "features_before_s": feat_before,
        "features_after_s": feat_after,
        "end_to_end_before_s": e2e_before,
        "end_to_end_after_s": e2e_after,
        "speedup": e2e_before / e2e_after,
        "features_speedup": feat_before / feat_after,
    }, matches


#: ``run_segment`` calls per timed sample of a stage task (a task takes
#: ~0.1-0.3 ms, too short to time one call at a time).
STAGE_TASK_CALLS = 50


def _stage_task_rows(repeats: int, seed: int):
    """Per stage task of the ``toy64_tcp_evloop`` plan: median ms of one
    ``run_segment`` on the reference and the fast engine, and whether
    every task's outputs matched."""
    model = toy_chain(8, 2, input_hw=64, base_channels=8)
    weights = init_weights(model, seed)
    plan = get_scheme("pico").plan(
        model,
        heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0]),
        NetworkModel.from_mbps(50.0),
    )
    program = compile_plan(model, plan)
    before = Engine(model, weights, fast=False)
    after = Engine(model, weights, fast=True)
    x = np.random.default_rng(seed).normal(size=model.input_shape).astype(np.float32)
    rows, matches = [], True
    for s, stage in enumerate(program.stages):
        outs = []
        for t, (task, tile) in enumerate(zip(stage.tasks, split_stage(stage.tasks, x))):
            want = run_segment(before, task.program, tile)
            got = run_segment(after, task.program, tile)  # builds the plan
            matches &= bool(np.allclose(got, want, rtol=1e-4, atol=1e-4))
            outs.append(got)

            def calls(engine, program=task.program, tile=tile):
                for _ in range(STAGE_TASK_CALLS):
                    run_segment(engine, program, tile)

            t_before, t_after = common.interleaved_medians(
                [lambda: calls(before), lambda: calls(after)], repeats
            )
            rows.append({
                "stage": s,
                "task": t,
                "tile": list(tile.shape),
                "before_ms": t_before / STAGE_TASK_CALLS * 1e3,
                "after_ms": t_after / STAGE_TASK_CALLS * 1e3,
                "speedup": t_before / t_after,
            })
        x = stitch_stage(stage, stage.tasks, outs)
    return rows, matches


#: The ``--quick`` model subset (CI smoke run).
QUICK_MODELS = DEFAULT_MODELS[:1]


def run(
    quick: bool = False,
    seed: int = 0,
    repeats: int = 9,
    models: "Optional[Sequence[Tuple[str, int]]]" = None,
):
    """Benchmark every model; returns ``(sections, gates)``."""
    if models is None:
        models = QUICK_MODELS if quick else DEFAULT_MODELS
    rows = [_bench_model(name, hw, repeats, seed) for name, hw in models]
    task_rows, tasks_match = common.run_fresh(
        __file__, "_stage_task_rows", [repeats, seed], common.ONE_BLAS_THREAD
    )
    before_ms = sum(row["before_ms"] for row in task_rows)
    after_ms = sum(row["after_ms"] for row in task_rows)
    print(
        f"{'stage tasks':>14} toy64 plan, {len(task_rows)} tasks: "
        f"{before_ms:.3f} -> {after_ms:.3f} ms a frame ({before_ms / after_ms:.2f}x)"
    )
    sections = {
        "repeats": repeats,
        "protocol": "end-to-end/features: interleaved median; per-op: best-of",
        "baseline_note": (
            "the reference conv lowers to the same BLAS sgemm via "
            "np.tensordot, so single-core speedup is bounded by the "
            "non-GEMM share of the runtime (Amdahl); multi-core hosts "
            "additionally overlap block paths and tiles via REPRO_THREADS"
        ),
        "results": [row for row, _ in rows],
        "stage_tasks": task_rows,
        "stage_tasks_sum": {
            "before_ms": before_ms,
            "after_ms": after_ms,
            "speedup": before_ms / after_ms,
        },
    }
    return sections, {
        "fast_matches_reference": tasks_match and all(matches for _, matches in rows)
    }


BENCH = common.Bench(
    name="engine",
    run=run,
    deterministic=(
        common.Section("results", key=("model",)),
        common.Section("stage_tasks", key=("stage", "task")),
    ),
    timings=(
        "ops_before_s", "ops_after_s", "features_before_s", "features_after_s",
        "end_to_end_before_s", "end_to_end_after_s", "speedup",
        "features_speedup", "before_ms", "after_ms",
    ),
    extras={"--repeats": dict(type=int, default=9)},
)


if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
