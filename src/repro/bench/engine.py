"""Engine fast-path benchmark: reference kernels vs packed-GEMM path.

Runs the paper's evaluation models through both engines —
:class:`repro.testing.ReferenceEngine` (the seed's tensordot/einsum
kernels, per call, with a separate BN pass) and :class:`Engine`
(packed-GEMM convs, folded BN, compiled tile plans, in-place
epilogues) — and writes a JSON report with per-unit-kind op times plus feature-extractor
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
reference (:func:`repro.testing.run_segment_reference`, op by op on the
reference engine) vs the engine's compiled plan, interleaved, in a fresh
interpreter on one BLAS thread as a worker computes.  There the per-call overhead the
compiled tile plans remove is a large share of each task.

A third section, ``memory``, measures what each device holds: the
end-to-end benchmark's resnet34@64 and vgg16@64 PICO plans on the
1200/1000/800/600 MHz cluster (at its 50 and 1000 Mbps), served over
``TcpTransport`` in a fresh interpreter, then every worker's private
memory (USS), proportional share (PSS), peak RSS (VmHWM) and shared
resident set (RssShmem, also right after ``open()``) read from
``/proc/<pid>/smaps_rollup`` and ``/proc/<pid>/status``
(:func:`repro.testing.memory.process_memory`), beside the weight bytes
:func:`repro.cost.memory.plan_memory` predicts for its device and the
parameter bytes of the layers its program runs, each held once, batch
norm folded (:func:`repro.testing.memory.program_param_bytes`).
``--before-after PARENT_SRC`` measures every worker's USS, PSS and
VmHWM and the coordinator's RssShmem and VmHWM at a parent checkout,
alternating (:func:`repro.bench.common.parent_vs_change`), into
``memory_before_after``; without it the committed section is carried
over.

The gates are correctness, not speed: both engines must produce the
same activations (float32 tolerance), on every model and every stage
task, or the comparison means nothing, and the served outputs must
equal :meth:`Engine.forward_features` bit for bit.  Four gates are
memory: every worker's shared resident set is under 1 MiB after
``open()`` and within 1 MiB of its program's weight bytes after the
frames (weights are shared mappings, so a worker is resident only in
the layers it runs, each once); every worker's ``plan_memory``
weights are within 1 MiB of its program's (the model counts what a
device holds); the coordinator's shared resident set is within 1 MiB
of the backbone's mapped conv weights (the dense head is drawn at its
first read, and serving never reads it); and the resnet34 last-stage
worker's private memory is at least 40 % below the parent's in
``memory_fold_before_after``: the ``--before-after`` section recorded
when the build began folding batch norm in place, against the commit
before it, kept as it was measured (a re-run against a later parent,
which already folds, measures nothing that gate is about).
``--check`` holds a fresh run's model list and plans against the
committed ones.  Run it via ``make bench-json`` or directly::

    python -m repro.bench.engine --out BENCH_engine.json
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench import common
from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.cost.memory import plan_memory
from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import ConvSpec, PoolSpec
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn import parallel
from repro.nn import weights as weights_module
from repro.nn.executor import Engine
from repro.nn.tiles import run_segment
from repro.nn.weights import init_weights
from repro.runtime.coordinator import TcpTransport
from repro.runtime.program import compile_plan, split_stage, stitch_stage
from repro.schemes import get_scheme
from repro.serve import PipelineServer, ServerConfig
from repro.testing import (
    ReferenceEngine,
    init_weights_reference,
    run_segment_reference,
    run_unit,
)
from repro.testing.memory import process_memory, program_param_bytes

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


def _time_units(engine, x: np.ndarray, repeats: int) -> "Dict[str, float]":
    """Best-of-``repeats`` seconds per unit, summed by unit kind."""
    inputs = []
    out = x
    for unit in engine.model.units:
        inputs.append(out)
        out = run_unit(engine, unit, out)
    by_kind: "Dict[str, float]" = {}
    for unit, inp in zip(engine.model.units, inputs):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_unit(engine, unit, inp)
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
    before = ReferenceEngine(model, init_weights_reference(model, seed))
    after = Engine(model, weights)
    # Both calls also warm the packed-weight cache and draw the dense
    # head (at its first read) outside the clock.
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
    before = ReferenceEngine(model, init_weights_reference(model, seed))
    after = Engine(model, weights)
    x = np.random.default_rng(seed).normal(size=model.input_shape).astype(np.float32)
    rows, matches = [], True
    for s, stage in enumerate(program.stages):
        outs = []
        for t, (task, tile) in enumerate(zip(stage.tasks, split_stage(stage.tasks, x))):
            want = run_segment_reference(before, task.program, tile)
            got = run_segment(after, task.program, tile)  # builds the plan
            matches &= bool(np.allclose(got, want, rtol=1e-4, atol=1e-4))
            outs.append(got)

            def calls(run, engine, program=task.program, tile=tile):
                for _ in range(STAGE_TASK_CALLS):
                    run(engine, program, tile)

            t_before, t_after = common.interleaved_medians(
                [
                    lambda: calls(run_segment_reference, before),
                    lambda: calls(run_segment, after),
                ],
                repeats,
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


#: ``(model, input_hw, Mbps)`` of the ``memory`` rows: the end-to-end
#: benchmark's resnet34 and vgg16 workloads (a quick run takes the first).
MEMORY_MODELS: "Tuple[Tuple[str, int, float], ...]" = (
    ("resnet34", 64, 50.0),
    ("vgg16", 64, 1000.0),
)
#: Frames each ``memory`` row serves before it reads the workers.
MEMORY_FRAMES = 8
#: The gate: the resnet34 last-stage worker's USS against the parent's.
MEMORY_DROP = 0.40
#: The slack of the ``memory_workers_hold_only_their_layers`` and
#: ``memory_plan_matches_held`` gates.
MEMORY_SLACK_MB = 1.0
#: Parent/change pairs a ``--before-after`` memory row takes (a
#: worker's USS moved by about a megabyte from run to run).
MEMORY_ROUNDS = 3

_MB = float(1 << 20)


def _memory_row(name: str, hw: int, mbps: float, seed: int) -> Dict:
    """Serve :data:`MEMORY_FRAMES` frames of ``name`` over tcp and read
    what every process holds; outputs are checked bit for bit."""
    model = get_model(name, input_hw=hw)
    weights = init_weights(model, seed)
    plan = get_scheme("pico").plan(
        model, heterogeneous_cluster([1200.0, 1000.0, 800.0, 600.0]),
        NetworkModel.from_mbps(mbps),
    )
    predicted = {m.device_name: m.weight_bytes for m in plan_memory(model, plan)}
    rng = np.random.default_rng(seed)
    xs = [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(MEMORY_FRAMES)
    ]
    engine = Engine(model, weights)
    oracle = [engine.forward_features(x) for x in xs]
    parallel.shutdown_pool()  # no live pool in the parent of forked workers
    transport = TcpTransport(model, weights)
    config = ServerConfig(queue_capacity=MEMORY_FRAMES, policy="block")
    with PipelineServer.from_plan(model, plan, transport, config=config) as server:
        at_open = [
            process_memory(h.process.pid)["shmem_mb"]
            for h in transport.all_handles()
        ]
        served = server.serve(xs)
        workers = [
            {
                "stage": h.stage_index,
                "device": h.task.device_name,
                "units": [plan.stages[h.stage_index].start,
                          plan.stages[h.stage_index].end],
                "plan_weight_mb": round(predicted[h.task.device_name] / _MB, 1),
                "program_weight_mb": round(
                    program_param_bytes(weights, h.task.program) / _MB, 1
                ),
                "shmem_open_mb": opened,
                **process_memory(h.process.pid),
            }
            for h, opened in zip(transport.all_handles(), at_open)
        ]
        coordinator = process_memory(os.getpid())
    exact = len(served.outputs) == len(xs) and all(
        np.array_equal(served.outputs[i], want) for i, want in enumerate(oracle)
    )
    backbone = sum(
        n for n in (
            weights[info.layer.name]["weight"].nbytes
            for info in model.iter_layers() if isinstance(info.layer, ConvSpec)
        ) if n >= weights_module._SHARED_MIN_BYTES
    )
    return {
        "model": name, "input_hw": hw, "mbps": mbps, "frames": len(xs),
        "exact": bool(exact), "workers": workers, "coordinator": coordinator,
        "backbone_shared_mb": round(backbone / _MB, 1),
    }


def _memory_rows(models, seed: int) -> "List[Dict]":
    rows = [
        common.run_fresh(__file__, "_memory_row", (name, hw, mbps, seed),
                         common.ONE_BLAS_THREAD)
        for name, hw, mbps in models
    ]
    for row in rows:
        for w in row["workers"]:
            print(
                f"memory[{row['model']}] stage {w['stage']} {w['device']:>12}: "
                f"plan {w['plan_weight_mb']:6.1f}  program "
                f"{w['program_weight_mb']:6.1f}  shmem {w['shmem_open_mb']:.1f}"
                f" -> {w['shmem_mb']:6.1f}  USS {w['uss_mb']:6.1f}  "
                f"PSS {w['pss_mb']:6.1f}  VmHWM {w['vm_hwm_mb']:6.1f} MB"
            )
        c = row["coordinator"]
        print(
            f"memory[{row['model']}] coordinator: backbone "
            f"{row['backbone_shared_mb']:6.1f}  shmem {c['shmem_mb']:6.1f}  "
            f"VmHWM {c['vm_hwm_mb']:6.1f} MB"
        )
    return rows


def _memory_before_after(parent_src: str, models, seed: int) -> Dict:
    """Per worker, the median USS / PSS / VmHWM at ``parent_src`` and
    at this checkout over :data:`MEMORY_ROUNDS` alternating pairs; every
    run of both sides exact."""
    section: Dict = {
        "parent": common.parent_commit(parent_src), "rounds": MEMORY_ROUNDS,
        "rows": [], "coordinator": [],
    }
    for name, hw, mbps in models:
        runs = common.parent_vs_change(
            parent_src, __file__, "_memory_row", (name, hw, mbps, seed),
            MEMORY_ROUNDS,
            agree=("exact",), env=common.ONE_BLAS_THREAD,
        )
        for i, worker in enumerate(runs["change"][0]["workers"]):
            row = {"model": name, "stage": worker["stage"], "device": worker["device"]}
            for field in ("uss_mb", "pss_mb", "vm_hwm_mb"):
                for side in ("parent", "change"):
                    row[f"{side}_{field}"] = statistics.median(
                        run["workers"][i][field] for run in runs[side]
                    )
            section["rows"].append(row)
            print(
                f"memory_before_after[{name}] stage {row['stage']}: USS "
                f"{row['parent_uss_mb']:.1f} -> {row['change_uss_mb']:.1f}, "
                f"PSS {row['parent_pss_mb']:.1f} -> {row['change_pss_mb']:.1f}, "
                f"VmHWM {row['parent_vm_hwm_mb']:.1f} -> "
                f"{row['change_vm_hwm_mb']:.1f} MB"
            )
        row = {"model": name}
        for field in ("shmem_mb", "vm_hwm_mb"):
            for side in ("parent", "change"):
                row[f"{side}_{field}"] = statistics.median(
                    run["coordinator"][field] for run in runs[side]
                )
        section["coordinator"].append(row)
        print(
            f"memory_before_after[{name}] coordinator: RssShmem "
            f"{row['parent_shmem_mb']:.1f} -> {row['change_shmem_mb']:.1f}, "
            f"VmHWM {row['parent_vm_hwm_mb']:.1f} -> "
            f"{row['change_vm_hwm_mb']:.1f} MB"
        )
    return section


def _hold_only_their_layers(rows: "List[Dict]") -> bool:
    """The gate on ``memory``: every worker's shared resident set under
    :data:`MEMORY_SLACK_MB` right after ``open()``, and after the frames
    within that slack of its program's weights, each layer once."""
    return all(
        w["shmem_open_mb"] < MEMORY_SLACK_MB
        and abs(w["shmem_mb"] - w["program_weight_mb"]) <= MEMORY_SLACK_MB
        for row in rows for w in row["workers"]
    )


def _plan_matches_held(rows: "List[Dict]") -> bool:
    """The gate on ``memory``: every worker's ``plan_memory`` weights
    within :data:`MEMORY_SLACK_MB` of its program's."""
    return all(
        abs(w["plan_weight_mb"] - w["program_weight_mb"]) <= MEMORY_SLACK_MB
        for row in rows for w in row["workers"]
    )


def _coordinator_holds_only_the_backbone(rows: "List[Dict]") -> bool:
    """The gate on ``memory``: the coordinator's shared resident set
    within :data:`MEMORY_SLACK_MB` of the backbone's mapped conv
    weights, so it holds no dense head."""
    return all(
        abs(row["coordinator"]["shmem_mb"] - row["backbone_shared_mb"])
        <= MEMORY_SLACK_MB
        for row in rows
    )


def _last_stage_drop(section: "Optional[Dict]") -> bool:
    """The gate on ``memory_fold_before_after``: the resnet34 last-stage
    worker's USS at least :data:`MEMORY_DROP` below the parent's."""
    rows = [r for r in (section or {}).get("rows", ()) if r["model"] == "resnet34"]
    if not rows:
        return False
    last = max(rows, key=lambda r: r["stage"])
    return last["change_uss_mb"] <= (1.0 - MEMORY_DROP) * last["parent_uss_mb"]


#: The ``--quick`` model subset (CI smoke run).
QUICK_MODELS = DEFAULT_MODELS[:1]


def run(
    quick: bool = False,
    seed: int = 0,
    repeats: int = 9,
    models: "Optional[Sequence[Tuple[str, int]]]" = None,
    before_after: Optional[str] = None,
    *,
    committed: Optional[Dict] = None,
):
    """Benchmark every model; returns ``(sections, gates)``."""
    if models is None:
        models = QUICK_MODELS if quick else DEFAULT_MODELS
    memory_models = MEMORY_MODELS[:1] if quick else MEMORY_MODELS
    memory = _memory_rows(memory_models, seed)
    if before_after:
        memory_vs_parent = _memory_before_after(before_after, memory_models, seed)
    else:
        memory_vs_parent = (committed or {}).get("memory_before_after")
    fold_vs_parent = (committed or {}).get("memory_fold_before_after")
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
        "memory": memory,
        "memory_before_after": memory_vs_parent,
        "memory_fold_before_after": fold_vs_parent,
    }
    return sections, {
        "fast_matches_reference": tasks_match and all(matches for _, matches in rows),
        "memory_outputs_exact": all(row["exact"] for row in memory),
        "memory_workers_hold_only_their_layers": _hold_only_their_layers(memory),
        "memory_plan_matches_held": _plan_matches_held(memory),
        "memory_coordinator_holds_only_the_backbone":
            _coordinator_holds_only_the_backbone(memory),
        "memory_last_stage_private_below_parent": _last_stage_drop(fold_vs_parent),
    }


BENCH = common.Bench(
    name="engine",
    run=run,
    deterministic=(
        common.Section("results", key=("model",)),
        common.Section("stage_tasks", key=("stage", "task")),
        common.Section("memory", key=("model",)),
    ),
    timings=(
        "ops_before_s", "ops_after_s", "features_before_s", "features_after_s",
        "end_to_end_before_s", "end_to_end_after_s", "speedup",
        "features_speedup", "before_ms", "after_ms", "uss_mb", "pss_mb",
        "vm_hwm_mb", "shmem_mb", "shmem_open_mb", "coordinator",
    ),
    extras={
        "--repeats": dict(type=int, default=9),
        "--before-after": dict(
            metavar="PARENT_SRC",
            help="also measure the memory rows against the src/ of a parent "
            "checkout, alternating, and record the medians",
        ),
    },
    reads_committed=True,
)


if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
