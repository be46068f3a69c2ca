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

The gate is correctness, not speed: both engines must produce the same
activations (float32 tolerance) or the comparison means nothing.
``--check`` holds a fresh run's model list against the committed one.
Run it via ``make bench-json`` or directly::

    python -m repro.bench.engine --out BENCH_engine.json
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.bench import common
from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import ConvSpec, PoolSpec
from repro.models.zoo import get_model
from repro.nn.executor import Engine
from repro.nn.weights import init_weights

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
    }
    return sections, {
        "fast_matches_reference": all(matches for _, matches in rows)
    }


BENCH = common.Bench(
    name="engine",
    run=run,
    deterministic=(common.Section("results", key=("model",)),),
    timings=(
        "ops_before_s", "ops_after_s", "features_before_s", "features_after_s",
        "end_to_end_before_s", "end_to_end_after_s", "speedup",
        "features_speedup",
    ),
    extras={"--repeats": dict(type=int, default=9)},
)


if __name__ == "__main__":
    raise SystemExit(common.main(BENCH))
