"""Oracles: the seed's implementations the production paths are held to,
and the helpers only the tests use.

Each concept has one production implementation in :mod:`repro`; its
independent oracle lives here, once, for the test suite and the
"before" side of the benchmarks:

* :mod:`repro.testing.kernels` — the sliding-window conv, the windowed
  max pool and the separate batch-norm pass; the per-call packed conv
  and the out-of-place activations;
* :mod:`repro.testing.engine` — :class:`ReferenceEngine` (the per-call
  walk on those kernels), :func:`run_unit` (one unit op by op, on
  either engine) and :func:`run_segment_reference` (a tile program op
  by op);
* :mod:`repro.testing.planner` — the scalar strip cost
  ``homogeneous_stage_time``, the ``Ts`` memo :class:`StageTimeTable`
  over it and :func:`plan_homogeneous_reference`;
* :mod:`repro.testing.weights` — the one-shot float64 weight build
  and BN fold, :func:`init_weights_reference` and
  :func:`fold_batch_norm_reference`;
* :mod:`repro.testing.memory` — what a worker process holds, read
  from ``/proc``, and the weight bytes its program may hold;
* :mod:`repro.testing.queueing` — the paper's Theorem 2 as printed;
* :mod:`repro.testing.faults` — a session replanner over a scheme or
  a switcher;
* :mod:`repro.testing.formats` — a framed message sent by hand and a
  JSONL trace read back;
* :mod:`repro.testing.programs`, :mod:`repro.testing.regions`,
  :mod:`repro.testing.models` — the tile-program cache counters, the
  owned projection of a segment and a model's layer counts.

``make lint-dead`` is what sends a definition here: production code
that only tests use.

No production module imports this package (``make lint-forks``).
"""

from repro.testing.engine import ReferenceEngine, run_segment_reference, run_unit
from repro.testing.kernels import batch_norm, conv2d_reference, maxpool2d_reference
from repro.testing.planner import StageTimeTable, plan_homogeneous_reference
from repro.testing.weights import fold_batch_norm_reference, init_weights_reference

__all__ = [
    "ReferenceEngine",
    "StageTimeTable",
    "batch_norm",
    "conv2d_reference",
    "fold_batch_norm_reference",
    "init_weights_reference",
    "maxpool2d_reference",
    "plan_homogeneous_reference",
    "run_segment_reference",
    "run_unit",
]
