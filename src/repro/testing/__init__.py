"""Oracles: the seed's implementations the production paths are held to.

Each concept has one production implementation in :mod:`repro`; its
independent oracle lives here, once, for the test suite and the
"before" side of the benchmarks:

* :mod:`repro.testing.kernels` — the sliding-window conv, the windowed
  max pool and the separate batch-norm pass;
* :mod:`repro.testing.engine` — :class:`ReferenceEngine` (the per-call
  walk on those kernels) and :func:`run_segment_reference` (a tile
  program op by op);
* :mod:`repro.testing.planner` — the scalar ``Ts`` memo
  :class:`StageTimeTable` and :func:`plan_homogeneous_reference`;
* :mod:`repro.testing.weights` — the one-shot float64 weight build
  and BN fold, :func:`init_weights_reference` and
  :func:`fold_batch_norm_reference`;
* :mod:`repro.testing.memory` — what a worker process holds, read
  from ``/proc``, and the weight bytes its program may hold.

No production module imports this package (``make lint-forks``).
"""

from repro.testing.engine import ReferenceEngine, run_segment_reference
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
]
