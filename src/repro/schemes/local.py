"""Multi-threaded local execution of a pipeline plan.

:class:`LocalPlanExecutor` is now a thin adapter over the shared
runtime core: the plan is compiled once into a
:class:`~repro.runtime.program.PlanProgram` and driven by a
:class:`~repro.runtime.core.PipelineSession` over the
:class:`~repro.runtime.core.InProcTransport` — every device's tile of a
stage becomes one task on the shared thread pool
(:mod:`repro.nn.parallel`), so on a multi-core host the per-device
tiles genuinely overlap.  On a single core (``REPRO_THREADS=1``) the
tiles run serially and the stitched result is identical.

The stitched output of every stage is bit-exact against
:meth:`Engine.forward_features` because the core's split/compute/stitch
path shares the engine's layer kernels — and because the TCP and
simulated backends run the very same path, it is bit-exact against
those too.

:meth:`measure` times each stage over sample frames; the resulting
per-stage wall-clock services feed straight into
:func:`repro.sim.simulate_scenario` via its
``measured_services`` parameter, replacing the analytic cost model
with measured numbers.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.device import Device
from repro.core.plan import PipelinePlan, StagePlan
from repro.models.graph import Model
from repro.nn.executor import Engine
from repro.partition.regions import Region
from repro.runtime.core import InProcTransport, PipelineSession, execute_stage
from repro.runtime.program import compile_plan
from repro.runtime.trace import coerce_tracer

__all__ = ["LocalPlanExecutor", "local_fallback_plan"]


def local_fallback_plan(model: Model, device: Device) -> PipelinePlan:
    """The degraded-mode plan: the whole model on one device.

    The fault-tolerance layer's last resort — when re-planning over the
    survivors is infeasible, serving continues on the single strongest
    device as an exclusive one-stage plan (run it with
    :class:`LocalPlanExecutor` or any transport).
    """
    _, h, w = model.final_shape
    return PipelinePlan(
        model.name,
        (StagePlan(0, model.n_units, ((device, Region.full(h, w)),)),),
        mode="exclusive",
    )


class LocalPlanExecutor:
    """Execute a pipeline plan locally with tile-level threading.

    Parameters
    ----------
    engine:
        The engine providing kernels and weights.  Its model must match
        the plan's.
    plan:
        Any plan whose stages cover the whole model — PICO pipelines,
        one-stage exclusive baselines, and branch-parallel stages all
        work.
    trace:
        Collect per-frame trace events (``.trace`` after running); the
        shared ``Tracer | bool | None`` contract of
        :func:`~repro.runtime.trace.coerce_tracer`.
    """

    def __init__(
        self, engine: Engine, plan: PipelinePlan, trace=False
    ) -> None:
        if plan.model_name != engine.model.name:
            raise ValueError(
                f"plan is for {plan.model_name!r}, engine runs "
                f"{engine.model.name!r}"
            )
        self.engine = engine
        self.plan = plan
        self.program = compile_plan(engine.model, plan)
        self._tracer = coerce_tracer(trace)
        self._session = PipelineSession(
            self.program, InProcTransport(engine), self._tracer
        )

    @property
    def trace(self):
        """Collected trace events (empty unless ``trace=True``)."""
        return self._tracer.events if self._tracer is not None else ()

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run_stage(self, stage_index: int, x: np.ndarray) -> np.ndarray:
        """Run one stage on its full input map; returns the stitched
        full output map."""
        return execute_stage(
            self._session.transport,
            self.program,
            stage_index,
            np.ascontiguousarray(x, dtype=np.float32),
            frame=-1,
        )

    def forward_features(
        self, x: np.ndarray, at: Optional[float] = None
    ) -> np.ndarray:
        """Run every stage; bit-exact vs ``engine.forward_features``."""
        return self._session.run_frame(x, at)

    def run(self, x: np.ndarray) -> np.ndarray:
        """End-to-end inference: staged features then the dense head."""
        return self.engine.run_head(self.forward_features(x))

    # ------------------------------------------------------------------
    # Measurement.
    # ------------------------------------------------------------------
    def measure(
        self, frames: "Sequence[np.ndarray]", repeats: int = 1
    ) -> "List[float]":
        """Mean wall-clock seconds per stage over the given frames.

        Feed the result to ``simulate_scenario(..., measured_services=...)``
        to drive the event simulator with measured numbers instead of
        the analytic cost model.
        """
        if not frames:
            raise ValueError("need at least one frame")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        totals = [0.0] * self.program.n_stages
        runs = 0
        for _ in range(repeats):
            for frame in frames:
                cur = np.ascontiguousarray(frame, dtype=np.float32)
                for idx in range(self.program.n_stages):
                    t0 = time.perf_counter()
                    cur = self.run_stage(idx, cur)
                    totals[idx] += time.perf_counter() - t0
                runs += 1
        return [t / runs for t in totals]
