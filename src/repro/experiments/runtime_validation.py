"""Cost-model validation against the real multiprocess runtime.

The paper fits ``alpha_k`` by regression against measured layer timings
(Eq. 5).  This harness closes the same loop on the local host: calibrate
the numpy engine's FLOP/s with :func:`repro.cost.profiler.calibrate_host`,
predict a pipeline's period from the analytic model, then execute the
plan for real with :class:`~repro.serve.PipelineServer` over worker
processes and compare.  Agreement is necessarily loose — worker processes share the
host's cores and the loopback transport is not a 50 Mbps WLAN — but the
prediction must land within a small constant factor, and the
distributed outputs must match local inference exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.device import Cluster, Device
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions
from repro.cost.profiler import calibrate_host
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.coordinator import TcpTransport
from repro.runtime.core import PipelineSession, SimTransport
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig

__all__ = ["ValidationResult", "run"]


@dataclass(frozen=True)
class ValidationResult:
    host_gflops: float
    predicted_period_s: float
    measured_period_s: float
    max_output_error: float
    #: Max |live - simulated| over all frames: the two backends run the
    #: same compiled PlanProgram through the same stage kernels, so this
    #: must be exactly zero.
    sim_output_error: float = 0.0
    #: Steady-state period of the SimTransport's virtual clock.
    sim_period_s: float = 0.0

    @property
    def ratio(self) -> float:
        """measured / predicted period."""
        if self.predicted_period_s <= 0:
            return float("inf")
        return self.measured_period_s / self.predicted_period_s


def run(n_workers: int = 2, n_tasks: int = 12, seed: int = 0) -> ValidationResult:
    calibration = calibrate_host()
    # Workers share the host: each gets an equal slice of its capacity
    # (pessimistic when cores are idle, optimistic under contention).
    per_worker = calibration.flops_per_second / n_workers
    cluster = Cluster(
        tuple(Device(f"proc{i}", per_worker) for i in range(n_workers))
    )
    # Loopback moves GB/s; make communication analytically negligible
    # to isolate the compute prediction.
    network = NetworkModel.from_mbps(20000.0)
    model = toy_chain(8, 2, input_hw=64, in_channels=3, base_channels=32)
    weights = init_weights(model, seed=seed)

    plan = PicoScheme().plan(model, cluster, network)
    predicted = plan_cost(model, plan, network, CostOptions()).period

    rng = np.random.default_rng(seed)
    frames = [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(n_tasks)
    ]
    engine = Engine(model, weights)
    references = [engine.forward_features(x) for x in frames]
    with PipelineServer.from_plan(
        model, plan, TcpTransport(model, weights),
        config=ServerConfig(queue_capacity=len(frames), policy="block"),
    ) as server:
        served = server.serve(frames)
    outputs = [served.outputs[i] for i in range(len(frames))]
    max_err = max(
        float(np.abs(out - ref).max()) for out, ref in zip(outputs, references)
    )
    measured_period = served.makespan / max(1, len(frames) - 1)

    # Sim-vs-live exactness: replay the same frames through the
    # virtual-clock backend.  Same PlanProgram, same kernels — the
    # outputs must match the live pipeline bit for bit.
    sim_session = PipelineSession.from_plan(
        model, plan, SimTransport(engine, network)
    )
    sim_outputs = [sim_session.run_frame(x) for x in frames]
    sim_err = max(
        float(np.abs(out - sim).max())
        for out, sim in zip(outputs, sim_outputs)
    )
    sim_period = sim_session.transport.now / max(1, len(frames) - 1)
    return ValidationResult(
        calibration.flops_per_second / 1e9,
        predicted,
        measured_period,
        max_err,
        sim_output_error=sim_err,
        sim_period_s=sim_period,
    )
