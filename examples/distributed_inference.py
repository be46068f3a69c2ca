#!/usr/bin/env python
"""Real distributed inference across worker processes.

Plans a small CNN on an emulated heterogeneous cluster, then actually
executes the pipeline: one OS process per device role, tensors moving
over framed TCP, overlapping halo tiles split and stitched exactly as
in the paper's Fig. 6 workflow.  Verifies the distributed outputs are
bit-close to single-process inference, reports the measured pipeline
throughput, and finishes with a worker-failure recovery demo.

Run:  python examples/distributed_inference.py
"""

import time

import numpy as np

from repro import (
    FaultSchedule,
    PipelineServer,
    RuntimeConfig,
    ServerConfig,
    TcpTransport,
    heterogeneous_cluster,
    wifi_50mbps,
)
from repro.models import toy_chain
from repro.nn import Engine, init_weights
from repro.schemes import EarlyFusedScheme, PicoScheme


def serve(model, plan, weights, frames, faults=None, config=None):
    """Serve every frame through one worker process per device role,
    all of them admitted at once; returns the outputs in frame order,
    the ServeResult and the transport."""
    transport = TcpTransport(model, weights, faults=faults)
    with PipelineServer.from_plan(
        model, plan, transport, runtime_config=config,
        config=ServerConfig(queue_capacity=len(frames), policy="block"),
    ) as server:
        served = server.serve(frames)
    outputs = [served.outputs[i] for i in range(len(frames))]
    return outputs, served, transport


def main() -> None:
    model = toy_chain(8, 2, input_hw=64, in_channels=3, base_channels=16)
    cluster = heterogeneous_cluster([1200, 1000, 800, 600])
    network = wifi_50mbps()
    weights = init_weights(model, seed=42)
    engine = Engine(model, weights)

    plan = PicoScheme().plan(model, cluster, network)
    print(plan.describe())

    rng = np.random.default_rng(0)
    frames = [
        rng.standard_normal(model.input_shape).astype(np.float32)
        for _ in range(8)
    ]

    print("\nrunning locally (reference)...")
    started = time.perf_counter()
    references = [engine.forward_features(x) for x in frames]
    local_s = time.perf_counter() - started

    print("running distributed (one process per device role)...")
    outputs, served, _ = serve(model, plan, weights, frames)

    max_err = max(
        float(np.abs(out - ref).max()) for out, ref in zip(outputs, references)
    )
    print(f"max |distributed - local| = {max_err:.2e}  (bit-close: {max_err < 1e-3})")
    print(
        f"local: {len(frames) / local_s:.1f} frames/s   "
        f"distributed pipeline: {served.throughput:.1f} frames/s   "
        f"avg latency {served.mean_sojourn * 1000:.1f} ms"
    )

    print("\n=== failure injection ===")
    efl_plan = EarlyFusedScheme(n_fused=6).plan(model, cluster, network)
    victim = efl_plan.stages[0].assignments[1][0].name
    print(f"crashing {victim} at frame 1...")
    outputs, _, transport = serve(
        model, efl_plan, weights, frames,
        faults=FaultSchedule().crash(victim, at_frame=1),
        config=RuntimeConfig(),
    )
    max_err = max(
        float(np.abs(out - ref).max()) for out, ref in zip(outputs, references)
    )
    print(
        f"recovered {transport.recoveries} time(s); outputs still correct "
        f"(max err {max_err:.2e})"
    )


if __name__ == "__main__":
    main()
