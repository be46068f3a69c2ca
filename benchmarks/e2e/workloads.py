"""Frozen workload constants.

Everything a run's load depends on — rates, chunk sizes, windows,
limits — is a constant here, fixed once from seed-commit measurements
on the builder's 2-core host (see README.md) and never re-derived per
run, so two commits always receive the same load.  Only the measured
duration (``--seconds``) and the input seed come from the command line.
Metric names, units, bounds and the reason for each workload live in
``BENCHMARK.json`` alone; :func:`contract` reads them.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def contract() -> dict:
    """``BENCHMARK.json``: command, workloads with their reasons, metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


#: Exported to every child before numpy is imported.
#: BLAS pinning: every emulated single-core device computes on one thread.
#: Allocator policy: glibc moves its mmap threshold with the sizes a
#: process has freed, so the speed of allocation-heavy code depended on
#: the process's history (the virtual replay took 305, 390 or 700 ms per
#: round for identical work, switching between rounds; 275 ms from the
#: first round with the thresholds fixed).
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

#: Program knobs left at their defaults; recorded, never set.
RECORDED_ENV = ("REPRO_THREADS", "REPRO_BATCH_GEMM", "REPRO_FAST")

#: The paper's four single-core devices (MHz); scheme is always pico.
CLUSTER_MHZ = (1200.0, 1000.0, 800.0, 600.0)

#: Distinct input frames cycled through every real workload.
N_DISTINCT_FRAMES = 8

#: Fresh-process set-ups per untraced run; ``setup_s`` is the quickest.
#: A set-up is mostly the first touch of fresh memory, and on a microVM
#: pages the host has taken back cost a host-side fault each: the same
#: set-up read 0.28 or 0.55-0.8 s for its warm-up frames and 0.25 or
#: 0.4-0.8 s for the oracle, run after run, whatever the host's CPU speed.
#: That noise only ever adds time, and a slower set-up slows all three.
SETUP_REPEATS = 3

#: Calls per isolated probe (median reported).
PROBE_CALLS = 30

#: Abort threshold for open-loop generator lateness, as a share of the
#: latency limit (suite mode; the driver mode reports it instead).
LATE_SHARE_LIMIT = 0.10

WORKLOADS = {
    "vgg16_shm_closed": {
        "kind": "serve",
        "model": ("zoo", "vgg16", 64),
        "mbps": 1000.0,  # 3 stages, stage 0 split over 2 devices
        "transport": "shm",
        "policy": "block",
        "queue_capacity": 8,  # closed loop: 8 frames in the system
        "max_batch": 1,
        "batch_timeout": 0.0,
        "chunk_frames": 97,  # 6 windows of 16; ~2-2.8 s per serve() chunk
    },
    "resnet34_tcp_open_b4": {
        "kind": "serve",
        "model": ("zoo", "resnet34", 64),
        "mbps": 50.0,  # 4 stages x 1 device, block units
        "transport": "tcp",
        "policy": "shed",
        "queue_capacity": 16,
        "max_batch": 4,
        "batch_timeout": 0.002,
        # Open loop at a fixed mean rate, ~0.4 x the 70-80 frames/s
        # closed-loop capacity of the seed commit, so that a slow spell
        # of the host does not turn into overload.  Frames arrive in
        # bursts (cameras that trigger together) whose instants are
        # Poisson: plain Poisson frames ride alone at any such load
        # (mean batch 1.2-1.4 up to 55 frames/s), so only bursts put
        # traffic on batch forming and the stacked kernels.
        "rate_fps": 30.0,  # per reference second (reference.py)
        "segment_s": 2.0,  # reference seconds per serve() call: 60 frames
        "burst_sizes": (1, 2, 3, 4),  # equal numbers of each, shuffled
        "latency_limit_ms": 150.0,
    },
    "toy64_tcp_evloop": {
        "kind": "evloop",
        "model": ("toy", 8, 2, 64, 8),  # n_conv, n_pool, input_hw, base_ch
        "mbps": 50.0,  # 2 stages x 2 devices, halo split/stitch on both
        "transport": "tcp",
        "window": 8,  # outstanding submits
        "chunk_frames": 641,  # 40 windows of 16; ~1.3-2 s per chunk
    },
    "vgg16_virtual": {
        "kind": "virtual",
        # vgg16@64, not @224: at 224 the compute=False replay spends ~90 % of
        # its time page-faulting 13 MB zero tiles, which on the builder's
        # microVM swung 2x between runs with the host's memory state.
        "model": ("zoo", "vgg16", 64),
        "cluster_mhz": (1200.0, 1200.0, 1000.0, 1000.0, 800.0, 800.0, 600.0, 600.0),
        "mbps": 50.0,  # star topology
        "rho": 0.8,
        "queue_capacity": 16,
        # One round = phase A + phase B, about equal wall time at the seed
        # (~0.9 s together, so a 15 s run has ~16 rounds to rank).
        "sim_requests": 10000,
        "serve_frames": 2000,
    },
}

#: Counts that must repeat exactly for one seed (``--check``).
EXACT_COUNTS = (
    "runtime.send_bytes",
    "runtime.recv_bytes",
    "sim.events",
    "sim.replans",
    "sim.shed",
    "serve.virtual_shed",
)

#: Name prefixes of the per-layer metrics only one kind of workload
#: exercises; the virtual ones take precedence (``serve.virtual_*``).
VIRTUAL_ONLY = ("sim.", "workload.", "schemes.replan_ms", "serve.virtual_")
REAL_ONLY = ("serve.", "runtime.", "nn.", "attr.", "cost.period_rel_err")


def idle(name: str, virtual: bool) -> bool:
    """Whether per-layer metric ``name`` belongs to a layer this kind of
    workload does not exercise, so that it may read 0 ("this layer does
    no work here"); any other missing metric is an error."""
    if name.startswith(VIRTUAL_ONLY):
        return not virtual
    return virtual and name.startswith(REAL_ONLY)
