"""Shared fixtures: small models, clusters and networks used across the suite."""

from __future__ import annotations

import glob
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.runtime.coordinator import ShmTransport, TcpTransport
from repro.runtime.scheduler import StageScheduler
from repro.runtime.shm import SHM_PREFIX
from repro.serve import PipelineServer, ServerConfig
from repro.serve import server as server_module

WORKER_TRANSPORTS = {"tcp": TcpTransport, "shm": ShmTransport}


@pytest.fixture
def network() -> NetworkModel:
    """The paper's 50 Mbps WiFi."""
    return NetworkModel.from_mbps(50.0)


@pytest.fixture
def fast_network() -> NetworkModel:
    """A near-free network, for isolating compute effects."""
    return NetworkModel.from_mbps(10000.0)


@pytest.fixture
def homo4():
    return pi_cluster(4, 1000)


@pytest.fixture
def homo8():
    return pi_cluster(8, 600)


@pytest.fixture
def hetero4():
    return heterogeneous_cluster([1200, 1000, 800, 600])


@pytest.fixture
def hetero8():
    return heterogeneous_cluster([1200, 1200, 800, 800, 600, 600, 600, 600])


@pytest.fixture
def small_model():
    """A 4-conv / 1-pool chain on 32×32 RGB input — fast to execute."""
    return toy_chain(4, 1, input_hw=32, in_channels=3, base_channels=8)


@pytest.fixture
def medium_model():
    """A 6-conv / 2-pool chain on 48×48 input."""
    return toy_chain(6, 2, input_hw=48, in_channels=3, base_channels=8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _no_global_rng_use():
    """Seed-discipline guard: fail any test that draws from NumPy's
    *global* RNG (``np.random.rand`` and friends).

    Library and test code must thread explicit
    ``np.random.default_rng(seed)`` generators; a global draw makes a
    test's output depend on execution order, the classic source of
    nondeterministic suites.  The guard seeds the global state to a
    fixed value before each test and asserts it is untouched after.
    """
    np.random.seed(0)
    before = np.random.get_state()
    yield
    after = np.random.get_state()
    same = before[0] == after[0] and all(
        np.array_equal(a, b) for a, b in zip(before[1:], after[1:])
    )
    assert same, (
        "test consumed NumPy's global RNG (np.random.*) — use an "
        "explicit np.random.default_rng(seed) generator instead"
    )


def serve_on_workers(
    model, plan, weights, xs, transport="tcp", *, faults=None, config=None
):
    """Serve ``xs`` through worker processes, every frame admitted at
    once (``policy="block"``), traced; returns ``(ServeResult, backend)``
    — the closed batch run of the wall-clock runtime."""
    backend = WORKER_TRANSPORTS[transport](model, weights, faults=faults)
    with PipelineServer.from_plan(
        model, plan, backend,
        config=ServerConfig(queue_capacity=max(1, len(xs)), policy="block"),
        tracer=True, runtime_config=config,
    ) as server:
        served = server.serve(xs)
    return served, backend


@pytest.fixture
def schedulers(monkeypatch):
    """Watch the schedulers ``PipelineServer`` builds: ``built`` lists
    them in order, and ``queued`` is set once a serve has submitted its
    last frame (a stage gated on it sees every frame queued)."""
    watch = SimpleNamespace(built=[], queued=threading.Event())

    class Watched(StageScheduler):
        def __init__(self, *args, **kwargs) -> None:
            watch.built.append(self)  # before the stage threads start
            super().__init__(*args, **kwargs)

        def submit(self, frame, x, block=True, last=False) -> bool:
            admitted = super().submit(frame, x, block, last)
            if last:
                watch.queued.set()
            return admitted

    monkeypatch.setattr(server_module, "StageScheduler", Watched)
    return watch


def own_shm_segments() -> "list[str]":
    """The ``/dev/shm`` ring segments this process created.  Every ring
    is created on the coordinator side, here, and named
    ``repro_shm_<pid>_<seq>``; another process's rings (a live
    benchmark's, a second test run's) are not this test's to count or
    unlink."""
    return glob.glob(f"/dev/shm/{SHM_PREFIX}{os.getpid()}_*")


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    """Resource-hygiene guard: fail any test that leaves a shared-memory
    ring segment of this process behind in ``/dev/shm``.

    Every :class:`repro.runtime.shm.ShmRing` the creator side opens must
    be unlinked by the time the test ends — through ``close()``, the
    fault ladder, or the atexit sweep.  A leaked segment outlives the
    process and eats tmpfs until reboot, so treat it as a test failure
    (after best-effort cleanup so one leak doesn't cascade).
    """
    if not os.path.isdir("/dev/shm"):  # non-Linux: nothing to guard
        yield
        return
    before = set(own_shm_segments())
    yield
    leaked = set(own_shm_segments()) - before
    for path in leaked:
        try:
            os.unlink(path)
        except OSError:
            pass
    assert not leaked, (
        f"test leaked shared-memory segments: {sorted(leaked)} — every "
        "ShmRing creator must destroy() its rings (ShmTransport.close "
        "does this; bare rings in tests must clean up explicitly)"
    )
