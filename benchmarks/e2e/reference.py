"""The host-speed reference: a fixed kernel timed all through a run.

The builder's and the driver's hosts are few-vCPU microVMs whose
delivered speed moves by 20-70 % in sub-second bursts and in spells of
minutes (README, "Host noise"); a fixed single-threaded kernel slows
with the program by the same factor (correlation 0.97 over 3 s blocks)
when it does the program's kind of work.  What slows the host slows the
interpreter more than BLAS, so there are two kernels (``KERNELS``): the
workloads that compute in worker processes are set beside an sgemm, the
virtual workload, which is all interpreter, beside a heap-and-dict loop.
``run.py`` therefore keeps one *sampler* process alive during every run:
each ``PERIOD_S`` it runs the workload's kernel once and appends
``<perf_counter at start> <CPU seconds used>`` to a file.
CPU time, not wall time, so that a sample the workload preempted reads
the same.  The children read the file and express every measured
duration in *reference seconds*: wall seconds x ``speed(t0, t1)``, where
``speed`` is ``NOMINAL_S`` over the mean sample inside the interval —
the time the work would have taken on a host on which the kernel always
takes ``NOMINAL_S``.

The kernels are numpy's and the interpreter's, not the program's: a
change under ``src/`` cannot move them.  ``time.perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, so its readings compare across the
processes of a run.
"""

from __future__ import annotations

import heapq
import os
import signal
import sys
import time

from . import metrics as M

#: Seconds between samples.  One sample is ~2.5 ms of CPU, so the sampler
#: keeps one core ~5 % busy; that load is part of every run of every commit.
PERIOD_S = 0.05

#: CPU seconds one sample of either kernel takes on the nominal host (the
#: builder's host in a quiet hour, workers running).  Only a scale: it
#: makes reference seconds read like seconds.
NOMINAL_S = 2.5e-3

#: The sgemm kernel: (M x K) @ (K x N) in float32, 0.3 GFLOP.
KERNEL_SHAPE = (256, 576, 1024)

#: The interpreter kernel: this many heap pushes of a fresh tuple, each
#: with a dict store, every second one followed by a pop — what an event
#: simulator's inner loop does.
INTERP_STEPS = 4000

#: Fewest samples an interval is judged on; a shorter interval is
#: widened on both sides until it holds that many.
MIN_SAMPLES = 4
WIDEN_S = 0.1
WIDEN_LIMIT_S = 2.0


class Reference:
    """Reader of the sampler's file."""

    def __init__(self, path: str) -> None:
        self.path = path

    def samples(self) -> "list":
        out = []
        with open(self.path) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and line.endswith("\n"):  # skip a torn last line
                    out.append((float(parts[0]), float(parts[1])))
        return out

    def speed(self, t0: float, t1: float) -> float:
        """Host speed over ``[t0, t1]`` (perf_counter readings) relative
        to the nominal host: below 1 when the host is slower."""
        samples = self.samples()
        pad = 0.0
        while True:
            inside = M.samples_between(samples, t0 - pad, t1 + pad)
            if len(inside) >= MIN_SAMPLES:
                return NOMINAL_S / (sum(inside) / len(inside))
            if pad >= WIDEN_LIMIT_S:
                raise RuntimeError(
                    f"host-speed reference has {len(inside)} samples near "
                    f"[{t0:.3f}, {t1:.3f}]; is the sampler running?"
                )
            pad += WIDEN_S
            if t1 + pad > time.perf_counter():
                time.sleep(WIDEN_S)  # the samples after t1 are still to come
                samples = self.samples()


def _sgemm_kernel():
    import numpy as np  # the parent imports this module without numpy

    m, k, n = KERNEL_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    out = np.empty((m, n), np.float32)
    return lambda: np.dot(a, b, out=out)


def _interp_kernel():
    def kernel() -> None:
        heap, seen, x = [], {}, 12345
        for i in range(INTERP_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x, i))
            seen[x & 255] = i
            if i & 1:
                heapq.heappop(heap)

    return kernel


KERNELS = {"sgemm": _sgemm_kernel, "interp": _interp_kernel}


def sample_forever(path: str, kernel_name: str) -> None:
    kernel = KERNELS[kernel_name]()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    kernel()
    with open(path, "a") as handle:
        while os.getppid() == parent:  # never outlive a killed run.py
            at = time.perf_counter()
            cpu0 = time.process_time()
            kernel()
            cpu = time.process_time() - cpu0
            handle.write(f"{at!r} {cpu!r}\n")
            handle.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    sample_forever(sys.argv[1], sys.argv[2])  # run.py exports the BLAS pinning
