"""Shared thread pool for intra-node parallel execution.

Numpy's BLAS kernels release the GIL, so independent convolutions —
inception branches of a :class:`~repro.models.graph.BlockUnit`, or the
per-device tiles of a plan executed locally — genuinely overlap on a
multi-core host when dispatched from threads.  This module owns one
process-wide :class:`~concurrent.futures.ThreadPoolExecutor` shared by
the engine, the tile runtime and the local plan executor.

The worker count comes from the ``REPRO_THREADS`` environment variable
(default: the cores this process may use).  ``REPRO_THREADS=1`` — or a
single-core host, like the paper's Raspberry Pi 3s — disables the pool
entirely and every caller falls back to plain serial loops, so the
serial path stays the behavioural reference.  Nested :func:`run_parallel`
calls from inside a pool worker also run serially, which both avoids
pool-starvation deadlocks and keeps the work units coarse.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = [
    "configured_threads",
    "set_threads",
    "get_pool",
    "run_parallel",
    "shutdown_pool",
]

_T = TypeVar("_T")

_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_threads: Optional[int] = None


class _Flags(threading.local):
    inside_pool = False


_flags = _Flags()


def _reset_after_fork() -> None:
    """A forked child inherits the pool object but none of its threads
    (a submit would wait forever), and the lock possibly held: start
    the child with no pool, a fresh lock and a serial-nesting flag that
    belongs to no pool worker."""
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None
    _flags.inside_pool = False


os.register_at_fork(after_in_child=_reset_after_fork)


def _default_threads() -> int:
    env = os.environ.get("REPRO_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"REPRO_THREADS={env!r} is not an integer") from exc
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


def configured_threads() -> int:
    """The worker count currently in effect."""
    global _threads
    with _lock:
        if _threads is None:
            _threads = _default_threads()
        return _threads


def set_threads(n: Optional[int]) -> None:
    """Override the worker count (``None`` re-reads the environment).

    Tears down any existing pool; the next :func:`run_parallel` call
    builds a fresh one.  Intended for tests and benchmarks.
    """
    global _pool, _threads
    if n is not None and n < 1:
        raise ValueError("thread count must be >= 1")
    with _lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None
        _threads = n


def shutdown_pool() -> None:
    """Stop the shared pool (it is rebuilt lazily on next use)."""
    global _pool
    with _lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None


def get_pool() -> Optional[ThreadPoolExecutor]:
    """The shared executor, or ``None`` when running serially."""
    global _pool
    n = configured_threads()
    if n <= 1:
        return None
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=n, thread_name_prefix="repro-nn"
            )
        return _pool


def run_parallel(thunks: "Sequence[Callable[[], _T]]") -> "List[_T]":
    """Run thunks concurrently on the shared pool, preserving order.

    Falls back to a plain serial loop when the pool is disabled, when
    there is a single thunk, or when called from inside a pool worker
    (nested fan-out).  Exceptions propagate to the caller either way.
    """
    if len(thunks) <= 1 or _flags.inside_pool:
        return [thunk() for thunk in thunks]
    pool = get_pool()
    if pool is None:
        return [thunk() for thunk in thunks]

    def call(thunk: "Callable[[], _T]") -> _T:
        _flags.inside_pool = True
        try:
            return thunk()
        finally:
            _flags.inside_pool = False

    futures = [pool.submit(call, thunk) for thunk in thunks]
    return [future.result() for future in futures]
