"""Task arrival generators.

The paper's evaluation feeds the cluster Poisson arrivals whose rate is
a fraction (40–150 %) of the *cluster capacity* — defined as the
Early-Fused-Layer scheme's throughput — plus a saturation mode for
measuring maximum throughput.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

import numpy as np

__all__ = [
    "ArrivalProcess",
    "poisson_arrivals",
    "poisson_arrivals_count",
    "uniform_arrivals",
    "saturation_arrivals",
]


def _default_rng(rng) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(0)


class ArrivalProcess:
    """A lazy, reproducible stream of task submit times.

    Subclasses implement :meth:`times` (a nondecreasing iterator of
    seconds) and :meth:`rate_at` (the nominal instantaneous rate, for
    rate-envelope tests and capacity planning).  Iterating the process
    itself uses the default fixed seed.
    """

    #: End of the process's support (``inf`` for count-bounded ones).
    horizon_s: float = math.inf

    def times(self, rng: Optional[np.random.Generator] = None) -> Iterator[float]:
        raise NotImplementedError

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def sample(self, rng: Optional[np.random.Generator] = None) -> "List[float]":
        """Materialise the whole stream (all processes are finite)."""
        return list(self.times(rng))

    def __iter__(self) -> Iterator[float]:
        return self.times()


def iter_poisson(
    rate: float,
    horizon_s: float,
    n_tasks: Optional[int],
    rng: np.random.Generator,
) -> Iterator[float]:
    """The package's one Poisson gap loop: arrivals at ``rate``/s until
    ``horizon_s`` or ``n_tasks`` of them, whichever comes first.  Every
    list helper and lazy process draws through it, which is what makes
    them draw-for-draw identical under one generator."""
    t, emitted = 0.0, 0
    while n_tasks is None or emitted < n_tasks:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon_s:
            return
        emitted += 1
        yield t


def iter_uniform(rate: float, horizon_s: float) -> Iterator[float]:
    """Evenly spaced arrivals, the first one gap after t=0."""
    gap = 1.0 / rate
    t = gap
    while t < horizon_s:
        yield t
        t += gap


def poisson_arrivals(
    rate: float, horizon_s: float, rng: Optional[np.random.Generator] = None
) -> "List[float]":
    """Poisson-process arrival times in ``[0, horizon_s)`` at ``rate``/s.

    Without an explicit ``rng`` the trace is drawn from a fixed seed —
    every generator in this package is deterministic by default so two
    runs of the same experiment see the same workload.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    if rate == 0:
        return []
    return list(iter_poisson(rate, horizon_s, None, rng or np.random.default_rng(0)))


def poisson_arrivals_count(
    rate: float, n_tasks: int, rng: Optional[np.random.Generator] = None
) -> "List[float]":
    """Exactly ``n_tasks`` Poisson arrivals at ``rate``/s (fixed seed
    unless ``rng`` is supplied — see :func:`poisson_arrivals`)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if n_tasks < 0:
        raise ValueError("n_tasks must be non-negative")
    rng = rng or np.random.default_rng(0)
    gaps = rng.exponential(1.0 / rate, size=n_tasks)
    return list(np.cumsum(gaps))


def uniform_arrivals(rate: float, horizon_s: float) -> "List[float]":
    """Deterministic, evenly spaced arrivals (useful for exact tests)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    return list(iter_uniform(rate, horizon_s))


def saturation_arrivals(n_tasks: int) -> "List[float]":
    """All tasks queued at t=0 — measures a plan's maximum throughput."""
    if n_tasks <= 0:
        raise ValueError("n_tasks must be positive")
    return [0.0] * n_tasks
