"""APICO: adaptive parallel-scheme switching (paper §IV-C).

Under heavy load the pipelined plan's short period slashes queueing
delay; under light load a one-stage plan finishes each lone task faster
because every device works on it.  The switcher scores each candidate
plan with the Theorem 2 estimate at the current (EWMA-smoothed) arrival
rate and activates the argmin.  An optional hysteresis margin prevents
flapping around crossover points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.adaptive.estimator import ArrivalRateTracker
from repro.adaptive.queueing import average_inference_latency, backlog_latency
from repro.cluster.device import Cluster
from repro.core.plan import PipelinePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import get_segment_table
from repro.models.graph import Model
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme

__all__ = ["CandidatePlan", "AdaptiveSwitcher", "build_apico_switcher"]


@dataclass(frozen=True)
class CandidatePlan:
    """A pre-planned scheme with its analytic period and latency."""

    name: str
    plan: PipelinePlan
    period: float
    latency: float

    def estimated_latency(self, arrival_rate: float) -> float:
        return average_inference_latency(self.period, self.latency, arrival_rate)

    def backlog_latency(self, queue_depth: int) -> float:
        """Latency seen behind ``queue_depth`` frames already in flight."""
        return backlog_latency(self.period, self.latency, queue_depth)


class AdaptiveSwitcher:
    """Chooses the candidate with the lowest Theorem 2 latency estimate."""

    def __init__(
        self,
        candidates: "Sequence[CandidatePlan]",
        tracker: Optional[ArrivalRateTracker] = None,
        hysteresis: float = 0.0,
    ) -> None:
        if not candidates:
            raise ValueError("need at least one candidate plan")
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.candidates = tuple(candidates)
        self.tracker = tracker or ArrivalRateTracker()
        self.hysteresis = hysteresis
        self._active = self.choose(self.tracker.rate)

    @property
    def active(self) -> CandidatePlan:
        return self._active

    def choose(self, arrival_rate: float, queue_depth: int = 0) -> CandidatePlan:
        """The best candidate at ``arrival_rate`` (no state change).

        When a measured ``queue_depth`` is supplied (e.g. from a serving
        queue) each candidate is scored by the *worse* of the Theorem 2
        steady-state estimate and the drain-time estimate for that
        backlog — a sudden burst shows up in the queue long before the
        EWMA rate catches up.  Ties — including the overload case where
        every estimate is infinite — break towards the shorter period,
        i.e. the plan with the most throughput headroom."""
        return min(
            self.candidates,
            key=lambda c: (self._score(c, arrival_rate, queue_depth), c.period),
        )

    @staticmethod
    def _score(
        candidate: CandidatePlan, arrival_rate: float, queue_depth: int
    ) -> float:
        estimate = candidate.estimated_latency(arrival_rate)
        if queue_depth > 0:
            estimate = max(estimate, candidate.backlog_latency(queue_depth))
        return estimate

    def plan_timings(
        self,
        model: Model,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
    ) -> "dict":
        """Per-candidate runtime timing tables from the shared core.

        The event simulator replays a switcher with these; building
        them here keeps every candidate's service model in the same
        tables the frame-level backends stamp their traces with.
        """
        from repro.runtime.timing import plan_timing

        return {
            c.name: plan_timing(model, c.plan, network, options, name=c.name)
            for c in self.candidates
        }

    def on_arrival(
        self, now: float, queue_depth: Optional[int] = None
    ) -> CandidatePlan:
        """Record an arrival; switch the active plan if another candidate
        beats the current one by more than the hysteresis margin.

        ``queue_depth`` — the number of frames already admitted and not
        yet completed, when the caller serves a real queue — folds the
        measured backlog into every candidate's score (see
        :meth:`choose`).  Overload is special-cased: when the active
        plan is saturated (infinite estimate), any plan with more
        throughput headroom is adopted immediately — hysteresis must
        never pin the cluster to a plan that cannot keep up."""
        rate = self.tracker.observe(now)
        depth = queue_depth or 0
        best = self.choose(rate, depth)
        if best.name != self._active.name:
            current_est = self._score(self._active, rate, depth)
            best_est = self._score(best, rate, depth)
            if current_est == float("inf"):
                if best_est < current_est or best.period < self._active.period:
                    self._active = best
            elif best_est <= current_est * (1.0 - self.hysteresis):
                self._active = best
        return self._active


def build_apico_switcher(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    tracker: Optional[ArrivalRateTracker] = None,
) -> AdaptiveSwitcher:
    """Plan the default APICO candidate set: PICO (pipelined) plus the
    paper's chosen one-stage scheme, AOFL/OFL (§IV-C: "we choose [8] as
    the one-stage scheme").

    ``network`` may also be a :class:`~repro.sim.topology.Topology`;
    the candidates are costed against its flat summary
    (:func:`~repro.cost.comm.coerce_network`)."""
    from repro.cost.comm import coerce_network

    network = coerce_network(network)
    # Prewarm the shared segment table: both candidate schemes — PICO's
    # DP and OFL's fusion search alike — draw their stage costs from
    # this single vectorized table.
    get_segment_table(model, options)
    candidates = []
    for scheme in (PicoScheme(), OptimalFusedScheme()):
        plan = scheme.plan(model, cluster, network, options)
        cost = plan_cost(model, plan, network, options)
        candidates.append(CandidatePlan(scheme.name, plan, cost.period, cost.latency))
    return AdaptiveSwitcher(candidates, tracker)
