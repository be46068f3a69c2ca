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
from typing import Optional, Sequence, Tuple

from repro.adaptive.estimator import ArrivalRateTracker
from repro.adaptive.queueing import (
    average_inference_latency,
    backlog_latency,
    batched_inference_latency,
)
from repro.cluster.device import Cluster
from repro.core.plan import PipelinePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.tables import get_segment_table
from repro.models.graph import Model
from repro.schemes.base import Scheme
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme

__all__ = ["CandidatePlan", "AdaptiveSwitcher", "build_apico_switcher"]


@dataclass(frozen=True)
class CandidatePlan:
    """A pre-planned scheme with its analytic period and latency.

    ``comm_fraction`` is the communication share of the plan's service
    time (bottleneck transfers / latency) — the part of a stage that
    scales linearly with a cross-frame batch while compute is partially
    amortised.  Defaults to 0 (all-compute), the conservative choice
    when the planner did not supply a split.
    """

    name: str
    plan: PipelinePlan
    period: float
    latency: float
    comm_fraction: float = 0.0

    def estimated_latency(self, arrival_rate: float, batch: int = 1) -> float:
        if batch == 1:
            return average_inference_latency(
                self.period, self.latency, arrival_rate
            )
        return batched_inference_latency(
            self.batched_period(batch),
            self.batched_latency(batch),
            arrival_rate,
            batch,
        )

    def batched_period(self, batch: int) -> float:
        """Per-frame period with cross-frame batches of ``batch``."""
        from repro.cost.tables import batched_service

        if batch == 1:
            return self.period
        comm = self.period * self.comm_fraction
        return batched_service(comm, self.period - comm, batch) / batch

    def batched_latency(self, batch: int) -> float:
        """Pipeline traversal time of one ``batch``-frame batch."""
        from repro.cost.tables import batched_service

        if batch == 1:
            return self.latency
        comm = self.latency * self.comm_fraction
        return batched_service(comm, self.latency - comm, batch)

    def backlog_latency(self, queue_depth: int, batch: int = 1) -> float:
        """Latency seen behind ``queue_depth`` frames already in flight."""
        return backlog_latency(
            self.batched_period(batch), self.batched_latency(batch), queue_depth
        )


class AdaptiveSwitcher:
    """Chooses the candidate with the lowest Theorem 2 latency estimate."""

    def __init__(
        self,
        candidates: "Sequence[CandidatePlan]",
        tracker: Optional[ArrivalRateTracker] = None,
        hysteresis: float = 0.0,
        schemes: "Optional[Tuple[Scheme, ...]]" = None,
        batch_candidates: "Sequence[int]" = (1,),
    ) -> None:
        if not candidates:
            raise ValueError("need at least one candidate plan")
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if not batch_candidates or any(
            int(b) != b or b < 1 for b in batch_candidates
        ):
            raise ValueError("batch_candidates must be integers >= 1")
        self.candidates = tuple(candidates)
        self.tracker = tracker or ArrivalRateTracker()
        self.hysteresis = hysteresis
        #: The planners that produced the candidates — kept so the
        #: switcher can rebuild its candidate set after cluster churn.
        self.schemes = tuple(schemes) if schemes is not None else None
        #: Cross-frame batch sizes the switcher may recommend; ``(1,)``
        #: keeps batching off and reproduces the PR-5 switcher exactly.
        self.batch_candidates = tuple(sorted(set(int(b) for b in batch_candidates)))
        #: Fleet grant: when set, only candidates whose plans stay
        #: within this device set are eligible (None = unrestricted).
        self._granted: "Optional[frozenset]" = None
        self._active = self.choose(self.tracker.rate)
        self._active_batch = self.choose_batch(self.tracker.rate)

    @property
    def active(self) -> CandidatePlan:
        return self._active

    @property
    def granted(self) -> "Optional[frozenset]":
        return self._granted

    def grant(self, devices: "Optional[Sequence[str]]") -> CandidatePlan:
        """Restrict switching to plans within ``devices`` (fleet mode).

        A fleet scheduler leases each tenant a device subset; from then
        on the tenant's switcher may only activate a candidate whose
        plan touches granted devices — switching onto hardware the
        scheduler gave another tenant exclusively is not allowed.
        ``None`` lifts the restriction.  If the currently active plan
        falls outside the new grant, the best eligible candidate is
        activated immediately.  Raises :class:`ValueError` when no
        candidate fits the grant.
        """
        self._granted = None if devices is None else frozenset(devices)
        if self._granted is not None and not self._eligible():
            names = sorted(self._granted)
            self._granted = None
            raise ValueError(
                f"no candidate plan fits the granted devices {names}"
            )
        if not self._allowed(self._active):
            self._active = self.choose(self.tracker.rate)
            self._active_batch = self.choose_batch(self.tracker.rate)
        return self._active

    def _allowed(self, candidate: CandidatePlan) -> bool:
        if self._granted is None:
            return True
        return all(
            d.name in self._granted for d in candidate.plan.all_devices
        )

    def _eligible(self) -> "Tuple[CandidatePlan, ...]":
        return tuple(c for c in self.candidates if self._allowed(c))

    @property
    def active_batch(self) -> int:
        """The cross-frame batch size currently recommended for the
        active plan (1 unless ``batch_candidates`` offers more)."""
        return self._active_batch

    def choose_batch(
        self, arrival_rate: float, queue_depth: int = 0
    ) -> int:
        """The best batch size for the *active* plan (no state change).

        Scores every ``batch_candidates`` entry with the batched
        Theorem 2 estimate (forming delay + batch M/D/1 wait + batched
        execution): heavy load amortises per-frame work across the
        batch, light load pays the forming delay.  Ties break towards
        the smaller batch — including the zero-rate cold start, where
        every ``b > 1`` estimate is infinite.
        """
        return min(
            self.batch_candidates,
            key=lambda b: (
                self._score(self._active, arrival_rate, queue_depth, b),
                b,
            ),
        )

    def choose(self, arrival_rate: float, queue_depth: int = 0) -> CandidatePlan:
        """The best candidate at ``arrival_rate`` (no state change).

        When a measured ``queue_depth`` is supplied (e.g. from a serving
        queue) each candidate is scored by the *worse* of the Theorem 2
        steady-state estimate and the drain-time estimate for that
        backlog — a sudden burst shows up in the queue long before the
        EWMA rate catches up.  Ties — including the overload case where
        every estimate is infinite — break towards the shorter period,
        i.e. the plan with the most throughput headroom.  Under a fleet
        :meth:`grant` only candidates within the granted devices
        compete."""
        return min(
            self._eligible(),
            key=lambda c: (self._score(c, arrival_rate, queue_depth), c.period),
        )

    @staticmethod
    def _score(
        candidate: CandidatePlan,
        arrival_rate: float,
        queue_depth: int,
        batch: int = 1,
    ) -> float:
        estimate = candidate.estimated_latency(arrival_rate, batch)
        if queue_depth > 0:
            estimate = max(
                estimate, candidate.backlog_latency(queue_depth, batch)
            )
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

    def replan(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
    ) -> "AdaptiveSwitcher":
        """A fresh switcher with every candidate re-planned on ``cluster``.

        The churn response (paper §IV-C: re-run the planner when the
        cluster changes): each stored scheme plans the model over the
        *current* device set, keeping the arrival-rate tracker so the
        new switcher starts from the observed load, not from cold.
        Raises :class:`~repro.schemes.base.PlanningError` when no
        candidate fits the surviving cluster.
        """
        if self.schemes is None:
            raise ValueError(
                "this switcher was built without schemes; re-plan needs "
                "the planners that produced its candidates"
            )
        from repro.schemes.base import PlanningError

        candidates = []
        errors = []
        for scheme in self.schemes:
            try:
                plan = scheme.plan(model, cluster, network, options)
            except PlanningError as exc:
                errors.append(f"{scheme.name}: {exc}")
                continue
            cost = plan_cost(model, plan, network, options)
            candidates.append(
                CandidatePlan(
                    scheme.name, plan, cost.period, cost.latency,
                    comm_fraction=_comm_fraction(cost),
                )
            )
        if not candidates:
            raise PlanningError(
                "no candidate scheme fits the surviving cluster "
                f"({'; '.join(errors)})"
            )
        return AdaptiveSwitcher(
            candidates, self.tracker, self.hysteresis,
            schemes=self.schemes, batch_candidates=self.batch_candidates,
        )

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
        self._active_batch = self.choose_batch(rate, depth)
        return self._active


def _comm_fraction(cost) -> float:
    """Communication share of a plan's latency — the part of a batched
    service that scales linearly with B (see :class:`CandidatePlan`)."""
    if cost.latency <= 0:
        return 0.0
    total_comm = sum(sc.t_comm for sc in cost.stage_costs)
    return min(1.0, max(0.0, total_comm / cost.latency))


def build_apico_switcher(
    model: Model,
    cluster: Cluster,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    schemes: "Optional[Tuple[Scheme, ...]]" = None,
    tracker: Optional[ArrivalRateTracker] = None,
    hysteresis: float = 0.0,
    batch_candidates: "Sequence[int]" = (1,),
) -> AdaptiveSwitcher:
    """Plan the default APICO candidate set: PICO (pipelined) plus the
    paper's chosen one-stage scheme, AOFL/OFL (§IV-C: "we choose [8] as
    the one-stage scheme").  ``batch_candidates`` additionally lets the
    switcher score cross-frame batch sizes for the active plan.

    ``network`` may also be a :class:`~repro.sim.topology.Topology`;
    the candidates are costed against its flat summary
    (:func:`~repro.cost.comm.coerce_network`).  ``schemes`` entries may
    be :class:`Scheme` instances or registry names (``"iop"``, ...)."""
    from repro.cost.comm import coerce_network

    network = coerce_network(network)
    if schemes is None:
        schemes = (PicoScheme(), OptimalFusedScheme())
    else:
        from repro.schemes import get_scheme

        schemes = tuple(
            get_scheme(s) if isinstance(s, str) else s for s in schemes
        )
    # Prewarm the shared segment table: every candidate scheme — PICO's
    # DP and OFL's fusion search alike — and any later online re-plan
    # for the same model draws its stage costs from this single
    # vectorized table.
    get_segment_table(model, options)
    candidates = []
    for scheme in schemes:
        plan = scheme.plan(model, cluster, network, options)
        cost = plan_cost(model, plan, network, options)
        candidates.append(
            CandidatePlan(
                scheme.name, plan, cost.period, cost.latency,
                comm_fraction=_comm_fraction(cost),
            )
        )
    return AdaptiveSwitcher(
        candidates, tracker, hysteresis,
        schemes=schemes, batch_candidates=batch_candidates,
    )
