"""Scenario composition: topology × workload × churn → one run.

:func:`simulate_scenario` is the one front door to the event engine
(:func:`repro.sim.engine.run_scenario`); :func:`repro.simulate` is a
thin spelling of it.  :class:`ChurnEvent` / :func:`correlated_churn`
describe devices leaving and joining mid-run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cost.comm import NetworkModel, wifi_50mbps
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.runtime.timing import PlanTiming, plan_timing
from repro.runtime.trace import TraceEvent, coerce_tracer
from repro.sim.engine import Transmission, run_scenario, token_bus_transmissions
from repro.sim.topology import Topology

__all__ = ["ChurnEvent", "correlated_churn", "simulate_scenario"]


@dataclass(frozen=True)
class ChurnEvent:
    """One device leaving or (re)joining the cluster at ``time``."""

    time: float
    device: str
    kind: str = "leave"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("churn time must be non-negative")
        if self.kind not in ("leave", "join"):
            raise ValueError(
                f"churn kind must be 'leave' or 'join', not {self.kind!r}"
            )


def correlated_churn(
    devices: "Sequence[str]",
    at: float,
    stagger_s: float = 0.0,
    rejoin_after: Optional[float] = None,
) -> "Tuple[ChurnEvent, ...]":
    """A correlated failure burst: ``devices`` all leave around ``at``
    (``stagger_s`` apart, modelling detection skew), and optionally all
    rejoin ``rejoin_after`` seconds later — the rack-power-cut /
    WiFi-segment-drop pattern."""
    if not devices:
        raise ValueError("a churn burst needs at least one device")
    events: "List[ChurnEvent]" = []
    for i, device in enumerate(devices):
        leave_at = at + i * stagger_s
        events.append(ChurnEvent(leave_at, device, "leave"))
        if rejoin_after is not None:
            events.append(ChurnEvent(leave_at + rejoin_after, device, "join"))
    return tuple(sorted(events, key=lambda e: (e.time, e.device)))


def _topology_transmissions(topology: Topology, network: NetworkModel):
    """Per-stage :class:`Transmission` templates: invert the flat-model
    communication times back to bytes, then route anchor → device over
    the topology (see :meth:`PlanTiming.stage_transfers`)."""

    def for_timing(timing: PlanTiming):
        return tuple(
            tuple(
                Transmission(topology.route(src, dst), nbytes)
                for src, dst, nbytes in stage
            )
            for stage in timing.stage_transfers(network, entry=topology.entry)
        )

    return for_timing


def simulate_scenario(
    model,
    plan_or_scheme,
    cluster=None,
    *,
    topology: Optional[Topology] = None,
    network: Optional[NetworkModel] = None,
    arrivals=None,
    options: Optional[CostOptions] = None,
    churn: "Sequence[ChurnEvent]" = (),
    faults=None,
    measured_services: "Optional[Sequence[float]]" = None,
    trace=None,
    queue_capacity: Optional[int] = None,
    seed: int = 0,
    keep_records: bool = True,
):
    """Simulate ``plan_or_scheme`` serving ``arrivals`` on a cluster.

    ``plan_or_scheme`` is a scheme name (``"pico"``, ``"lw"``, ``"efl"``,
    ``"ofl"``, ``"iop"``), a :class:`~repro.schemes.Scheme` — both
    planned over ``cluster`` first — a ready
    :class:`~repro.core.plan.PipelinePlan`, or an
    :class:`~repro.adaptive.switcher.AdaptiveSwitcher` (APICO replay:
    the switcher sees each arrival and the live queue depth).

    * ``topology`` — a :class:`~repro.sim.topology.Topology`; transfers
      route hop by hop with per-link FIFO contention.  The default
      :meth:`Topology.bus` is the paper's single WLAN (``network``,
      50 Mbps WiFi unless given) with communication folded into stage
      service; ``Topology.bus(network, contended=True)`` serialises
      every stage's transfer over that one link.
    * ``arrivals`` — an :class:`~repro.workload.ArrivalProcess`
      (streamed lazily under ``numpy.random.default_rng(seed)``) or a
      plain sequence of submit times.  ``queue_capacity`` bounds the
      tasks concurrently in the system: overflow arrivals are shed and
      reported in ``SimResult.shed``.
    * ``churn`` / ``faults`` — devices leave and join mid-run, by time
      (:class:`ChurnEvent`; :func:`correlated_churn` builds the rack
      power cut / WiFi segment drop that independent per-device
      schedules cannot express; a device whose first event is a
      ``join`` starts outside the cluster) or by arrival count
      (:class:`~repro.runtime.faults.FaultSchedule`: each
      ``crash(device, at_frame)`` kills its device once ``at_frame``
      arrivals have entered the system, every device due on one arrival
      before a single re-plan).  Both need a scheme plus ``cluster`` and
      share one step: mark the live set, re-plan the survivors with
      :func:`~repro.runtime.faults.replan_or_degrade` — the decision the
      fault-tolerance layer makes — and emit ``device_dead`` /
      ``device_join`` / ``replan`` / ``degraded`` events, stamped frame
      ``-1`` (time) or the arrival's index (crash).  The new pipeline
      takes over at the next service boundary, like an adaptive switch.
      Frame-level faults (delay, drop, flaky link) have no event-level
      counterpart — use :class:`~repro.runtime.core.SimTransport`.
    * ``measured_services`` — measured wall-clock seconds per stage of
      the initial plan in place of the analytic ones (e.g. timed from
      a traced :meth:`~repro.serve.PipelineServer.serve`).

    ``trace`` is the shared ``Tracer | bool | None`` contract; events
    land in ``SimResult.trace``.  ``keep_records=False`` returns a
    constant-memory :class:`~repro.sim.result.SimStats` instead of a
    full :class:`~repro.sim.result.SimResult` — the million-request
    mode.  It has nowhere to put a trace, so ``trace=True`` is refused
    there; a caller-owned :class:`~repro.runtime.trace.Tracer` still
    collects (and its memory is the caller's to bound).
    """
    from repro.adaptive.switcher import AdaptiveSwitcher
    from repro.cluster.device import Cluster
    from repro.core.plan import PipelinePlan
    from repro.runtime.faults import replan_or_degrade
    from repro.schemes import Scheme, get_scheme

    if trace is True and not keep_records:
        raise ValueError(
            "trace=True with keep_records=False would mint a Tracer nobody "
            "can read (SimStats carries no trace) and grow it without "
            "bound; pass your own Tracer, or keep_records=True"
        )
    tracer = coerce_tracer(trace)
    if topology is None:
        topology = Topology.bus(network or wifi_50mbps())
    network = network or topology.as_network_model()
    options = options or DEFAULT_OPTIONS
    churn_events = tuple(churn)
    # devices with a crash still to fire, asked of the schedule's injector
    crashing = {c.device for c in faults.crashes} if faults is not None else set()

    if arrivals is None:
        raise ValueError(
            "simulate_scenario() needs arrivals= (an ArrivalProcess or "
            "a sequence of submit times)"
        )
    if hasattr(arrivals, "times"):  # an ArrivalProcess
        arrival_iter: "Iterator[float]" = arrivals.times(
            np.random.default_rng(seed)
        )
    else:
        arrival_iter = iter(sorted(float(t) for t in arrivals))

    if topology.is_bus and not topology.contended:
        transmissions_for = None
    elif topology.is_bus:
        transmissions_for = token_bus_transmissions(topology.links[0])
    else:
        transmissions_for = _topology_transmissions(topology, network)

    # -- resolve the plan side ----------------------------------------
    if isinstance(plan_or_scheme, str):
        plan_or_scheme = get_scheme(plan_or_scheme)
    if not isinstance(
        plan_or_scheme, (PipelinePlan, Scheme, AdaptiveSwitcher)
    ):
        raise TypeError(
            "plan_or_scheme must be a PipelinePlan, Scheme, scheme name or "
            f"AdaptiveSwitcher, not {type(plan_or_scheme).__name__}"
        )
    scheme = plan_or_scheme if isinstance(plan_or_scheme, Scheme) else None
    if scheme is not None and cluster is None:
        raise ValueError("a scheme needs cluster= to plan over")
    state: "Dict[str, PlanTiming]" = {}
    on_churn = pick = None

    if isinstance(plan_or_scheme, AdaptiveSwitcher):
        for what, given in (
            ("churn", churn_events),
            ("faults", faults is not None and not faults.empty),
        ):
            if given:
                raise ValueError(
                    f"{what}= is not supported with an AdaptiveSwitcher "
                    "replay; pass a scheme so the survivors can be "
                    "re-planned"
                )
        if measured_services is not None:
            raise ValueError(
                "measured_services= times one plan's stages; it is not "
                "supported with an AdaptiveSwitcher replay"
            )
        switcher = plan_or_scheme
        timings = switcher.plan_timings(model, network, options)
        state["timing"] = timings[switcher.active.name]

        def pick(now: float, depth: int) -> PlanTiming:
            active = switcher.on_arrival(now, queue_depth=depth)
            return timings[active.name]

    elif scheme is None:
        if churn_events or crashing:
            raise ValueError(
                f"simulating {'churn' if churn_events else 'crash churn'} "
                "needs a scheme (or scheme name) to re-plan the survivors "
                "— a bare plan cannot be rebuilt"
            )
        state["timing"] = plan_timing(
            model, plan_or_scheme, network, options,
            name=plan_or_scheme.mode, measured_services=measured_services,
        )
    else:
        names = {d.name for d in cluster}
        unknown = sorted(
            ({e.device for e in churn_events} | crashing) - names
        )
        if unknown:
            raise ValueError(
                f"churn names devices not in the cluster: "
                f"{', '.join(unknown)}"
            )
        # Devices whose first churn event is a join start outside.
        first_kind: "Dict[str, str]" = {}
        for event in sorted(churn_events, key=lambda e: e.time):
            first_kind.setdefault(event.device, event.kind)
        live = {name for name in names if first_kind.get(name) != "join"}
        if not live:
            raise ValueError("every device joins mid-run; none left to plan")

        def plan_over(members) -> "PipelinePlan":
            return scheme.plan(model, members, network, options)

        state["timing"] = plan_timing(
            model,
            plan_over(Cluster(tuple(d for d in cluster if d.name in live))),
            network, options,
            name=scheme.name, measured_services=measured_services,
        )

        def apply(changes, frame: int, now: float) -> Optional[PlanTiming]:
            """Mark each ``(kind, device)`` change on the live set, then
            re-plan the survivors once (or degrade) and adopt the new
            timing; ``None`` when every change was a no-op."""
            stale = True
            for kind, device in changes:
                if (kind == "join") == (device in live):
                    continue
                (live.add if kind == "join" else live.discard)(device)
                stale = False
                if tracer is not None:
                    traced = "device_join" if kind == "join" else "device_dead"
                    tracer.emit(TraceEvent(traced, frame, 0, device, now, now))
            if stale:
                return None
            fresh, outcome = replan_or_degrade(
                model, (d for d in cluster if d.name in live), plan_over
            )
            state["timing"] = plan_timing(
                model, fresh, network, options,
                name=f"{scheme.name}+{outcome}",
            )
            if tracer is not None:
                dead = ",".join(sorted(names - live))
                tracer.emit(TraceEvent(outcome, frame, 0, dead, now, now))
            return state["timing"]

        if churn_events:

            def on_churn(now: float, event: ChurnEvent):
                return apply([(event.kind, event.device)], -1, now)

        if crashing:
            frames, injector = itertools.count(), faults.start()

            def pick(now: float, depth: int) -> PlanTiming:
                index = next(frames)
                due = sorted(d for d in crashing if injector.crashed(d, index))
                crashing.difference_update(due)
                apply([("leave", d) for d in due], index, now)
                return state["timing"]

    return run_scenario(
        arrival_iter,
        state["timing"],
        pick or (lambda now, depth: state["timing"]),
        transmissions_for=transmissions_for,
        churn=[(e.time, e) for e in churn_events],
        on_churn=on_churn,
        tracer=tracer,
        queue_capacity=queue_capacity,
        keep_records=keep_records,
    )
