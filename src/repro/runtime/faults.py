"""Fault model of the runtime core: detection, injection, recovery policy.

IoT edge clusters treat device churn as the normal case — a Pi drops
off WiFi mid-frame, a worker process dies, a link stalls.  This module
defines the three pieces every backend shares:

* :class:`RuntimeConfig` — the knobs of the fault-tolerance layer
  (the worker receive deadline and the re-plan threshold; retries back
  off by the fixed :data:`MAX_RETRIES` / :func:`backoff` schedule),
  threaded through
  :func:`~repro.runtime.core.collect_stage` and the executors.
* :class:`FaultSchedule` — a deterministic fault-injection script
  (crash-at-frame, compute delay, dropped result, flaky link) honored
  by :class:`~repro.runtime.core.SimTransport` and
  :class:`~repro.runtime.core.InProcTransport` — and, crashes and
  delays only, by the worker processes of the socket transports — so
  every recovery path is reproducible and testable without real
  hardware dying.
* the failure exceptions — :class:`TransientTaskError` (retry with
  backoff), :class:`DeviceDead` (repartition and replay the stage) and
  :class:`StageFailure` (a stage lost every device).

Recovery emits the extended trace kinds
(:data:`~repro.runtime.trace.RECOVERY_KINDS`): ``device_dead`` when a
device is first declared dead, ``retry`` per backoff attempt,
``frame_replayed`` when a stage is replayed from its input boundary,
and ``replan``/``degraded`` when :class:`PlanDoor`, the one place a
plan changes, adopts a fresh plan over the survivors (or one device).

A death is a device name in the transport's dead set, whichever way it
was found; every role the device held leaves with it.  The in-process
and simulated backends repartition with the ``"migrate"`` policy: a
dead device's *compiled* tasks move wholesale to survivors, keeping
every tile's geometry — and therefore every GEMM reduction order —
identical to the fault-free run, so recovered outputs are
**bit-identical** (the
``tests/test_faults.py::test_crash_recovery_bit_exact`` gate).  The
worker-process backends ``"rebalance"`` instead: they re-split the
stage capacity-weighted over the survivors (only float-close, since
each worker holds one tile program).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, NamedTuple, Optional, Tuple

from repro.runtime.program import compile_plan
from repro.runtime.trace import TraceEvent

__all__ = [
    "RuntimeConfig",
    "MAX_RETRIES",
    "backoff",
    "FaultSchedule",
    "FaultInjector",
    "TransientTaskError",
    "DeviceDead",
    "StageFailure",
    "replan_or_degrade",
    "PlanChange",
    "PlanDoor",
]


class StageFailure(RuntimeError):
    """A stage lost all of its workers."""


class DeviceDead(RuntimeError):
    """A device is gone for good; its stage must repartition and replay."""

    def __init__(self, device: str, reason: str = "crashed") -> None:
        super().__init__(f"device {device!r} {reason}")
        self.device = device


class TransientTaskError(RuntimeError):
    """A task attempt failed but the device may recover — retry it."""

    def __init__(self, device: str, reason: str = "transient failure") -> None:
        super().__init__(f"device {device!r}: {reason}")
        self.device = device


#: Retries of a transiently failed stage before it escalates to
#: :class:`StageFailure`.
MAX_RETRIES = 3
#: The exponential backoff before retry ``n``: ``BACKOFF_BASE_S *
#: BACKOFF_FACTOR**n`` seconds.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0


def backoff(attempt: int) -> float:
    """Seconds to back off before retry number ``attempt`` (0-based)."""
    return BACKOFF_BASE_S * BACKOFF_FACTOR ** attempt


@dataclass(frozen=True)
class RuntimeConfig:
    """Fault-tolerance knobs shared by every executor.

    ``recv_timeout_s`` bounds the coordinator's receives from worker
    processes (``None`` = block forever): a worker that stays silent
    past it — alive but wedged — is declared dead like one whose
    socket closed.  Transient task failures are retried up to
    :data:`MAX_RETRIES` times with exponential backoff
    ``BACKOFF_BASE_S * BACKOFF_FACTOR**n`` (:func:`backoff`).  When the
    dead devices' share of cluster capacity *exceeds*
    ``replan_threshold`` the :class:`PlanDoor` re-plans over the
    survivors, on either clock; below it, recovery stays local to the
    affected stages.
    """

    recv_timeout_s: Optional[float] = None
    replan_threshold: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.replan_threshold <= 1.0:
            raise ValueError("replan_threshold must be in [0, 1]")
        if self.recv_timeout_s is not None and self.recv_timeout_s <= 0:
            raise ValueError("recv_timeout_s must be positive or None")


@dataclass(frozen=True)
class _Crash:
    device: str
    at_frame: int


@dataclass(frozen=True)
class _Delay:
    device: str
    frame: int
    seconds: float


@dataclass(frozen=True)
class _Drop:
    device: str
    frame: int
    times: int


@dataclass(frozen=True)
class _FlakyLink:
    device: str
    frame: int
    failures: int


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, chainable fault-injection script.

    Build one declaratively::

        faults = (FaultSchedule()
                  .crash("pi1", at_frame=2)
                  .drop("pi0", frame=0)
                  .flaky_link("pi2", frame=1)
                  .delay("pi3", frame=0, seconds=0.2))

    and hand it to ``faults=`` of any transport (worker processes act
    out crashes and delays only) or to
    :func:`repro.simulate`.  The
    schedule itself is pure data; :meth:`start` mints the mutable
    per-run :class:`FaultInjector`, so one schedule can drive any
    number of runs deterministically.
    """

    crashes: Tuple[_Crash, ...] = ()
    delays: Tuple[_Delay, ...] = ()
    drops: Tuple[_Drop, ...] = ()
    flaky_links: Tuple[_FlakyLink, ...] = ()

    def crash(self, device: str, at_frame: int) -> "FaultSchedule":
        """Kill ``device`` permanently from frame ``at_frame`` onward."""
        if at_frame < 0:
            raise ValueError("at_frame must be non-negative")
        return replace(
            self, crashes=self.crashes + (_Crash(device, at_frame),)
        )

    def delay(
        self, device: str, frame: int, seconds: float
    ) -> "FaultSchedule":
        """Stall ``device``'s compute on ``frame`` by ``seconds``."""
        if seconds < 0:
            raise ValueError("delay must be non-negative")
        return replace(
            self, delays=self.delays + (_Delay(device, frame, seconds),)
        )

    def drop(
        self, device: str, frame: int, times: int = 1
    ) -> "FaultSchedule":
        """Lose ``device``'s result for ``frame``, ``times`` times."""
        if times < 1:
            raise ValueError("times must be >= 1")
        return replace(
            self, drops=self.drops + (_Drop(device, frame, times),)
        )

    def flaky_link(
        self, device: str, frame: int, failures: int = 1
    ) -> "FaultSchedule":
        """Fail the send to ``device`` on ``frame``, ``failures`` times."""
        if failures < 1:
            raise ValueError("failures must be >= 1")
        return replace(
            self,
            flaky_links=self.flaky_links + (_FlakyLink(device, frame, failures),),
        )

    @property
    def empty(self) -> bool:
        return not (self.crashes or self.delays or self.drops
                    or self.flaky_links)

    def start(self) -> "FaultInjector":
        """Mint the mutable per-run injector for this schedule."""
        return FaultInjector(self)


class FaultInjector:
    """Per-run consumable state of a :class:`FaultSchedule`.

    Decisions depend only on ``(device, frame)`` plus how many times a
    consumable fault has already fired, so concurrent task threads (the
    in-process backend) and a serial loop (the simulated backend) make
    identical injection decisions — which keeps their canonical traces
    equal even under faults.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._crash_at: "Dict[str, int]" = {}
        for c in schedule.crashes:
            prev = self._crash_at.get(c.device)
            self._crash_at[c.device] = (
                c.at_frame if prev is None else min(prev, c.at_frame)
            )
        self._delays = {
            (d.device, d.frame): d.seconds for d in schedule.delays
        }
        self._drops = {(d.device, d.frame): d.times for d in schedule.drops}
        self._flaky = {
            (f.device, f.frame): f.failures for f in schedule.flaky_links
        }
        self._lock = threading.Lock()

    def crashed(self, device: str, frame: int) -> bool:
        at = self._crash_at.get(device)
        return at is not None and frame >= at

    def compute_delay(self, device: str, frame: int) -> float:
        return self._delays.get((device, frame), 0.0)

    def _take(self, table: "Dict[Tuple[str, int], int]",
              device: str, frame: int) -> bool:
        with self._lock:
            remaining = table.get((device, frame), 0)
            if remaining <= 0:
                return False
            table[(device, frame)] = remaining - 1
            return True

    def take_drop(self, device: str, frame: int) -> bool:
        """Consume one dropped-result fault, if scheduled."""
        return self._take(self._drops, device, frame)

    def take_link_failure(self, device: str, frame: int) -> bool:
        """Consume one flaky-link send failure, if scheduled."""
        return self._take(self._flaky, device, frame)


def replan_or_degrade(model, survivors, plan_over=None):
    """The churn decision: a fresh plan over ``survivors``, or degrade.

    ``plan_over(cluster) -> PipelinePlan`` plans the model over the
    surviving devices; when it raises
    :class:`~repro.schemes.base.PlanningError` — or is ``None`` because
    the caller's own placement already failed (the fleet scheduler) —
    the whole model falls back to the fastest survivor
    (:func:`~repro.schemes.local.local_fallback_plan`).  Returns
    ``(plan, kind)`` with ``kind`` ``"replan"`` or ``"degraded"``, the
    trace event to emit; raises :class:`StageFailure` when nothing
    survives.
    """
    from repro.cluster.device import Cluster
    from repro.schemes.base import PlanningError
    from repro.schemes.local import local_fallback_plan

    survivors = tuple(survivors)
    if not survivors:
        raise StageFailure("every device in the cluster is dead")
    if plan_over is not None:
        try:
            return plan_over(Cluster(survivors)), "replan"
        except PlanningError:
            pass
    best = max(survivors, key=lambda d: d.capacity)
    return local_fallback_plan(model, best), "degraded"


class PlanChange(NamedTuple):
    """What :meth:`PlanDoor.decide` chose; ``kind`` is the event."""

    program: object
    kind: str  # "replan" | "degraded"
    name: str  # the plan's new name
    tag: str  # the event's: the dead devices, or the candidate


class PlanDoor:
    """The one re-plan door: the running program, its name, and the
    only way either changes, on the virtual and the wall clock alike.

    :meth:`decide`, asked at frame boundaries, consults the churn
    ``replanner`` (``replan(dead) -> (program, kind)``, only with a
    ``config``) once the dead set changed since it was last asked and
    either the dead capacity share exceeds ``config.replan_threshold`` or
    a frame hit :class:`StageFailure` (``failed``); then the
    ``switcher``, whose active candidate is adopted only at a natural
    drain boundary (``drained``) and never onto a dead device.
    :meth:`adopt` emits the event, rebinds the transport, installs the
    program and renames the plan: ``<base>+replan`` / ``+degraded``
    after churn (``<base>``: the name before any churn), the candidate's
    after a switch.  A transport that cannot rebind gets no change.
    """

    def __init__(
        self, program, transport, tracer=None,
        config: "Optional[RuntimeConfig]" = None, replanner=None,
        switcher=None,
    ) -> None:
        self.program = program
        self.transport = transport
        self.tracer = tracer
        self.config = config
        #: ``None`` unless churn can re-plan (one check a frame).
        self.replanner = replanner if config is not None else None
        self.switcher = switcher
        candidates = switcher.candidates if switcher is not None else ()
        self.name = next(
            (c.name for c in candidates if c.plan == program.plan),
            program.plan.mode,
        )
        self._replanned_for: "frozenset" = frozenset()

    def decide(
        self, drained: bool = False, failed: bool = False
    ) -> "Optional[PlanChange]":
        """The plan change due now, or ``None``."""
        transport = self.transport
        if not transport.rebindable:
            return None
        base = self.name.partition("+")[0]
        dead = transport.dead_devices()
        if (
            self.replanner is not None
            and dead and dead != self._replanned_for
            and (failed or transport.capacity_lost() > self.config.replan_threshold)
        ):
            self._replanned_for = dead
            try:
                result = self.replanner(dead)
            except StageFailure:  # nothing survives to plan over
                result = None
            if result is not None:
                program, kind = result
                tag = ",".join(sorted(dead))
                return PlanChange(program, kind, f"{base}+{kind}", tag)
        active = self.switcher.active if self.switcher is not None else None
        if drained and active is not None and active.name != base and not any(
            d.name in dead for d in active.plan.all_devices
        ):
            program = compile_plan(transport.model, active.plan)
            return PlanChange(program, "replan", active.name, active.name)
        return None

    def adopt(self, change: PlanChange, frame: int) -> None:
        """Emit the change's event, rebind, install, rename."""
        if self.tracer is not None:
            now = self.transport.clock()
            self.tracer.emit(
                TraceEvent(change.kind, frame, 0, change.tag, now, now)
            )
        self.transport.rebind(change.program)
        self.program, self.name = change.program, change.name

    def step(self, frame: int, drained: bool = False, failed: bool = False) -> bool:
        """:meth:`decide`, then :meth:`adopt` its change (where the drain
        is analytic or the walk synchronous); True if one was adopted."""
        change = self.decide(drained, failed)
        if change is not None:
            self.adopt(change, frame)
        return change is not None
