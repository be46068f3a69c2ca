"""Planet-scale scenario simulation: topologies, workloads, churn.

The discrete-event cluster simulator: from "one shared-bandwidth LAN,
a list of arrival times" (the paper's testbed) to full scenarios —

* :mod:`repro.sim.topology` — named :class:`NetworkLink` objects with
  bandwidth and latency, ``star`` / ``mesh`` / ``fat-tree`` builders, shortest-path routing and per-link FIFO
  contention.  The old single :class:`~repro.cost.comm.NetworkModel`
  is the degenerate one-link topology (:meth:`Topology.bus`),
  bit-compatible with the pre-2.0 simulator.
* :mod:`repro.workload.processes` — lazy :class:`ArrivalProcess`
  generators (diurnal, flash crowd, trace replay, composite) that
  scale to millions of requests without materialising them.
* :mod:`repro.sim.scenario` — correlated device churn, frame-counted
  crashes and mobility (devices leaving and joining mid-run), driven
  through the same replan-or-degrade decision as the fault-tolerance
  layer.
* :mod:`repro.sim.engine` — the event loop itself.

:func:`simulate_scenario` is the one front door: every simulation in
the package (:func:`repro.simulate`, the experiments, the benches)
enters the engine through it.
"""

from repro.sim.result import SimResult, SimStats, TaskRecord
from repro.sim.scenario import ChurnEvent, correlated_churn, simulate_scenario
from repro.sim.topology import NetworkLink, Topology

__all__ = [
    "ChurnEvent",
    "NetworkLink",
    "SimResult",
    "SimStats",
    "TaskRecord",
    "Topology",
    "correlated_churn",
    "simulate_scenario",
]
