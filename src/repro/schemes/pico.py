"""PICO: pipelined cooperation (the paper's contribution).

Two steps (§IV-A): Algorithm 1's dynamic program finds the
minimum-period stage split for the *homogenised* cluster; Algorithm 2
greedily maps real heterogeneous devices onto those stages with
capacity-weighted partitions.  An optional latency bound ``t_lim``
implements the Eq. (1) constraint.
"""

from __future__ import annotations

import math

from repro.cluster.device import Cluster
from repro.core.dp_planner import plan_homogeneous
from repro.core.heterogeneous import adapt_to_cluster
from repro.core.plan import PipelinePlan
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.models.graph import Model
from repro.schemes.base import PlanningError, Scheme

__all__ = ["PicoScheme"]


class PicoScheme(Scheme):
    """Pipelined cooperation scheme.

    ``branch_parallel=True`` enables the intra-block partition extension
    (the paper's stated future work): single-block stages over concat
    blocks may assign whole paths to devices when that beats spatial
    strips.  The scheme then reports itself as ``PICO+B``.
    """

    name = "PICO"

    def __init__(
        self,
        t_lim: float = math.inf,
        branch_parallel: bool = False,
    ) -> None:
        if t_lim <= 0:
            raise ValueError("t_lim must be positive")
        self.t_lim = t_lim
        self.branch_parallel = branch_parallel
        if branch_parallel:
            self.name = "PICO+B"

    def plan(
        self,
        model: Model,
        cluster: Cluster,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
    ) -> PipelinePlan:
        # The DP draws ``Ts`` from the registry's one vectorized cost
        # table per (model, homogenised device, network, options), so
        # repeated plan() calls — adaptive re-planning, t_lim sweeps —
        # reuse every memoised entry.
        homo = plan_homogeneous(
            model, cluster, network, options, t_lim=self.t_lim,
            allow_branch=self.branch_parallel,
        )
        if homo is None:
            raise PlanningError(
                f"no pipeline satisfies latency limit {self.t_lim:.4f}s "
                f"for {model.name} on {len(cluster)} devices"
            )
        return adapt_to_cluster(model, homo, cluster, options)
