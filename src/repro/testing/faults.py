"""A session replanner for the tests: the churn ladder's decision
(:func:`repro.runtime.faults.replan_or_degrade`) over a scheme's fresh
plan, compiled for :class:`~repro.runtime.faults.PlanDoor` to adopt."""

from __future__ import annotations

from repro.runtime.faults import replan_or_degrade
from repro.runtime.program import compile_plan

__all__ = ["churn_replanner"]


def churn_replanner(model, cluster, network, options=None, scheme=None):
    """A session replanner: fresh plan over the survivors, or degrade.

    Returns a callable ``replan(dead) -> (PlanProgram, kind)`` for
    :class:`~repro.runtime.core.PipelineSession`: it re-plans the model
    over the surviving devices with ``scheme`` and degrades through
    :func:`replan_or_degrade` when planning over the survivors is
    infeasible.  ``kind`` is ``"replan"`` or ``"degraded"`` and becomes
    the emitted trace event.
    """
    if scheme is None:
        raise ValueError("churn_replanner needs a scheme")

    def replan(dead):
        from repro.cost.flops import DEFAULT_OPTIONS

        opts = options or DEFAULT_OPTIONS
        plan, kind = replan_or_degrade(
            model,
            (d for d in cluster if d.name not in dead),
            lambda survivors: scheme.plan(model, survivors, network, opts),
        )
        return compile_plan(model, plan), kind

    return replan
