"""A session replanner for the tests: the churn ladder's decision
(:func:`repro.runtime.faults.replan_or_degrade`) over a scheme's or a
switcher's fresh plan, compiled for
:class:`~repro.runtime.faults.PlanDoor` to adopt."""

from __future__ import annotations

from repro.runtime.faults import replan_or_degrade
from repro.runtime.program import compile_plan

__all__ = ["churn_replanner"]


def churn_replanner(
    model,
    cluster,
    network,
    options=None,
    scheme=None,
    switcher=None,
):
    """A session replanner: fresh plan over the survivors, or degrade.

    Returns a callable ``replan(dead) -> (PlanProgram, kind)`` for
    :class:`~repro.runtime.core.PipelineSession`: it re-plans the model
    over the surviving devices with ``scheme`` (or asks ``switcher`` —
    an :class:`~repro.adaptive.switcher.AdaptiveSwitcher` — for a fresh
    candidate set, APICO-style) and degrades through
    :func:`replan_or_degrade` when planning over the survivors is
    infeasible.  ``kind`` is ``"replan"`` or ``"degraded"`` and becomes
    the emitted trace event.
    """
    if scheme is None and switcher is None:
        raise ValueError("churn_replanner needs a scheme or a switcher")

    def replan(dead):
        from repro.cost.flops import DEFAULT_OPTIONS

        opts = options or DEFAULT_OPTIONS

        def plan_over(survivors):
            if switcher is not None:
                return switcher.replan(
                    model, survivors, network, opts
                ).active.plan
            return scheme.plan(model, survivors, network, opts)

        plan, kind = replan_or_degrade(
            model, (d for d in cluster if d.name not in dead), plan_over
        )
        return compile_plan(model, plan), kind

    return replan
