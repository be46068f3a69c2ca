"""PICO's planning core: DP planner, heterogeneous adaptation, optimal search."""

from repro.core.dp_planner import HomoPlan, HomoStage, plan_homogeneous
from repro.core.heterogeneous import adapt_to_cluster
from repro.core.pareto import plan_pareto
from repro.core.plan import PipelinePlan, PlanCost, StagePlan, plan_cost
from repro.core.serialize import dump_plan, load_plan, plan_from_dict, plan_to_dict

__all__ = [
    "HomoPlan",
    "HomoStage",
    "PipelinePlan",
    "PlanCost",
    "StagePlan",
    "adapt_to_cluster",
    "dump_plan",
    "load_plan",
    "plan_cost",
    "plan_from_dict",
    "plan_to_dict",
    "plan_homogeneous",
    "plan_pareto",
]
