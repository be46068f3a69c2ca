"""Plan reporting: cost summaries and ASCII pipeline timelines.

``render_plan`` prints the per-stage cost breakdown (Eq. 9 terms);
``render_timeline`` draws the pipelined execution of the first few
tasks as a Gantt chart — the textual form of the paper's Fig. 1 — which
makes the period/latency trade-off visible at a glance::

    stage 0 |000111222333444555666777888999
    stage 1 |...000111222333444555666777888
    stage 2 |......000111222333444555666777
"""

from __future__ import annotations

from typing import List

from repro.core.plan import PipelinePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.models.graph import Model

__all__ = ["render_plan", "render_timeline", "stage_schedule"]

#: Characters across :func:`render_timeline`'s Gantt rows.
TIMELINE_WIDTH = 72


def render_plan(
    model: Model,
    plan: PipelinePlan,
    network: NetworkModel,
) -> str:
    """Per-stage cost table plus the plan's period/latency summary."""
    cost = plan_cost(model, plan, network)
    lines = [plan.describe(), ""]
    lines.append(
        f"{'stage':>5s} {'units':>9s} {'devices':>7s} {'T_comp':>8s} "
        f"{'T_comm':>8s} {'T_head':>8s} {'total':>8s}"
    )
    for idx, sc in enumerate(cost.stage_costs):
        lines.append(
            f"{idx:>5d} {f'[{sc.start},{sc.end})':>9s} "
            f"{len(sc.devices):>7d} {sc.t_comp:>7.3f}s {sc.t_comm:>7.3f}s "
            f"{sc.t_head:>7.3f}s {sc.total:>7.3f}s"
        )
    lines.append("")
    lines.append(
        f"period {cost.period:.3f}s ({60 * cost.throughput:.1f} tasks/min), "
        f"latency {cost.latency:.3f}s, mode {plan.mode}"
    )
    return "\n".join(lines)


def stage_schedule(
    services: "List[float]", n_tasks: int, mode: str = "pipelined"
) -> "List[List[tuple]]":
    """Steady-state schedule: per stage, a list of (task, start, end).

    For pipelined plans task ``k`` enters stage ``s`` once both the task
    has left stage ``s-1`` and stage ``s`` finished task ``k-1``; for
    exclusive plans the phases of one task run back to back and tasks
    queue behind each other.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    n_stages = len(services)
    schedule: "List[List[tuple]]" = [[] for _ in range(n_stages)]
    if mode == "exclusive":
        clock = 0.0
        for task in range(n_tasks):
            for stage, service in enumerate(services):
                schedule[stage].append((task, clock, clock + service))
                clock += service
        return schedule
    finish = [[0.0] * n_stages for _ in range(n_tasks)]
    for task in range(n_tasks):
        for stage, service in enumerate(services):
            ready = finish[task][stage - 1] if stage else 0.0
            free = finish[task - 1][stage] if task else 0.0
            start = max(ready, free)
            end = start + service
            finish[task][stage] = end
            schedule[stage].append((task, start, end))
    return schedule


def render_timeline(
    model: Model,
    plan: PipelinePlan,
    network: NetworkModel,
    n_tasks: int = 6,
) -> str:
    """ASCII Gantt chart of the first ``n_tasks`` flowing through the
    plan, :data:`TIMELINE_WIDTH` characters wide."""
    width = TIMELINE_WIDTH
    cost = plan_cost(model, plan, network)
    services = [sc.total for sc in cost.stage_costs]
    if plan.mode == "exclusive":
        # One server: collapse phases into a single service per task.
        services = [cost.latency]
    schedule = stage_schedule(services, n_tasks, "pipelined")
    horizon = max(end for row in schedule for (_, _, end) in row)
    scale = (width - 1) / horizon if horizon > 0 else 1.0
    lines = []
    for stage_idx, row in enumerate(schedule):
        chars = ["."] * width
        for task, start, end in row:
            a = int(start * scale)
            b = max(a + 1, int(end * scale))
            for pos in range(a, min(b, width)):
                chars[pos] = str(task % 10)
        lines.append(f"stage {stage_idx} |" + "".join(chars))
    lines.append(
        f"{' ' * 8}|{'-' * (width - 1)}> t=0 .. {horizon:.2f}s "
        f"(period {cost.period:.2f}s)"
    )
    return "\n".join(lines)
