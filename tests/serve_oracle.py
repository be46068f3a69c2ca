"""Frame-level oracle for the virtual serve replay (a test fixture).

The admission queue, batch forming and the per-stage FIFO recurrence of
``PipelineServer._serve_virtual`` over ``SimTransport``, written the slow
obvious way: the frames in the system are found by scanning every
completion so far.  Fault-free runs only.
"""

from repro.cost.tables import BATCH_AMORTIZED_FRACTION, batched_service


def replay(arrivals, stage_costs, exclusive, cfg):
    """``{frame: (status, admitted_at, completion, batch)}`` for
    non-decreasing ``arrivals`` over a plan's ``PlanCost.stage_costs``."""
    free = [0.0] * len(stage_costs)  # exclusive plans share server 0
    completions, records, pending, last_admit = [], {}, [], 0.0

    def launch():
        batch, pending[:] = list(pending), []
        if not batch:
            return
        b, admits = len(batch), [a for _, a in batch]
        ready = admits[-1]
        if b < cfg.max_batch and batch[-1][0] + 1 < len(arrivals):
            ready = max(ready, admits[0] + cfg.batch_timeout)
        for s, sc in enumerate(stage_costs):
            k, work = 0 if exclusive else s, sc.t_comp + sc.t_head
            ready = free[k] = max(ready, free[k]) + (
                sc.total if b == 1
                else batched_service(sc.t_comm, work, b, BATCH_AMORTIZED_FRACTION)
            )
        completions.extend([ready] * b)
        records.update({i: ("done", a, ready, b) for i, a in batch})

    def launch_time():
        return max(free[0], pending[0][1] + cfg.batch_timeout)

    for i, t in enumerate(arrivals):
        if pending and t > launch_time():
            launch()
        in_system = [c for c in completions if c > t]
        depth, admit = len(in_system) + len(pending), t
        if depth >= cfg.queue_capacity:
            if cfg.policy == "shed":
                records[i] = ("shed", -1.0, -1.0, 1)
                continue
            needed = depth - cfg.queue_capacity + 1
            if needed > len(in_system):  # must drain the forming batch
                launch()
                in_system = [c for c in completions if c > t]
                needed = len(in_system) - cfg.queue_capacity + 1
            if needed > 0:
                admit = sorted(in_system)[needed - 1]
        if cfg.max_in_flight and len(completions) >= cfg.max_in_flight:
            admit = max(admit, completions[-cfg.max_in_flight])
        admit = last_admit = max(admit, last_admit)
        if pending and admit > launch_time():
            launch()
        pending.append((i, admit))
        if len(pending) >= cfg.max_batch:
            launch()
    launch()
    return records
