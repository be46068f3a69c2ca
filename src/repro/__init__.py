"""PICO — pipelined cooperative CNN inference on heterogeneous IoT edge
clusters.

A full reproduction of "Towards Efficient Inference: Adaptively
Cooperate in Heterogeneous IoT Edge Cluster" (ICDCS 2021): the PICO
planner (DP + greedy heterogeneous adaptation), the LW/EFL/OFL
baselines, the APICO adaptive switcher, a numpy CNN engine with
bit-exact tiled execution, a discrete-event cluster simulator, a real
multiprocess pipeline runtime, and a fault-tolerance layer (failure
detection, retry/backoff, churn-driven re-planning).

Quick start::

    import repro
    from repro.models import vgg16

    cluster = repro.pi_cluster(8, 600)
    result = repro.simulate(
        vgg16(), repro.get_scheme("pico"), cluster,
        arrivals=[i * 0.5 for i in range(20)],
    )
    print(result.avg_latency, result.throughput)
"""

from repro.adaptive import AdaptiveSwitcher, build_apico_switcher
from repro.cluster import (
    Cluster,
    Device,
    heterogeneous_cluster,
    pi_cluster,
    raspberry_pi,
    utilization_table,
)
from repro.core import (
    PipelinePlan,
    PlanCost,
    StagePlan,
    dump_plan,
    load_plan,
    plan_cost,
)
from repro.report import render_plan, render_timeline
from repro.cost import CostOptions, NetworkModel, wifi_50mbps
from repro.models import get_model
from repro.nn import Engine, init_weights
from repro.runtime import (
    FaultSchedule,
    InProcTransport,
    PipelineSession,
    PlanProgram,
    RuntimeConfig,
    ShmTransport,
    SimTransport,
    TcpTransport,
    Tracer,
    compile_plan,
)
from repro.schemes import (
    EarlyFusedScheme,
    LayerWiseScheme,
    OptimalFusedScheme,
    PicoScheme,
    Scheme,
    available_schemes,
    get_scheme,
)
from repro.serve import FrameRecord, PipelineServer, ServeResult, ServerConfig
from repro.sim import (
    ChurnEvent,
    NetworkLink,
    SimResult,
    SimStats,
    TaskRecord,
    Topology,
    correlated_churn,
    simulate_scenario,
)
from repro.workload import (
    ArrivalProcess,
    available_arrivals,
    get_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)

__version__ = "2.0.0"

__all__ = [
    "AdaptiveSwitcher",
    "ArrivalProcess",
    "ChurnEvent",
    "Cluster",
    "CostOptions",
    "Device",
    "EarlyFusedScheme",
    "Engine",
    "FaultSchedule",
    "FrameRecord",
    "InProcTransport",
    "LayerWiseScheme",
    "NetworkLink",
    "NetworkModel",
    "OptimalFusedScheme",
    "PicoScheme",
    "PipelinePlan",
    "PipelineServer",
    "PipelineSession",
    "PlanCost",
    "PlanProgram",
    "RuntimeConfig",
    "Scheme",
    "ServeResult",
    "ServerConfig",
    "ShmTransport",
    "SimResult",
    "SimStats",
    "SimTransport",
    "StagePlan",
    "TaskRecord",
    "TcpTransport",
    "Topology",
    "Tracer",
    "available_arrivals",
    "available_schemes",
    "build_apico_switcher",
    "compile_plan",
    "correlated_churn",
    "dump_plan",
    "evaluate",
    "get_arrivals",
    "get_model",
    "get_scheme",
    "heterogeneous_cluster",
    "init_weights",
    "load_plan",
    "pi_cluster",
    "plan",
    "plan_cost",
    "poisson_arrivals",
    "raspberry_pi",
    "render_plan",
    "render_timeline",
    "simulate",
    "simulate_scenario",
    "uniform_arrivals",
    "utilization_table",
    "wifi_50mbps",
]


def plan(model, cluster, network=None, **kwargs) -> PipelinePlan:
    """Plan a PICO pipeline for ``model`` on ``cluster``.

    Convenience wrapper over :class:`~repro.schemes.PicoScheme`;
    ``network`` defaults to the paper's 50 Mbps WiFi.
    """
    network = network or wifi_50mbps()
    return PicoScheme(**kwargs).plan(model, cluster, network)


def evaluate(model, pipeline_plan, network=None, options=None) -> PlanCost:
    """Analytic period/latency of a plan (Eq. 9-11)."""
    network = network or wifi_50mbps()
    options = options or CostOptions()
    return plan_cost(model, pipeline_plan, network, options)


def simulate(
    model,
    plan_or_scheme,
    cluster=None,
    *,
    network=None,
    topology=None,
    arrivals=None,
    options=None,
    faults=None,
    trace=None,
    shared_medium=False,
    measured_services=None,
    queue_capacity=None,
    max_batch=1,
    batch_timeout=0.0,
):
    """The compact spelling of :func:`simulate_scenario`.

    ``plan_or_scheme`` (a scheme name, a :class:`~repro.schemes.Scheme`,
    a ready :class:`PipelinePlan` or an :class:`AdaptiveSwitcher`),
    ``cluster``, ``network``, ``topology``, ``arrivals``, ``options``,
    ``faults``, ``measured_services``, ``trace`` and ``queue_capacity``
    are documented there and pass straight through; the result is its
    :class:`~repro.sim.SimResult`.  Two spellings are this function's
    own:

    * ``shared_medium=True`` is ``topology=Topology.bus(network,
      contended=True)``: every stage's transfer serialised over the one
      WLAN.
    * ``max_batch`` / ``batch_timeout`` replay the serving layer's
      cross-frame micro-batching analytically (see
      :class:`~repro.serve.ServerConfig`): frames queued at the pipeline
      entrance coalesce into batches of up to ``max_batch`` that
      traverse the stages as one unit with the B-dependent service
      estimate.  Batching composes with a plan, scheme or name plus
      ``queue_capacity`` and nothing else.
    """
    if arrivals is None:
        raise ValueError(
            "simulate() needs arrivals= (task submit times, in seconds, "
            "or an ArrivalProcess)"
        )
    if max_batch > 1:
        unsupported = {
            "faults=": faults is not None and not faults.empty,
            "shared_medium=True": shared_medium,
            "measured_services=": measured_services is not None,
            "topology=": topology is not None,
        }
        for what, given in unsupported.items():
            if given:
                raise ValueError(f"max_batch > 1 is not supported with {what}")
        return _simulate_batched(
            model, plan_or_scheme, cluster, network or wifi_50mbps(),
            arrivals, options or CostOptions(), trace, queue_capacity,
            max_batch, batch_timeout,
        )
    if shared_medium:
        if topology is not None:
            raise ValueError(
                "shared_medium=True is the one-link bus; it is not "
                "supported with topology="
            )
        topology = Topology.bus(network, contended=True)
    return simulate_scenario(
        model, plan_or_scheme, cluster,
        topology=topology, network=network, arrivals=arrivals,
        options=options, faults=faults, measured_services=measured_services,
        trace=trace, queue_capacity=queue_capacity,
    )


def _simulate_batched(
    model, plan_or_scheme, cluster, network, arrivals, options, trace,
    queue_capacity, max_batch, batch_timeout,
):
    """Analytic micro-batching replay behind :func:`simulate`.

    Drives the serving layer's batched virtual-clock path
    (:class:`~repro.serve.PipelineServer` over a zero-compute
    :class:`SimTransport`) and repackages the records as a
    :class:`~repro.sim.SimResult`.  ``started`` in the
    task records is the admission instant — batch forming and stage
    queueing both live inside the reported latency.  Device busy time
    accrues per batch from the timing tables, each stage share scaled
    by its batched-service ratio.
    """
    from repro.runtime.timing import plan_timing
    from repro.serve import PipelineServer, ServerConfig

    if isinstance(plan_or_scheme, str):
        plan_or_scheme = get_scheme(plan_or_scheme)
    if isinstance(plan_or_scheme, Scheme):
        if cluster is None:
            raise ValueError("a scheme needs cluster= to plan over")
        plan_name = plan_or_scheme.name
        plan = plan_or_scheme.plan(model, cluster, network, options)
    elif isinstance(plan_or_scheme, PipelinePlan):
        plan, plan_name = plan_or_scheme, plan_or_scheme.mode
    else:
        raise TypeError(
            "max_batch > 1 needs a PipelinePlan, Scheme or scheme name, "
            f"not {type(plan_or_scheme).__name__} (serve a switcher "
            "through repro.serve.PipelineServer instead)"
        )
    if hasattr(arrivals, "times"):
        arrivals = arrivals.sample()

    # compute=False never reads a weight: skip materialising them
    transport = SimTransport(
        Engine(model, weights={}), network, options, compute=False
    )
    shed = queue_capacity is not None
    config = ServerConfig(
        queue_capacity=(
            queue_capacity if shed else max(1, len(arrivals)) + max_batch
        ),
        policy="shed" if shed else "block",
        max_batch=max_batch, batch_timeout=batch_timeout,
    )
    with PipelineServer(
        compile_plan(model, plan), transport, config, tracer=trace
    ) as server:
        served = server.serve(len(arrivals), arrivals=list(arrivals))
    timing = plan_timing(model, plan, network, options, name=plan_name)
    device_busy: dict = {}
    for record in served.completed:
        for st in timing.stages:
            scale = (
                st.batched_service(record.batch) / (st.service * record.batch)
                if st.service > 0
                else 0.0
            )
            for device_name, share in st.busy_shares:
                device_busy[device_name] = (
                    device_busy.get(device_name, 0.0) + share * scale
                )
    tasks = [
        TaskRecord(r.frame, r.arrival, r.admitted_at, r.completion, plan_name)
        for r in served.completed
    ]
    usage = {plan_name: len(tasks)} if tasks else {}
    return SimResult(
        tasks,
        served.makespan,
        device_busy,
        usage,
        served.trace,
        tuple(r.frame for r in served.shed),
    )
