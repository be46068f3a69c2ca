"""The runtime core: one PlanProgram IR, pluggable transports, tracing.

Every executor — the in-process threaded runner, the multiprocess TCP
pipeline (paper Fig. 6), and the virtual-clock simulator — drives the
same compiled :class:`PlanProgram` through the same
:func:`~repro.runtime.core.collect_stage` path over a swappable
:class:`~repro.runtime.core.Transport`, emitting one shared per-frame
trace schema.
"""

from repro.runtime.coordinator import (
    ShmTransport,
    StageFailure,
    TcpTransport,
)
from repro.runtime.core import (
    InProcTransport,
    PipelineSession,
    SimTransport,
    Transport,
    collect_stage,
    emit_stage_trace,
)
from repro.runtime.faults import (
    DeviceDead,
    FaultInjector,
    FaultSchedule,
    RuntimeConfig,
    TransientTaskError,
)
from repro.runtime.messages import (
    Hello,
    Reconfigure,
    Shutdown,
    TileResult,
    TileTask,
    WorkerError,
)
from repro.runtime.program import (
    PlanProgram,
    StageProgram,
    TaskSpec,
    compile_plan,
    repartition_stage,
    split_stage,
    stitch_stage,
)
from repro.runtime.timing import PlanTiming, StageTiming, plan_timing
from repro.runtime.trace import (
    EVENT_KINDS,
    RECOVERY_KINDS,
    TraceEvent,
    Tracer,
    canonical_trace,
    coerce_tracer,
    device_busy,
    diff_traces,
    format_timeline,
    trace_makespan,
)
from repro.runtime.scheduler import StageScheduler
from repro.runtime.shm import ShmChannel, ShmRing, SlotExhausted
from repro.runtime.transport import (
    Channel,
    TransportClosed,
    decode_message,
    encode_message,
    recv_message,
)
from repro.runtime.worker import worker_main

__all__ = [
    "Channel",
    "DeviceDead",
    "EVENT_KINDS",
    "FaultInjector",
    "FaultSchedule",
    "Hello",
    "InProcTransport",
    "PipelineSession",
    "PlanProgram",
    "PlanTiming",
    "RECOVERY_KINDS",
    "Reconfigure",
    "RuntimeConfig",
    "ShmChannel",
    "ShmRing",
    "ShmTransport",
    "Shutdown",
    "SimTransport",
    "SlotExhausted",
    "StageFailure",
    "StageProgram",
    "StageScheduler",
    "StageTiming",
    "TaskSpec",
    "TcpTransport",
    "TileResult",
    "TileTask",
    "TraceEvent",
    "Tracer",
    "TransientTaskError",
    "Transport",
    "TransportClosed",
    "WorkerError",
    "canonical_trace",
    "coerce_tracer",
    "compile_plan",
    "decode_message",
    "device_busy",
    "diff_traces",
    "emit_stage_trace",
    "encode_message",
    "collect_stage",
    "format_timeline",
    "plan_timing",
    "recv_message",
    "repartition_stage",
    "split_stage",
    "stitch_stage",
    "trace_makespan",
    "worker_main",
]
