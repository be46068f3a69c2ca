"""The ``StageScheduler`` as a state machine.

Hypothesis drives one scheduler over ``InProcTransport`` with stub
stages that are slow or fail on demand, through the four things a
client does — submit (blocking or not), close, drain — and a stage
error injected for a chosen frame.  After every step the frames
admitted and not yet delivered stay within the admission bound; at
every close or drain each submitted frame has yielded exactly one
result, in submit order (the failed ones with their error), every stage
let its frames go in submit order, and no ``stage-`` thread is left.
"""

from __future__ import annotations

import threading
import time

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.device import pi_cluster
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.runtime.core import InProcTransport
from repro.runtime.program import compile_plan
from repro.runtime.scheduler import StageScheduler
from repro.schemes.layer_wise import LayerWiseScheme

MODEL = toy_chain(3, 0, input_hw=8, in_channels=1, base_channels=2)
WEIGHTS = init_weights(MODEL, seed=3)
PROGRAM = compile_plan(
    MODEL,
    LayerWiseScheme().plan(MODEL, pi_cluster(2, 1000), NetworkModel.from_mbps(50.0)),
)
X = np.random.default_rng(4).standard_normal(MODEL.input_shape).astype(np.float32)
ORACLE = Engine(MODEL, WEIGHTS).forward_features(X)


class _StubStages(InProcTransport):
    """Real stage compute, plus a per-stage delay, injected stage errors
    and the order in which frames leave each stage."""

    def __init__(self) -> None:
        super().__init__(Engine(MODEL, WEIGHTS))
        self.delay = 0.0
        self.fail: "set" = set()  # (stage, frame) pairs that raise
        self.left: "list" = []
        self._lock = threading.Lock()

    def reset(self) -> None:
        self.left = [[] for _ in range(PROGRAM.n_stages)]

    def run_tasks(self, stage_index, tiles, frame):
        if self.delay:
            time.sleep(self.delay)
        try:
            if (stage_index, frame) in self.fail:
                raise RuntimeError(f"stage {stage_index} failed frame {frame}")
            return super().run_tasks(stage_index, tiles, frame)
        finally:
            with self._lock:
                self.left[stage_index].append(frame)


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.transport = _StubStages()
        self.transport.open(PROGRAM)
        self.scheduler = None
        self.capacity = 0
        self.submitted: "list" = []
        self.failing: "set" = set()
        self.next_frame = 0

    def _open(self) -> None:
        self.transport.reset()
        self.submitted = []
        self.scheduler = StageScheduler(
            PROGRAM, self.transport, capacity=self.capacity
        )

    @initialize(
        capacity=st.integers(0, 3), delay=st.sampled_from([0.0, 0.002])
    )
    def start(self, capacity, delay) -> None:
        self.capacity = capacity
        self.transport.delay = delay
        self._open()

    @rule(block=st.booleans())
    def submit(self, block) -> None:
        frame = self.next_frame
        self.next_frame += 1
        if self.scheduler.submit(frame, X, block=block):
            self.submitted.append(frame)
        else:
            assert not block and self.capacity

    @rule(stage=st.integers(0, PROGRAM.n_stages - 1))
    def stage_error(self, stage) -> None:
        """The next frame submitted fails at ``stage``."""
        self.transport.fail.add((stage, self.next_frame))
        self.failing.add(self.next_frame)

    @rule()
    def close(self) -> None:
        self.scheduler.close()
        got = []
        while not self.scheduler.results.empty():
            got.append(self.scheduler.results.get())
        self._check(got)

    @rule()
    def drain(self) -> None:
        self._check(list(self.scheduler.drain()))

    @precondition(lambda self: self.scheduler is not None and self.capacity)
    @invariant()
    def admitted_within_bound(self) -> None:
        delivered = self.scheduler.results.qsize()
        assert len(self.submitted) - delivered <= self.capacity

    def _check(self, got) -> None:
        assert [fid for fid, *_ in got] == self.submitted
        for fid, out, error, batch, _ in got:
            assert batch == 1
            if fid in self.failing:
                assert out is None and isinstance(error, RuntimeError)
            else:
                assert error is None and np.array_equal(out, ORACLE)
        for left in self.transport.left:
            assert left == sorted(left)
        assert not [
            t for t in threading.enumerate() if t.name.startswith("stage-")
        ]
        self._open()

    def teardown(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()


assert PROGRAM.n_stages >= 2, "the machine needs stage hand-offs"

TestStageSchedulerMachine = SchedulerMachine.TestCase
TestStageSchedulerMachine.settings = settings(
    max_examples=50,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
