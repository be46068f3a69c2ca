"""Planner goldens: every plan and every Eq. 9 float, pinned.

``tests/data/plan_golden.json`` was recorded at the parent of the PR
that folded the five spellings of Eq. 9 into one (``recorded_at`` holds
the commit; the recording script is in CHANGES.md).  It pins, for the
six planner configurations × four models × three clusters, every
stage's ``(start, end, device names, regions, path groups, channel
groups)`` plus ``plan_cost``'s period, latency and per-stage ``(t_comp,
t_comm, t_head)`` as ``float.hex()`` — and the ``plan_exact`` results
on the toy cells of its two test modules.  The ``bfs`` section was
recorded through the deleted ``core/bfs.py`` search; when ``plan_exact``
took its place only the ``optimal`` / ``nodes`` statistics were re-keyed
(and ``exact.homo*``'s ``nodes`` / ``pruned``, which capacity-class
symmetry shrank) — every period, latency, stage and device name is the
recorded one.  A mismatch means a planner's *output* changed, not its
speed.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.exact import plan_exact, realize_exact
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.schemes import get_scheme

GOLDEN_PATH = Path(__file__).parent / "data" / "plan_golden.json"
NETWORK = NetworkModel.from_mbps(50.0)

PLANNERS = {
    "lw": lambda: get_scheme("lw"),
    "efl": lambda: get_scheme("efl"),
    "ofl": lambda: get_scheme("ofl"),
    "pico": lambda: get_scheme("pico"),
    "pico+branch": lambda: get_scheme("pico", branch_parallel=True),
    "iop": lambda: get_scheme("iop"),
}
MODELS = {
    "toy_chain": lambda: toy_chain(4, 1, input_hw=32),
    "vgg16@64": lambda: get_model("vgg16", input_hw=64),
    "resnet34@64": lambda: get_model("resnet34", input_hw=64),
    "inception_v3@96": lambda: get_model("inception_v3", input_hw=96),
}
CLUSTERS = {
    "pi4x800": lambda: pi_cluster(4, 800),
    "het4": lambda: heterogeneous_cluster([1200, 1000, 800, 600]),
    "het8": lambda: heterogeneous_cluster(
        [1200, 1200, 800, 800, 600, 600, 600, 600]
    ),
}

#: ``plan_exact`` on the cells of ``test_bfs_and_pareto.py`` (model
#: ``toy_chain(4, 1, input_hw=32)``): cluster frequencies + kwargs.
BFS_CELLS = {
    "het3": ([1200, 800, 600], {}),
    "pi3x800": ([800, 800, 800], {}),
    "pi4x800-one-stage": ([800, 800, 800, 800], {"max_stages": 1}),
    "het4": ([1200, 1000, 800, 600], {}),
}
#: ``plan_exact`` on the cells of ``test_exact_planner.py`` (model
#: ``toy_chain(4, 1, input_hw=24, in_channels=3, base_channels=8)``).
EXACT_CELLS = {
    "homo2": [1000.0] * 2,
    "homo3": [1000.0] * 3,
    "homo4": [1000.0] * 4,
    "het3": [1500.0, 900.0, 600.0],
    "het4": [1200.0, 1000.0, 800.0, 600.0],
    "het5": [1500.0, 1200.0, 900.0, 700.0, 500.0],
}


@functools.lru_cache(maxsize=None)
def _model(name):
    return MODELS[name]()


def plan_snapshot(model, plan):
    """Everything a planner decided, and every float Eq. 9 gave it."""
    cost = plan_cost(model, plan, NETWORK)
    return {
        "mode": plan.mode,
        "stages": [
            {
                "start": stage.start,
                "end": stage.end,
                "devices": [d.name for d in stage.devices],
                "regions": [
                    [r.rows.start, r.rows.end, r.cols.start, r.cols.end]
                    for _, r in stage.assignments
                ],
                "path_groups": None
                if stage.path_groups is None
                else [list(g) for g in stage.path_groups],
                "channel_groups": None
                if stage.channel_groups is None
                else [list(g) for g in stage.channel_groups],
                "cost": [
                    sc.t_comp.hex(), sc.t_comm.hex(), float(sc.t_head).hex()
                ],
            }
            for stage, sc in zip(plan.stages, cost.stage_costs)
        ],
        "period": cost.period.hex(),
        "latency": cost.latency.hex(),
    }


def scheme_case(planner, model_name, cluster_name):
    model = _model(model_name)
    plan = PLANNERS[planner]().plan(model, CLUSTERS[cluster_name](), NETWORK)
    return plan_snapshot(model, plan)


def bfs_case(name):
    freqs, kwargs = BFS_CELLS[name]
    model = toy_chain(4, 1, input_hw=32)
    result = plan_exact(model, heterogeneous_cluster(freqs), NETWORK, **kwargs)
    return {
        "period": result.period.hex(),
        "latency": result.latency.hex(),
        "optimal": result.optimal,
        "nodes": result.nodes,
        "plan": plan_snapshot(model, realize_exact(model, result)),
    }


def exact_case(name):
    model = toy_chain(4, 1, input_hw=24, in_channels=3, base_channels=8)
    exact = plan_exact(model, heterogeneous_cluster(EXACT_CELLS[name]), NETWORK)
    return {
        "period": exact.period.hex(),
        "latency": exact.latency.hex(),
        "incumbent_period": exact.incumbent_period.hex(),
        "nodes": exact.nodes,
        "pruned": exact.pruned,
        "stages": [
            [s.start, s.end, [d.name for d in s.devices], s.cost.hex()]
            for s in exact.stages
        ],
        "plan": plan_snapshot(model, realize_exact(model, exact)),
    }


SCHEME_CASES = [
    f"{planner}/{model}/{cluster}"
    for planner in PLANNERS
    for model in MODELS
    for cluster in CLUSTERS
]


def record():
    """Every golden case, freshly computed (used by the recorder)."""
    return {
        "schemes": {c: scheme_case(*c.split("/")) for c in SCHEME_CASES},
        "bfs": {c: bfs_case(c) for c in BFS_CELLS},
        "exact": {c: exact_case(c) for c in EXACT_CELLS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden["schemes"]) == sorted(SCHEME_CASES)
    assert sorted(golden["bfs"]) == sorted(BFS_CELLS)
    assert sorted(golden["exact"]) == sorted(EXACT_CELLS)


@pytest.mark.parametrize("case", SCHEME_CASES)
def test_scheme_plan_is_bit_identical(golden, case):
    assert scheme_case(*case.split("/")) == golden["schemes"][case]


@pytest.mark.parametrize("case", sorted(BFS_CELLS))
def test_bfs_is_bit_identical(golden, case):
    assert bfs_case(case) == golden["bfs"][case]


@pytest.mark.parametrize("case", sorted(EXACT_CELLS))
def test_exact_is_bit_identical(golden, case):
    assert exact_case(case) == golden["exact"][case]
