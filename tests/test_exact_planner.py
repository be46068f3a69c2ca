"""Regression properties of the branch-and-bound exact planner.

The three analytic anchors (mirrored by the ``repro.bench.exact`` gates
on the committed ``BENCH_exact.json``):

* **homogeneous equality** — with all capacities equal the canonical
  stage realization is Algorithm 1's equal split, the two search spaces
  coincide, and the exact period must *equal* the DP period;
* **greedy dominance** — on heterogeneous mixes with pairwise-distinct
  capacities the greedy plan is the search's incumbent under the same
  canonical realization, so the exact period is always ``<=`` greedy;
* **degenerate pruning** — ``period_bound=0.0`` prunes every node and
  the planner must return the incumbent untouched.

Plus the search's own oracle: a recursion over every cut × every device
subset with no bound, no memo and no class symmetry, priced by
``plan_cost``, whose minimum ``plan_exact`` must equal on clusters with
repeated capacities.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import Cluster, Device, heterogeneous_cluster
from repro.core.dp_planner import plan_homogeneous
from repro.core.exact import (
    MAX_EXACT_ALLOCATIONS,
    ExactScheme,
    plan_exact,
    realize_exact,
)
from repro.core.plan import PipelinePlan, StagePlan, plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.partition.strips import equal_partition, strip_regions, weighted_partition
from repro.runtime.core import InProcTransport, PipelineSession
from repro.schemes import PlanningError
from repro.schemes.pico import PicoScheme

NETWORK = NetworkModel.from_mbps(50.0)

#: Heterogeneous mixes with pairwise-distinct capacities: Algorithm 2's
#: strongest-first realization of any stage subset is then canonical,
#: so "exact <= greedy" compares identical plan realizations.
HET_MIXES = (
    [1500.0, 900.0, 600.0],
    [1200.0, 1000.0, 800.0, 600.0],
    [1500.0, 1200.0, 900.0, 700.0, 500.0],
)


@pytest.fixture(scope="module")
def model():
    return toy_chain(4, 1, input_hw=24, in_channels=3, base_channels=8)


@pytest.mark.parametrize("n_devices", [2, 3, 4])
def test_exact_equals_dp_on_homogeneous_cluster(model, n_devices):
    cluster = heterogeneous_cluster([1000.0] * n_devices)
    homo = plan_homogeneous(model, cluster, NETWORK)
    assert homo is not None
    exact = plan_exact(model, cluster, NETWORK)
    assert exact.period == homo.period
    assert exact.gap == 0.0


@pytest.mark.parametrize("freqs", HET_MIXES, ids=["het3", "het4", "het5"])
def test_exact_never_worse_than_greedy(model, freqs):
    cluster = heterogeneous_cluster(freqs)
    greedy = plan_cost(
        model, PicoScheme().plan(model, cluster, NETWORK), NETWORK
    )
    exact = plan_exact(model, cluster, NETWORK)
    assert exact.period <= greedy.period
    assert exact.incumbent_period == greedy.period
    assert exact.gap >= 0.0


@pytest.mark.parametrize("freqs", HET_MIXES, ids=["het3", "het4", "het5"])
def test_zero_period_bound_returns_incumbent(model, freqs):
    """Pruning everything must reproduce the greedy incumbent exactly —
    the search can only ever improve on it."""
    cluster = heterogeneous_cluster(freqs)
    bounded = plan_exact(model, cluster, NETWORK, period_bound=0.0)
    assert not bounded.improved
    assert bounded.period == bounded.incumbent_period
    greedy = plan_cost(
        model, PicoScheme().plan(model, cluster, NETWORK), NETWORK
    )
    assert bounded.period == greedy.period
    # The incumbent stages mirror the greedy plan's segments.
    greedy_plan = PicoScheme().plan(model, cluster, NETWORK)
    assert [(s.start, s.end) for s in bounded.stages] == [
        (s.start, s.end) for s in greedy_plan.stages
    ]


@pytest.mark.parametrize("freqs", HET_MIXES, ids=["het3", "het4", "het5"])
def test_realized_plan_cost_reproduces_search_period(model, freqs):
    cluster = heterogeneous_cluster(freqs)
    exact = plan_exact(model, cluster, NETWORK)
    realized = plan_cost(model, realize_exact(model, exact), NETWORK)
    assert realized.period == exact.period
    assert realized.latency == exact.latency


def test_search_statistics_are_consistent(model):
    cluster = heterogeneous_cluster(HET_MIXES[1])
    exact = plan_exact(model, cluster, NETWORK)
    assert exact.nodes > 0
    assert 0 <= exact.pruned <= exact.nodes
    assert exact.n_stages == len(exact.stages)
    # Stages tile the unit chain and use disjoint devices.
    assert exact.stages[0].start == 0
    assert exact.stages[-1].end == model.n_units
    names = [d.name for s in exact.stages for d in s.devices]
    assert len(names) == len(set(names))
    for prev, nxt in zip(exact.stages, exact.stages[1:]):
        assert prev.end == nxt.start


def test_exact_rejects_large_clusters(model):
    """The guard is the width of one stage choice, not a device count:
    nine distinct devices are 2^9 - 1 allocations, over the ceiling."""
    cluster = heterogeneous_cluster([600.0 + 100.0 * i for i in range(9)])
    with pytest.raises(PlanningError, match="511 device allocations"):
        plan_exact(model, cluster, NETWORK)
    # But a deadline bounds the run, so the same call is accepted.
    bounded = plan_exact(model, cluster, NETWORK, deadline_s=30.0)
    assert bounded.period <= bounded.incumbent_period
    # Nine devices in two classes are only 5 * 6 - 1 = 29 wide.
    two_class = heterogeneous_cluster([1200.0] * 4 + [600.0] * 5)
    assert 29 <= MAX_EXACT_ALLOCATIONS
    assert plan_exact(model, two_class, NETWORK).optimal


def _alpha_cluster():
    """Equal capacities, different Eq. 5 ``alpha``: two classes."""
    return Cluster(
        tuple(
            Device(f"d{i}", 2.0e9, alpha)
            for i, alpha in enumerate([1.5, 1.0, 1.5, 1.0, 1.25])
        )
    )


@pytest.mark.parametrize(
    "cluster",
    [
        heterogeneous_cluster([1200, 1200, 800, 800, 600, 600, 600, 600]),
        _alpha_cluster(),
    ],
    ids=["het8", "alpha"],
)
def test_repeated_capacities_realize_to_the_searched_cost(model, cluster):
    """Class symmetry hands a stage *some* members of each class; the
    realized plan must still cost what the search priced and give every
    device to at most one stage."""
    exact = plan_exact(model, cluster, NETWORK)
    assert exact.optimal
    realized = plan_cost(model, realize_exact(model, exact), NETWORK)
    assert realized.period == exact.period
    assert realized.latency == exact.latency
    names = [d.name for s in exact.stages for d in s.devices]
    assert len(names) == len(set(names))
    assert set(names) <= {d.name for d in cluster}
    for stage in exact.stages:
        keys = [(-d.capacity, d.alpha) for d in stage.devices]
        assert keys == sorted(keys)


def enumerate_plans(model, cluster, network):
    """``(period, latency, n_stages)`` of every contiguous cut × every
    disjoint device subset — no pruning, no memo, no symmetry; each
    complete plan is realized by the documented canonical rule and
    priced by plan_cost."""
    devices = cluster.devices
    n_units = model.n_units

    def stage_plan(start, end, subset):
        chosen = [
            devices[i]
            for i in sorted(
                subset,
                key=lambda i: (-devices[i].capacity, devices[i].alpha, i),
            )
        ]
        _, h, w = model.out_shape(end - 1)
        caps = [d.capacity for d in chosen]
        rows = (
            equal_partition(h, len(caps))
            if len(set(caps)) == 1
            else weighted_partition(h, caps)
        )
        return StagePlan(start, end, tuple(zip(chosen, strip_regions(h, w, rows))))

    def plans(start, avail):
        if start == n_units:
            yield ()
            return
        for end in range(start + 1, n_units + 1):
            for size in range(1, len(avail) + 1):
                for subset in itertools.combinations(avail, size):
                    rest = tuple(i for i in avail if i not in subset)
                    for tail in plans(end, rest):
                        yield (stage_plan(start, end, subset),) + tail

    keys = []
    for stages in plans(0, tuple(range(len(devices)))):
        cost = plan_cost(
            model, PipelinePlan(model.name, stages, mode="pipelined"), network
        )
        keys.append((cost.period, cost.latency, len(stages)))
    return keys


@settings(max_examples=200, deadline=None)
@given(
    n_conv=st.integers(2, 4),
    n_pool=st.integers(0, 1),
    mbps=st.sampled_from([50.0, 300.0, 1000.0]),
    max_stages=st.sampled_from([1, 2, 3]),
    devices=st.lists(
        st.tuples(
            st.sampled_from([600.0, 800.0, 1200.0]),
            st.sampled_from([1.0, 1.0, 1.5]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_exact_equals_unpruned_enumeration(n_conv, n_pool, mbps, max_stages, devices):
    """Optimality oracle on clusters *with repeats* (three frequencies,
    up to four devices): bound, dominance memo and class symmetry must
    never cut the optimum, with or without ``max_stages`` / ``t_lim``.
    The faster links make multi-device and multi-stage optima common
    instead of one device winning outright."""
    network = NetworkModel.from_mbps(mbps)
    oracle_model = toy_chain(
        n_conv, n_pool, input_hw=24, in_channels=3, base_channels=8
    )
    cluster = Cluster(
        tuple(
            Device(f"d{i}", mhz * 2.0e6, alpha)
            for i, (mhz, alpha) in enumerate(devices)
        )
    )
    keys = enumerate_plans(oracle_model, cluster, network)

    def searched(**kwargs):
        exact = plan_exact(oracle_model, cluster, network, **kwargs)
        assert exact.optimal
        return (exact.period, exact.latency, exact.n_stages)

    best = min(keys)
    assert searched() == best
    assert searched(max_stages=max_stages) == min(
        k for k in keys if k[2] <= max_stages
    )
    # A latency budget halfway between the fastest plan and the
    # period-optimal one binds whenever the two differ.
    t_lim = (min(k[1] for k in keys) + best[1]) / 2
    assert searched(t_lim=t_lim) == min(k for k in keys if k[1] <= t_lim)


def test_exact_scheme_plan_runs_and_matches_engine(model):
    """The --planner exact path end-to-end: the realized plan compiles
    and serves a frame bit-identical to the plain engine forward."""
    cluster = heterogeneous_cluster(HET_MIXES[0])
    plan = ExactScheme().plan(model, cluster, NETWORK)
    weights = init_weights(model, seed=0)
    engine = Engine(model, weights)
    rng = np.random.default_rng(11)
    frame = rng.standard_normal(model.input_shape).astype(np.float32)
    transport = InProcTransport(engine)
    session = PipelineSession.from_plan(model, plan, transport)
    try:
        out = session.run_frame(frame)
    finally:
        transport.close()
    assert np.array_equal(out, engine.forward_features(frame))
