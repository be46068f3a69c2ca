"""Equivalence suite: vectorized cost tables vs the scalar oracle.

The :mod:`repro.cost.tables` layer must be *bit-for-bit* identical to
the reference cost model — ``SegmentCostTable`` vs
``homogeneous_stage_time``, ``SegmentTable.stage_total`` vs
``stage_time`` — and the vectorized planners must return exactly the
plans the scalar-backed reference DP returns.

The planner claim is checked in two halves, with no pair dropped:

* every ``(start, end, p <= 8)`` entry of the planners' shared cost
  table equals the scalar model, once per zoo model
  (``test_equal_strips_match_oracle``).  The layout choice on top of the
  strip cost (``StageTimeMemo.best``, branch arm included) is one piece
  of code shared by the table and the oracle memo, so equal entries make
  equal ``Ts``;
* over that proven table, the pruned DP (``plan_homogeneous``) returns
  what the unpruned DP — the reference's search — returns, at every
  cluster size and latency budget (``TestPlanEquivalence``).
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.dp_planner import _min_period_dp, plan_homogeneous
from repro.core.pareto import plan_pareto
from repro.cost.comm import NetworkModel
from repro.cost.flops import DEFAULT_OPTIONS
from repro.cost.stage_cost import stage_time
from repro.cost.tables import (
    SegmentCostTable,
    SegmentTable,
    get_cost_table,
    get_segment_table,
)
from repro.models.graph import chain_model
from repro.models.layers import ConvSpec, conv3x3
from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.partition.branches import is_branchable
from repro.partition.regions import Interval, Region
from repro.partition.strips import weighted_partition
from repro.testing import StageTimeTable, plan_homogeneous_reference
from repro.testing.planner import homogeneous_stage_time

NET = NetworkModel.from_mbps(50.0)
OPTIONS = DEFAULT_OPTIONS

#: The homogenised device of every 600 MHz Pi cluster (1 to 8 devices
#: average to this one device), so one shared cost table per model
#: answers every cluster size the plan checks use.
DEVICE = pi_cluster(8, 600).homogenized().devices[0]
MAX_DEVICES = 8

#: Model zoo at benchmark-friendly resolutions; every architecture kind
#: (plain chain, residual, concat blocks, depthwise, non-square kernels).
ZOO_CASES = [
    ("toy", lambda: toy_chain(6, 2, input_hw=48)),
    ("vgg16", lambda: get_model("vgg16", input_hw=64)),
    ("resnet34", lambda: get_model("resnet34", input_hw=64)),
    ("inception_v3", lambda: get_model("inception_v3", input_hw=96)),
    ("mobilenet_v2", lambda: get_model("mobilenet_v2", input_hw=64)),
    ("yolov2", lambda: get_model("yolov2", input_hw=64)),
]
ZOO_IDS = [name for name, _ in ZOO_CASES]


@pytest.fixture(scope="module", params=[build for _, build in ZOO_CASES], ids=ZOO_IDS)
def model(request):
    return request.param()


def proven_table(model, allow_branch: bool = False) -> SegmentCostTable:
    """The planners' shared cost table for ``model`` on :data:`DEVICE` —
    the table ``test_equal_strips_match_oracle`` proves entry by entry."""
    return get_cost_table(model, DEVICE, NET, OPTIONS, allow_branch)


def same_plan(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return (got.stages, got.period, got.latency) == (
        want.stages, want.period, want.latency,
    )


def assert_pruning_exact(model, n_devices, t_lim=math.inf, allow_branch=False):
    """Pruned DP == unpruned DP over the proven table, and
    ``plan_homogeneous`` is the pruned DP over that same table."""
    cluster = pi_cluster(n_devices, 600)
    assert cluster.homogenized().devices[0] == DEVICE
    table = proven_table(model, allow_branch)
    free = _min_period_dp(model, n_devices, table, t_lim, prune=False)
    pruned = _min_period_dp(model, n_devices, table, t_lim, prune=True)
    assert same_plan(pruned, free)
    planned = plan_homogeneous(
        model, cluster, NET, OPTIONS, t_lim=t_lim, allow_branch=allow_branch
    )
    assert same_plan(planned, free)
    return free


class TestBitForBitEquivalence:
    def test_all_segments_exact(self, model):
        """No real CNN here pads past its kernel, so the closed form
        must cover every segment."""
        table = SegmentTable(model, OPTIONS)
        n = model.n_units
        assert all(
            table.exact(s, e) for s in range(n) for e in range(s + 1, n + 1)
        )

    def test_equal_strips_match_oracle(self, model):
        """The planners' shared table == homogeneous_stage_time(...).total,
        exact float equality, at every segment and every p in 1..8."""
        table = proven_table(model)
        n = model.n_units
        for start in range(n):
            for end in range(start + 1, n + 1):
                for p in range(1, MAX_DEVICES + 1):
                    expected = homogeneous_stage_time(
                        model, start, end, p, DEVICE, NET, OPTIONS,
                        with_head=end == n,
                    ).total
                    assert table(start, end, p) == expected, (start, end, p)

    def test_weighted_strips_match_oracle(self, model):
        """stage_total on heterogeneous weighted strips == stage_time."""
        cluster = heterogeneous_cluster([600.0, 800.0, 1200.0])
        devices = list(cluster)
        table = SegmentTable(model, OPTIONS)
        n = model.n_units
        segments = (
            [(0, e) for e in range(1, n + 1)]
            + [(s, n) for s in range(n)]
            + [(s, s + 2) for s in range(n - 2)]
        )
        for start, end in segments:
            _, h, w = table.out_shape(end)
            rows = weighted_partition(h, [d.capacity for d in devices])
            assignments = list(zip(devices, rows))
            regions = [
                (d, Region(iv, Interval(0, w))) for d, iv in assignments
            ]
            expected = stage_time(
                model, start, end, regions, NET, OPTIONS,
                with_head=end == n,
            ).total
            got = table.stage_total(
                start, end, assignments, NET, with_head=end == n
            )
            assert got == expected, (start, end)


class TestPlanEquivalence:
    @pytest.mark.parametrize("n_devices", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_unbounded(self, model, n_devices):
        assert assert_pruning_exact(model, n_devices) is not None

    def test_finite_t_lim(self, model):
        """A budget strictly between the single-stage minimum latency
        and the unconstrained optimum's latency binds for real."""
        n_devices = 6
        table = proven_table(model)
        free = _min_period_dp(model, n_devices, table, math.inf, prune=False)
        min_latency = min(
            table(0, model.n_units, p) for p in range(1, n_devices + 1)
        )
        for t_lim in (
            (min_latency + free.latency) / 2,
            free.latency,
            min_latency * 0.5,  # infeasible: both must return None
        ):
            assert_pruning_exact(model, n_devices, t_lim)

    def test_pareto(self, model):
        """The frontier DP reads the proven table, and without a budget
        it finds Algorithm 1's period at no more latency."""
        cluster = pi_cluster(4, 600)
        table = proven_table(model)
        dp = assert_pruning_exact(model, len(cluster))
        for t_lim in (math.inf, None):
            kwargs = {} if t_lim is None else {"t_lim": t_lim}
            pareto = plan_pareto(model, cluster, NET, OPTIONS, **kwargs)
            assert same_plan(
                plan_pareto(model, cluster, NET, OPTIONS, table=table, **kwargs),
                pareto,
            )
            assert pareto.period == dp.period
            assert pareto.latency <= dp.latency


class TestBranchParallel:
    def test_branch_stages_match_reference(self):
        """allow_branch=True: the branch table's layout choices equal the
        oracle memo's on every branchable single-unit stage, and pruning
        is exact over it."""
        model = get_model("inception_v3", input_hw=96)
        table = proven_table(model, allow_branch=True)
        oracle = StageTimeTable(model, DEVICE, NET, OPTIONS, allow_branch=True)
        n = model.n_units
        branchable = [s for s in range(n) if is_branchable(model.units[s])]
        assert branchable
        for start in branchable:
            for p in range(2, MAX_DEVICES + 1):
                assert table.best(start, start + 1, p) == oracle.best(
                    start, start + 1, p
                ), (start, p)
        plan = assert_pruning_exact(model, 6, allow_branch=True)
        assert plan is not None


class TestBfsTable:
    def test_same_result_with_and_without_table(self, monkeypatch):
        """The exhaustive search through the closed-form table and
        through a table that claims no segment is exact (so every stage
        is answered by the scalar oracle) must agree."""
        import repro.core.exact as exact

        model = toy_chain(4, 1, input_hw=32)
        cluster = heterogeneous_cluster([600.0, 800.0, 1000.0])
        with_table = exact.plan_exact(model, cluster, NET, OPTIONS)

        class NeverExact(SegmentTable):
            def exact(self, start, end):
                return False

        scalar = NeverExact(model, OPTIONS)
        monkeypatch.setattr(exact, "get_segment_table", lambda m, o: scalar)
        without = exact.plan_exact(model, cluster, NET, OPTIONS)
        assert with_table.optimal and without.optimal
        assert with_table.period == without.period
        assert with_table.latency == without.latency


def overpadded_model():
    """padding >= kernel lets a strip's intermediate interval clip to
    empty — the one case the closed form cannot express."""
    layers = [
        conv3x3("c1", 1, 8),
        ConvSpec("overpad", 8, 8, kernel_size=1, stride=1, padding=1),
        conv3x3("c2", 8, 8),
    ]
    return chain_model("overpadded", (1, 16, 16), layers)


class TestScalarFallback:
    def test_overpadded_layer_falls_back_to_oracle(self):
        """The table must flag the over-padded segments and still answer
        them through the oracle."""
        model = overpadded_model()
        table = SegmentTable(model, OPTIONS)
        n = model.n_units
        # Segments *ending at* the over-padded layer see its clipped
        # boundaries directly and collapse; a later conv's halo re-widens
        # the intervals, so longer segments stay exact.
        assert not table.exact(0, 2)
        assert not table.exact(1, 2)
        device = pi_cluster(1, 600).devices[0]
        vec = SegmentCostTable(model, device, NET, OPTIONS, segments=table)
        for start in range(n):
            for end in range(start + 1, n + 1):
                for p in (1, 2, 4):
                    expected = homogeneous_stage_time(
                        model, start, end, p, device, NET, OPTIONS,
                        with_head=end == n,
                    ).total
                    assert vec(start, end, p) == expected, (start, end, p)
        ref = plan_homogeneous_reference(model, pi_cluster(3, 600), NET, OPTIONS)
        got = plan_homogeneous(model, pi_cluster(3, 600), NET, OPTIONS)
        assert (got.stages, got.period, got.latency) == (
            ref.stages,
            ref.period,
            ref.latency,
        )

    def test_searches_ride_the_tables_own_fallback(self, monkeypatch):
        """``plan_exact`` and OFL have no scalar fork of their own: they
        ask ``stage_total`` for every segment, and on the non-exact
        ones its oracle fallback must give them exactly what an
        all-scalar search finds."""
        import repro.core.exact as exact
        import repro.schemes.optimal_fused as ofl

        model = overpadded_model()
        cluster = heterogeneous_cluster([600.0, 800.0, 1000.0])
        fell_back = set()

        class Counting(SegmentTable):
            def _oracle_total(self, start, end, *args):
                fell_back.add((start, end))
                return super()._oracle_total(start, end, *args)

        class NeverExact(SegmentTable):
            def exact(self, start, end):
                return False

        mixed, scalar = Counting(model, OPTIONS), NeverExact(model, OPTIONS)
        results = {}
        for name, table in (("mixed", mixed), ("scalar", scalar)):
            for module in (exact, ofl):
                monkeypatch.setattr(
                    module, "get_segment_table", lambda m, o, t=table: t
                )
            results[name] = (
                exact.plan_exact(model, cluster, NET, OPTIONS),
                ofl.OptimalFusedScheme().plan(model, cluster, NET, OPTIONS),
            )
            if name == "mixed":
                assert fell_back == {(0, 2), (1, 2)}
        assert results["mixed"] == results["scalar"]


class TestRegistry:
    def test_tables_are_shared(self):
        model = toy_chain(3, 0, input_hw=16)
        assert get_segment_table(model, OPTIONS) is get_segment_table(
            model, OPTIONS
        )
        device = pi_cluster(2, 600).devices[0]
        a = get_cost_table(model, device, NET, OPTIONS)
        b = get_cost_table(model, device, NET, OPTIONS)
        assert a is b
        assert a.segments is get_segment_table(model, OPTIONS)
        # A different configuration gets its own cost table but shares
        # the geometry.
        c = get_cost_table(model, device, NET, OPTIONS, allow_branch=True)
        assert c is not a and c.segments is a.segments

    def test_min_cost_upto_is_running_minimum(self):
        model = toy_chain(4, 1, input_hw=32)
        device = pi_cluster(1, 600).devices[0]
        table = SegmentCostTable(model, device, NET, OPTIONS)
        n = model.n_units
        for p_max in range(1, 6):
            expected = min(table(1, n, p) for p in range(1, p_max + 1))
            assert table.min_cost_upto(1, n, p_max) == expected
