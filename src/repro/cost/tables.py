"""Vectorized per-segment cost tables for the planning layer.

The DP planner (Algorithm 1), the Pareto-frontier ablation, the exact
planner (the paper's BFS baseline) and the Table II experiment all evaluate the Eq. (9) stage cost
``Ts(start, end, p)`` for thousands of (segment, device-count) queries.
The reference implementation (:func:`repro.cost.stage_cost.stage_time`)
re-walks the segment layer-by-layer per query — an O(units × layers)
Python recursion over :class:`~repro.partition.regions.Region` objects.

This module precomputes, once per ``(model, options)``:

* the analytic halo recurrence as *boundary maps* — for every segment
  end the row coordinate of a strip boundary is propagated backwards
  through every unit with vectorized ``clip(a·s − pad)`` arithmetic over
  the whole boundary plane at once, and
* per-row FLOP prefix tables ``G``/``H`` such that the exact fused-tile
  FLOPs of any row strip ``[a, b)`` of the segment ``[start, end)`` is
  the integer difference ``G[start][b] − H[start][a]``.

Both tables are exact integer arithmetic: every conv/pool FLOP count is
an integer, the per-layer strip area decomposes into ``hi(b) − lo(a)``
because receptive-field propagation moves interval endpoints
independently, and all totals stay far below 2**53 — so the float cost
assembled from the tables is **bit-for-bit identical** to the scalar
reference (:mod:`repro.testing.planner`) and ``stage_time(...).total``.
The scalar implementations remain the exactness oracle; the equivalence
is asserted by ``tests/test_cost_tables.py``.

The one corner the closed form cannot express is a strip whose region
becomes *empty* at an intermediate layer (possible only when a layer's
padding reaches its kernel size, which no real CNN here has).  The
builder detects that case per ``(start, end)`` and flags the segment, and
every consumer transparently falls back to the scalar oracle for it.

Tables are shared process-wide through a weak registry keyed by the
model, so ``plan_pareto`` ``t_lim`` sweeps, ``plan_exact``, the schemes (PICO's DP and OFL's fusion search alike)
and the adaptive switcher all reuse one table per ``(model, options)``
instead of rebuilding caches.

The table only produces the per-strip ``(device, t_comp, t_comm)`` rows;
the Eq. (9) fold itself is :func:`repro.cost.stage_cost.fold_stage`, the
same function the scalar geometries call.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.device import Device
from repro.cost.comm import BYTES_PER_VALUE, NetworkModel
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.cost.stage_cost import branch_stage_time, fold_stage, stage_time
from repro.models.graph import BlockUnit, LayerUnit, Model
from repro.models.layers import ConvSpec, PoolSpec, SpatialLayer
from repro.partition.branches import assign_paths_lpt, is_branchable, path_flops
from repro.partition.fused import chain_forward_hw
from repro.partition.regions import Interval, Region
from repro.partition.strips import equal_partition

__all__ = [
    "BATCH_AMORTIZED_FRACTION",
    "SegmentTable",
    "SegmentCostTable",
    "StageTimeMemo",
    "batched_service",
    "get_segment_table",
    "get_cost_table",
]

#: Default fraction of a stage's compute-side service that is paid once
#: per *batch* rather than once per frame: the im2col pack tap loop, the
#: bias/activation epilogue block loop and the per-layer / per-stage
#: Python dispatch.  Calibrated against ``repro.bench.batch`` (the
#: committed ``BENCH_batch.json`` records the measured amortisation);
#: BENCH_engine's Amdahl note puts the non-GEMM share of the fast path
#: at roughly this level.
BATCH_AMORTIZED_FRACTION = 0.25


def batched_service(
    comm: float,
    comp: float,
    batch: int,
    amortized: float = BATCH_AMORTIZED_FRACTION,
) -> float:
    """The Eq. 9 stage service generalised to a cross-frame batch of
    ``batch`` frames: the B-dependent estimate every consumer (virtual
    clock, plan timing, M/D/1 helpers, adaptive switcher) shares.

    Communication scales linearly — every frame's tile still crosses the
    wire — while a fraction ``amortized`` of the compute-side service is
    paid once per batch and the rest once per frame:

        ``service(B) = B·comm + comp·(amortized + B·(1 − amortized))``

    ``batch == 1`` returns exactly ``comm + comp`` (the existing
    single-frame service, bit-for-bit), which keeps every B=1 timing
    contract intact.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if not 0.0 <= amortized <= 1.0:
        raise ValueError(f"amortized fraction must be in [0, 1], got {amortized}")
    if batch == 1:
        return comm + comp
    return batch * comm + comp * (amortized + batch * (1.0 - amortized))

_Size2 = Tuple[int, int]
_Cols = Tuple[int, int]
#: A row strip assignment: device plus its row interval of the segment's
#: final (full-width) output map.
StripAssignment = Tuple[Device, Interval]


def _layer_coef(layer: SpatialLayer, options: CostOptions) -> int:
    """Integer FLOPs per output *cell* of ``layer`` (Eq. 2)."""
    kh, kw = layer.kernel_size
    if isinstance(layer, ConvSpec):
        return kh * kw * (layer.in_channels // layer.groups) * layer.out_channels
    assert isinstance(layer, PoolSpec)
    if not options.include_pool:
        return 0
    return kh * kw * layer.channels


def _propagate(
    lo: np.ndarray,
    hi: np.ndarray,
    cols: _Cols,
    layer: SpatialLayer,
    in_hw: _Size2,
) -> "Tuple[np.ndarray, np.ndarray, _Cols, bool]":
    """One receptive-field step of the boundary maps.

    ``lo[a]`` / ``hi[b]`` are the propagated start/end row coordinates of
    an original output strip ``[a, b)``; the recurrence of
    :func:`repro.partition.regions.receptive_interval` moves each
    endpoint independently, so whole boundary planes advance at once.
    The returned flag is False when some adjacent boundary pair would
    collapse to an empty interval (clipped entirely away) — the only
    case where the closed form diverges from the scalar recursion.
    """
    kv, kh = layer.kernel_size
    sv, sh = layer.stride
    pv, ph = layer.padding
    h_in, w_in = in_hw
    lo2 = np.clip(lo * sv - pv, 0, h_in)
    hi2 = np.clip((hi - 1) * sv + kv - pv, 0, h_in)
    c_lo = min(max(cols[0] * sh - ph, 0), w_in)
    c_hi = min(max((cols[1] - 1) * sh + kh - ph, 0), w_in)
    ok = c_hi > c_lo and bool(np.all(hi2[1:] > lo2[:-1]))
    return lo2, hi2, (c_lo, c_hi), ok


class _EndTable:
    """All per-start tables for segments ending at one fixed unit."""

    __slots__ = ("h", "w", "c_out", "G", "H", "in_lo", "in_hi", "in_cols", "exact")

    def __init__(
        self,
        h: int,
        w: int,
        c_out: int,
        G: np.ndarray,
        H: np.ndarray,
        in_lo: np.ndarray,
        in_hi: np.ndarray,
        in_cols: "List[_Cols]",
        exact: "List[bool]",
    ) -> None:
        self.h = h
        self.w = w
        self.c_out = c_out
        self.G = G  # (end, h+1) int64: per-start FLOP prefix over hi bounds
        self.H = H  # (end, h+1) int64: per-start FLOP prefix over lo bounds
        self.in_lo = in_lo  # (end, h+1) int64: segment input row starts
        self.in_hi = in_hi  # (end, h+1) int64: segment input row ends
        self.in_cols = in_cols  # per-start input column interval
        self.exact = exact  # per-start: closed form valid?


class SegmentTable:
    """Exact integer cost geometry for every unit segment of a model.

    Built once per ``(model, options)``; :meth:`strip_flops`,
    :meth:`strip_bytes` and :meth:`stage_total` then answer any row-strip
    cost query in O(1) per strip with values bit-identical to the scalar
    oracle (``stage_time``).
    """

    def __init__(self, model: Model, options: CostOptions = DEFAULT_OPTIONS) -> None:
        self.model = model
        self.options = options
        self._ends: "List[Optional[_EndTable]]" = [None] * (model.n_units + 1)
        for end in range(1, model.n_units + 1):
            self._ends[end] = self._build_end(end)

    # ------------------------------------------------------------------
    # table construction

    def _build_end(self, end: int) -> _EndTable:
        model, options = self.model, self.options
        c_out, h, w = model.out_shape(end - 1)
        bounds = np.arange(h + 1, dtype=np.int64)
        lo, hi = bounds.copy(), bounds.copy()
        cols: _Cols = (0, w)
        G = np.zeros(h + 1, dtype=np.int64)
        H = np.zeros(h + 1, dtype=np.int64)
        ok = True
        g_rows: "List[np.ndarray]" = [np.empty(0)] * end
        h_rows: "List[np.ndarray]" = [np.empty(0)] * end
        lo_rows: "List[np.ndarray]" = [np.empty(0)] * end
        hi_rows: "List[np.ndarray]" = [np.empty(0)] * end
        in_cols: "List[_Cols]" = [(0, 0)] * end
        exact: "List[bool]" = [False] * end
        for idx in range(end - 1, -1, -1):
            unit = model.units[idx]
            _, h_in, w_in = model.in_shape(idx)
            lo, hi, cols, ok = self._account_unit(
                unit, (h_in, w_in), lo, hi, cols, G, H, ok
            )
            g_rows[idx] = G.copy()
            h_rows[idx] = H.copy()
            lo_rows[idx] = lo
            hi_rows[idx] = hi
            in_cols[idx] = cols
            exact[idx] = ok
        return _EndTable(
            h,
            w,
            c_out,
            np.stack(g_rows),
            np.stack(h_rows),
            np.stack(lo_rows),
            np.stack(hi_rows),
            in_cols,
            exact,
        )

    def _account_unit(
        self,
        unit,
        in_hw: _Size2,
        lo: np.ndarray,
        hi: np.ndarray,
        cols: _Cols,
        G: np.ndarray,
        H: np.ndarray,
        ok: bool,
    ) -> "Tuple[np.ndarray, np.ndarray, _Cols, bool]":
        """Add one unit's FLOP contribution to ``G``/``H`` (in place) and
        propagate the boundary maps to the unit's input."""
        if isinstance(unit, LayerUnit):
            coef = _layer_coef(unit.layer, self.options)
            cw = cols[1] - cols[0]
            if coef and cw > 0:
                G += coef * cw * hi
                H += coef * cw * lo
            lo, hi, cols, step_ok = _propagate(lo, hi, cols, unit.layer, in_hw)
            return lo, hi, cols, ok and step_ok
        assert isinstance(unit, BlockUnit)
        new_lo: Optional[np.ndarray] = None
        new_hi: Optional[np.ndarray] = None
        new_cols: Optional[_Cols] = None
        for path in unit.paths:
            if path:
                plo, phi, pcols = lo, hi, cols
                sizes = chain_forward_hw(path, in_hw)
                for i in range(len(path) - 1, -1, -1):
                    layer = path[i]
                    coef = _layer_coef(layer, self.options)
                    pcw = pcols[1] - pcols[0]
                    if coef and pcw > 0:
                        G += coef * pcw * phi
                        H += coef * pcw * plo
                    plo, phi, pcols, step_ok = _propagate(
                        plo, phi, pcols, layer, sizes[i]
                    )
                    ok = ok and step_ok
            else:  # identity shortcut: needs the output region itself
                plo, phi, pcols = lo, hi, cols
            # Union hull over paths (paper §IV-B).
            new_lo = plo if new_lo is None else np.minimum(new_lo, plo)
            new_hi = phi if new_hi is None else np.maximum(new_hi, phi)
            new_cols = (
                pcols
                if new_cols is None
                else (min(new_cols[0], pcols[0]), max(new_cols[1], pcols[1]))
            )
        assert new_lo is not None and new_hi is not None and new_cols is not None
        return new_lo, new_hi, new_cols, ok

    # ------------------------------------------------------------------
    # queries

    def exact(self, start: int, end: int) -> bool:
        """Whether the closed form is valid for segment ``[start, end)``."""
        table = self._ends[end]
        assert table is not None
        return table.exact[start]

    def out_shape(self, end: int) -> "Tuple[int, int, int]":
        """(channels, height, width) of the segment's final output map."""
        table = self._ends[end]
        assert table is not None
        return table.c_out, table.h, table.w

    def strip_flops(self, start: int, end: int, rows: Interval) -> int:
        """Exact fused-tile FLOPs (Eq. 4) of the full-width row strip
        ``rows`` of segment ``[start, end)`` — integer, halo included."""
        table = self._ends[end]
        assert table is not None
        return int(table.G[start, rows.end] - table.H[start, rows.start])

    def strip_bytes(self, start: int, end: int, rows: Interval) -> int:
        """Bytes transferred for the strip: segment input region plus
        final output region (Eq. 7), matching ``region_bytes``."""
        table = self._ends[end]
        assert table is not None
        options = self.options
        c_in = self.model.in_shape(start)[0]
        c0, c1 = table.in_cols[start]
        in_h = int(table.in_hi[start, rows.end] - table.in_lo[start, rows.start])
        in_bytes = c_in * in_h * (c1 - c0) * BYTES_PER_VALUE
        out_bytes = table.c_out * len(rows) * table.w * BYTES_PER_VALUE
        return in_bytes + out_bytes

    def stage_total(
        self,
        start: int,
        end: int,
        assignments: "Sequence[StripAssignment]",
        network: NetworkModel,
        with_head: bool = False,
    ) -> float:
        """Eq. (9) stage cost for row-strip assignments, bit-identical to
        ``stage_time(...).total`` on the equivalent Region assignments."""
        if not self.exact(start, end):
            return self._oracle_total(start, end, assignments, network, with_head)
        rows = [
            (device, 0.0, 0.0)
            if strip.empty
            else (
                device,
                device.compute_time(float(self.strip_flops(start, end, strip))),
                network.transfer_time(self.strip_bytes(start, end, strip)),
            )
            for device, strip in assignments
        ]
        t_comp, t_comm, t_head = fold_stage(
            self.model, rows, self.options, with_head
        )
        return t_comp + t_comm + t_head

    def _oracle_total(
        self,
        start: int,
        end: int,
        assignments: "Sequence[StripAssignment]",
        network: NetworkModel,
        with_head: bool,
    ) -> float:
        """Scalar fallback for segments the closed form cannot express."""
        _, _, w = self.out_shape(end)
        regions = [
            (device, Region(rows, Interval(0, w))) for device, rows in assignments
        ]
        return stage_time(
            self.model, start, end, regions, network, self.options, with_head
        ).total


class StageTimeMemo:
    """Memoised ``Ts(start, end, p)`` (Eq. 9) over a pluggable strip cost.

    The protocol Algorithm 1 plans against — ``best`` / ``is_branch`` /
    ``__call__`` — written once.  A subclass supplies only
    :meth:`strip_cost`, the cost of the equal-strip layout:
    :class:`SegmentCostTable` reads it off the vectorized tables, the
    scalar oracle in :mod:`repro.testing` re-walks the segment per
    query.

    With ``allow_branch=True`` a single-unit segment over a concat
    block also considers the branch-parallel layout (paths assigned to
    devices by LPT) and keeps whichever is faster — the intra-block
    partition the paper leaves as future work.
    """

    def __init__(
        self,
        model: Model,
        device: Device,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
        allow_branch: bool = False,
    ) -> None:
        self.model = model
        self.device = device
        self.network = network
        self.options = options
        self.allow_branch = allow_branch
        self._cache: "Dict[Tuple[int, int, int], Tuple[float, bool]]" = {}

    def strip_cost(self, start: int, end: int, p: int, with_head: bool) -> float:
        """Eq. 9 cost of units ``[start, end)`` on ``p`` copies of the
        device with an equal strip partition (§IV-A1)."""
        raise NotImplementedError

    def best(self, start: int, end: int, p: int) -> "Tuple[float, bool]":
        """(cost, is_branch) of the cheapest layout for this stage."""
        key = (start, end, p)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        with_head = end == self.model.n_units
        strip_cost = self.strip_cost(start, end, p, with_head)
        result = (strip_cost, False)
        if (
            self.allow_branch
            and end == start + 1
            and p >= 2
            and is_branchable(self.model.units[start])
        ):
            weights = path_flops(self.model, start, self.options)
            groups = assign_paths_lpt(weights, [self.device.capacity] * p)
            branch_cost = branch_stage_time(
                self.model,
                start,
                tuple((self.device, g) for g in groups),
                self.network,
                self.options,
                with_head=with_head,
            ).total
            if branch_cost < strip_cost:
                result = (branch_cost, True)
        self._cache[key] = result
        return result

    def __call__(self, start: int, end: int, p: int) -> float:
        return self.best(start, end, p)[0]

    def is_branch(self, start: int, end: int, p: int) -> bool:
        return self.best(start, end, p)[1]


class SegmentCostTable(StageTimeMemo):
    """``Ts(start, end, p)`` backed by a :class:`SegmentTable`.

    The production ``Ts``: bit-identical to the scalar oracle
    (:mod:`repro.testing.planner`) at every entry, but each cache miss
    costs O(p) table lookups instead of an O(units × layers) Python
    recursion.  Adds :meth:`min_cost_upto`, the monotone bound the
    pruned DP uses to skip dominated split points.
    """

    def __init__(
        self,
        model: Model,
        device: Device,
        network: NetworkModel,
        options: CostOptions = DEFAULT_OPTIONS,
        allow_branch: bool = False,
        segments: Optional[SegmentTable] = None,
    ) -> None:
        super().__init__(model, device, network, options, allow_branch)
        self.segments = (
            segments if segments is not None else get_segment_table(model, options)
        )
        self._rows_cache: "Dict[Tuple[int, int], List[Interval]]" = {}
        self._min_upto: "Dict[Tuple[int, int], List[float]]" = {}

    def strip_cost(self, start: int, end: int, p: int, with_head: bool) -> float:
        _, h, _ = self.segments.out_shape(end)
        rows = self._rows_cache.get((h, p))
        if rows is None:
            rows = self._rows_cache[(h, p)] = equal_partition(h, p)
        return self.segments.stage_total(
            start,
            end,
            [(self.device, strip) for strip in rows],
            self.network,
            with_head,
        )

    def min_cost_upto(self, start: int, end: int, p_max: int) -> float:
        """``min over 1 <= p' <= p_max of Ts(start, end, p')`` — the
        cheapest any stage over this segment can be with at most
        ``p_max`` devices, used for dominance pruning in the DP."""
        mins = self._min_upto.setdefault((start, end), [])
        while len(mins) < p_max:
            cost = self(start, end, len(mins) + 1)
            mins.append(cost if not mins or cost < mins[-1] else mins[-1])
        return mins[p_max - 1]


# ----------------------------------------------------------------------
# shared registries — one geometry table per (model, options), one cost
# table per (model, device, network, options, branch) across all callers.

_SEGMENT_REGISTRY: "weakref.WeakKeyDictionary[Model, Dict[CostOptions, SegmentTable]]" = (
    weakref.WeakKeyDictionary()
)
_COST_REGISTRY: "weakref.WeakKeyDictionary[Model, Dict[tuple, SegmentCostTable]]" = (
    weakref.WeakKeyDictionary()
)


def get_segment_table(
    model: Model, options: CostOptions = DEFAULT_OPTIONS
) -> SegmentTable:
    """The shared :class:`SegmentTable` for ``(model, options)``."""
    per_model = _SEGMENT_REGISTRY.get(model)
    if per_model is None:
        per_model = {}
        _SEGMENT_REGISTRY[model] = per_model
    table = per_model.get(options)
    if table is None:
        table = SegmentTable(model, options)
        per_model[options] = table
    return table


def get_cost_table(
    model: Model,
    device: Device,
    network: NetworkModel,
    options: CostOptions = DEFAULT_OPTIONS,
    allow_branch: bool = False,
) -> SegmentCostTable:
    """The shared :class:`SegmentCostTable` for a planner configuration.

    Repeated planner invocations — ``plan_pareto`` latency sweeps, the
    adaptive switcher re-planning on workload shifts, Table II cells —
    hit the same memoised ``Ts`` entries instead of rebuilding them.
    """
    per_model = _COST_REGISTRY.get(model)
    if per_model is None:
        per_model = {}
        _COST_REGISTRY[model] = per_model
    key = (device, network, options, allow_branch)
    table = per_model.get(key)
    if table is None:
        table = SegmentCostTable(
            model,
            device,
            network,
            options,
            allow_branch,
            segments=get_segment_table(model, options),
        )
        per_model[key] = table
    return table
