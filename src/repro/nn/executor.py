"""Full-model numpy inference engine.

:class:`Engine` binds a model spec to weights and executes whole
feature maps; :mod:`repro.nn.tiles` reuses its layer dispatch for
region-restricted (tiled) execution — the two paths are asserted
bit-exact by the test suite.

The engine has one execution path:

* convolutions lower to a single BLAS sgemm against **packed weights**
  — per-layer pre-flattened ``(Cout, Cin·kh·kw)`` matrices built lazily
  on first use and cached on the engine, so steady-state frames do no
  per-call reshape or copy;
* **batch norm is folded** into the packed conv weight and bias once
  (:func:`repro.nn.weights.fold_batch_norm`), eliminating the separate
  per-frame BN pass.  Folding happens identically for full-map and
  tiled execution (both read :meth:`Engine._packed_conv`), so the
  tile-vs-full bit-exactness contract is preserved;
* bias adds and activations run **in place** on fresh conv outputs;
* steady-state frames run through **compiled tile plans**: a tile
  program lowered once per tile shape onto buffers it keeps (bordered
  input maps, patch arena, GEMM outputs), built at first use and held
  by the engine, one per concurrent run (:func:`repro.nn.tiles.run_segment`;
  :meth:`Engine.forward_features` runs the full-map program of every
  unit through the same plans);
* multi-path :class:`~repro.models.graph.BlockUnit`\\ s (inception
  branches) execute **concurrently** on the shared thread pool
  (:mod:`repro.nn.parallel`) — BLAS releases the GIL — with a serial
  fallback when ``REPRO_THREADS`` resolves to one.

:meth:`Engine.run_layer` and :meth:`Engine.run_unit` are the per-call
path over the same kernels (:func:`repro.nn.ops.conv2d_packed`,
:func:`repro.nn.ops.maxpool2d`), with im2col in per-thread arenas.

The seed's per-call engine on the sliding-window kernels with a
separate BN pass is the oracle, in :mod:`repro.testing`: bit-exact
with this engine for ``groups == 1`` convolutions without batch norm
and for pooling; grouped convolutions and folded BN agree to float32
rounding (covered by dedicated tolerance tests).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.graph import BlockUnit, LayerUnit, Model, PlanUnit
from repro.models.layers import ConvSpec, PoolSpec, SpatialLayer
from repro.nn import ops, parallel
from repro.nn.weights import Weights, fold_batch_norm, init_weights

__all__ = ["Engine"]

_Pad4 = Tuple[int, int, int, int]


@dataclass(frozen=True)
class _PackedConv:
    """Per-layer GEMM-ready parameters (weights packed, BN folded)."""

    packed: np.ndarray
    bias: Optional[np.ndarray]


class _ThreadScratch(threading.local):
    """Per-thread scratch state (block paths and frame groups run
    concurrently).

    ``pad`` holds the per-call path's im2col patch matrices and
    ``padded`` the zero-bordered input map they are copied from.
    """

    def __init__(self) -> None:
        self.pad = ops.ScratchPad()
        self.padded = ops.ScratchPad()


#: Bytes of buffers an engine keeps in idle compiled tile plans; past
#: it the least recently used go (but never the plan just run).  Tens of
#: plans at the 64-pixel inputs the benchmarks serve; at 224 pixels a
#: whole-network plan is larger alone, and a rebuilt plan costs about a
#: warm-up frame's page faults.
PLAN_POOL_BYTES = 64 << 20


class _PlanPool:
    """Idle compiled tile plans (:func:`repro.nn.tiles.run_segment`)
    per ``(program id, tile shape)``, least recently used first: a run
    takes one out (``None``: build one) and gives it back, so a program
    keeps as many plans as ran it at once.  Bounded by
    :data:`PLAN_POOL_BYTES` of plan buffers (``plan.nbytes``), not by a
    count: a plan's size follows its tile, from kilobytes to hundreds of
    megabytes."""

    def __init__(self) -> None:
        self._idle: "OrderedDict[Tuple[int, Tuple[int, ...]], list]" = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0  # of the idle plans

    def take(self, key):
        with self._lock:
            idle = self._idle.get(key)
            if idle is None:
                return None
            plan = idle.pop()
            if not idle:
                del self._idle[key]
            self.nbytes -= plan.nbytes
            return plan

    def give(self, key, plan) -> None:
        with self._lock:
            self._idle.setdefault(key, []).append(plan)
            self._idle.move_to_end(key)
            self.nbytes += plan.nbytes
            while self.nbytes > PLAN_POOL_BYTES:
                oldest, idle = next(iter(self._idle.items()))
                if oldest == key and len(idle) == 1:
                    break
                self.nbytes -= idle.pop(0).nbytes
                if not idle:
                    del self._idle[oldest]


class Engine:
    """Executes a :class:`~repro.models.graph.Model` with numpy.

    Parameters
    ----------
    model:
        The architecture spec.
    weights:
        Optional pre-built weights; seeded random weights otherwise.
        Packing is lazy per layer, so a dict may be partial, and an
        engine packs (and folds) only the layers it runs.  The packed
        weights and the compiled tile plans capture them: call
        :meth:`refresh_weights` after mutating ``weights``.
    """

    def __init__(
        self, model: Model, weights: Optional[Weights] = None, seed: int = 0
    ) -> None:
        self.model = model
        self.weights = weights if weights is not None else init_weights(model, seed)
        self._packed: "Dict[str, _PackedConv]" = {}
        self._packed_slices: "Dict[Tuple[str, int, int], _PackedConv]" = {}
        self._scratch = _ThreadScratch()
        self._plans = _PlanPool()
        self._full_map = None  # forward_features' program, built at first use

    # ------------------------------------------------------------------
    # Packed-weight cache.
    # ------------------------------------------------------------------
    def _packed_conv(
        self, layer: ConvSpec, channels: "Optional[Tuple[int, int]]" = None
    ) -> _PackedConv:
        """The layer's GEMM-ready parameters, built once and cached
        (``channels``: only the output-channel slice ``[lo, hi)``)."""
        if channels is not None:
            return self._packed_conv_slice(layer, *channels)
        cached = self._packed.get(layer.name)
        if cached is not None:
            return cached
        params = self.weights[layer.name]
        weight = params["weight"]
        bias = params.get("bias")
        if layer.batch_norm:
            weight, bias = fold_batch_norm(
                weight,
                bias,
                params["gamma"],
                params["beta"],
                params["mean"],
                params["var"],
            )
        packed = _PackedConv(ops.pack_conv_weight(weight, layer.groups), bias)
        # Benign race under concurrent first use: both threads build the
        # same deterministic value; last assignment wins.
        self._packed[layer.name] = packed
        return packed

    def _packed_conv_slice(self, layer: ConvSpec, lo: int, hi: int) -> _PackedConv:
        """Rows ``[lo, hi)`` of the packed conv matrix (IOP channel
        slices).  The slice is a view of the full packed matrix, so the
        per-layer weight memory is shared with full-map execution."""
        key = (layer.name, lo, hi)
        cached = self._packed_slices.get(key)
        if cached is not None:
            return cached
        if layer.groups != 1:
            raise ValueError(f"{layer.name}: channel-sliced conv needs groups == 1")
        full = self._packed_conv(layer)
        sliced = _PackedConv(
            full.packed[lo:hi],
            full.bias[lo:hi] if full.bias is not None else None,
        )
        self._packed_slices[key] = sliced
        return sliced

    def refresh_weights(self) -> None:
        """Drop cached packed weights and the compiled plans, which hold
        them (call after mutating ``weights``); a plan still running
        goes back to the dropped pool."""
        self._packed.clear()
        self._packed_slices.clear()
        self._plans = _PlanPool()

    # ------------------------------------------------------------------
    # Layer-level dispatch (shared with tiled execution).
    # ------------------------------------------------------------------
    def run_layer(
        self,
        layer: SpatialLayer,
        x: np.ndarray,
        pads: _Pad4,
        channels: "Optional[Tuple[int, int]]" = None,
    ) -> np.ndarray:
        """Execute one spatial layer with *explicit* padding.

        ``x`` may be a single ``(C, H, W)`` map or a ``(C, B, H, W)``
        cross-frame batch — every kernel underneath indexes the trailing
        spatial axes, so both ranks share one dispatch.

        ``channels`` restricts the layer to the output-channel slice
        ``[lo, hi)`` (IOP channel-parallel stages): a conv runs the GEMM
        against only its slice's packed weight rows, a pool sees only
        its slice's input channels.  ``x`` always carries the layer's
        full input channels.
        """
        if isinstance(layer, ConvSpec):
            packed = self._packed_conv(layer, channels)
            return ops.conv2d_packed(
                x,
                packed.packed,
                packed.bias,
                layer.kernel_size,
                layer.stride,
                pads,
                groups=layer.groups,
                activation=layer.activation,
                scratch=self._scratch.pad,
                pad_scratch=self._scratch.padded,
            )
        assert isinstance(layer, PoolSpec)
        if channels is not None:
            # Pool channel c reads input channel c alone, so the slice
            # is a plain first-axis view of the (batched) input map.
            lo, hi = channels
            x = x[lo:hi]
        if layer.kind_ == "max":
            return ops.maxpool2d(x, layer.kernel_size, layer.stride, pads)
        return ops.avgpool2d(x, layer.kernel_size, layer.stride, pads)

    @staticmethod
    def spec_pads(layer: SpatialLayer) -> _Pad4:
        """The symmetric padding a layer uses on the full map."""
        pv, ph = layer.padding
        return (pv, pv, ph, ph)

    # ------------------------------------------------------------------
    # Full-map execution.
    # ------------------------------------------------------------------
    def _run_path(self, path, x: np.ndarray) -> np.ndarray:
        for layer in path:
            x = self.run_layer(layer, x, self.spec_pads(layer))
        return x

    def run_unit(self, unit: PlanUnit, x: np.ndarray) -> np.ndarray:
        """Execute one plan unit on a full feature map, op by op (the
        per-call path; :meth:`forward_features` runs a compiled plan)."""
        if isinstance(unit, LayerUnit):
            return self.run_layer(unit.layer, x, self.spec_pads(unit.layer))
        assert isinstance(unit, BlockUnit)
        # Inception/residual branches are independent given the block
        # input: fan them out on the shared pool (serial fallback inside).
        outputs = parallel.run_parallel(
            [lambda path=path: self._run_path(path, x) for path in unit.paths]
        )
        if unit.merge == "add":
            # First sum allocates (an identity path may alias the block
            # input x); the rest accumulate in place.  Same association
            # order as the serial reference: ((p0 + p1) + p2) ...
            if len(outputs) == 1:
                merged = outputs[0]
            else:
                merged = outputs[0] + outputs[1]
                for out in outputs[2:]:
                    merged += out
        else:
            merged = np.concatenate(outputs, axis=0)
        merged = ops.ensure_f32c(merged)
        if merged is x:  # single identity path cannot happen, but be safe
            return ops.apply_activation(merged, unit.post_activation)
        return ops.apply_activation_(merged, unit.post_activation)

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """Run every plan unit; returns the final feature map (fresh).

        Runs :func:`repro.nn.tiles.full_map_program` — every unit on the
        whole map at its spec padding, built once per engine — through
        this thread's compiled plan, so steady-state frames reuse its
        buffers."""
        from repro.nn import tiles  # tiles builds on this module

        self._check_input(x)
        if self._full_map is None:
            self._full_map = tiles.full_map_program(self.model)
        return tiles.run_segment(self, self._full_map, x.astype(np.float32, copy=False))

    def run_head(self, features: np.ndarray) -> np.ndarray:
        """Flatten + dense head (identity if the model has no head)."""
        out = features.reshape(-1)
        for dense in self.model.head:
            params = self.weights[dense.name]
            out = ops.linear(out, params["weight"], params["bias"])
            if dense.activation == "relu":
                out = ops.apply_activation_(out, "relu")
            elif dense.activation == "softmax":
                out = ops.softmax(out)
        return out

    def run(self, x: np.ndarray) -> np.ndarray:
        """End-to-end inference: features then head."""
        return self.run_head(self.forward_features(x))

    def _check_input(self, x: np.ndarray) -> None:
        if x.shape != self.model.input_shape:
            raise ValueError(
                f"input shape {x.shape} != model input {self.model.input_shape}"
            )
