"""Full-model numpy inference engine.

:class:`Engine` binds a model spec to weights and executes whole
feature maps; :mod:`repro.nn.tiles` reuses its layer dispatch for
region-restricted (tiled) execution — the two paths are asserted
bit-exact by the test suite.

The engine owns a *fast execution path* (default on, ``REPRO_FAST=0``
or ``Engine(..., fast=False)`` selects the reference kernels):

* convolutions lower to a single BLAS sgemm against **packed weights**
  — per-layer pre-flattened ``(Cout, Cin·kh·kw)`` matrices built lazily
  on first use and cached on the engine, so steady-state frames do no
  per-call reshape or copy;
* **batch norm is folded** into the packed conv weight and bias once
  (:func:`repro.nn.weights.fold_batch_norm`), eliminating the separate
  per-frame BN pass.  Folding happens identically for full-map and
  tiled execution (both go through :meth:`Engine.run_layer`), so the
  tile-vs-full bit-exactness contract is preserved;
* bias adds and activations run **in place** on fresh conv outputs;
* im2col patch matrices live in per-thread scratch arenas instead of
  being reallocated every frame;
* multi-path :class:`~repro.models.graph.BlockUnit`\\ s (inception
  branches) execute **concurrently** on the shared thread pool
  (:mod:`repro.nn.parallel`) — BLAS releases the GIL — with a serial
  fallback when ``REPRO_THREADS`` resolves to one.

The fast and reference paths are bit-exact for ``groups == 1``
convolutions and pooling; grouped convolutions and folded BN agree to
float32 rounding (covered by dedicated tolerance tests).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.graph import BlockUnit, LayerUnit, Model, PlanUnit
from repro.models.layers import ConvSpec, PoolSpec, SpatialLayer
from repro.nn import ops, parallel
from repro.nn.weights import Weights, fold_batch_norm, init_weights

__all__ = ["Engine"]

_Pad4 = Tuple[int, int, int, int]


def _env_flag(name: str, default: bool) -> bool:
    value = os.environ.get(name)
    if value is None:
        return default
    return value.strip().lower() not in ("0", "false", "no", "off", "")


@dataclass(frozen=True)
class _PackedConv:
    """Per-layer GEMM-ready parameters (weights packed, BN folded)."""

    packed: np.ndarray
    bias: Optional[np.ndarray]
    folded: bool  # batch norm already folded into packed/bias


class _ThreadScratch(threading.local):
    """Per-thread scratch state (block paths run concurrently).

    ``pad`` holds im2col patch matrices and ``padded`` the zero-bordered
    input map they are copied from.  ``outs``/``flip`` are the
    ping-pong output arenas for chain execution: every produced feature
    map is consumed only by the next layer, so two alternating buffers
    suffice and steady-state frames allocate nothing.  ``chain`` gates
    the mode — it is only set by :meth:`Engine.forward_features` on
    block-free models, where the consumed-by-next invariant holds.
    """

    def __init__(self) -> None:
        self.pad = ops.ScratchPad()
        self.padded = ops.ScratchPad()
        self.outs = (ops.ScratchPad(), ops.ScratchPad())
        self.flip = 0
        self.chain = False


class Engine:
    """Executes a :class:`~repro.models.graph.Model` with numpy.

    Parameters
    ----------
    model:
        The architecture spec.
    weights:
        Optional pre-built weights; seeded random weights otherwise.
        Weight dicts may be partial (a worker only ships its segment's
        layers) — packing is lazy per layer.
    fast:
        Use the packed-GEMM fast path.  Defaults to the ``REPRO_FAST``
        environment flag, which defaults to on.
    fold_bn:
        Fold batch norm into conv weights at pack time.  Defaults to
        ``fast``; only meaningful on the fast path.
    """

    def __init__(
        self,
        model: Model,
        weights: Optional[Weights] = None,
        seed: int = 0,
        *,
        fast: Optional[bool] = None,
        fold_bn: Optional[bool] = None,
    ) -> None:
        self.model = model
        self.weights = weights if weights is not None else init_weights(model, seed)
        self.fast = _env_flag("REPRO_FAST", True) if fast is None else fast
        self.fold_bn = self.fast if fold_bn is None else fold_bn
        self._packed: "Dict[str, _PackedConv]" = {}
        self._packed_slices: "Dict[Tuple[str, int, int], _PackedConv]" = {}
        self._scratch = _ThreadScratch()
        self._is_chain = all(
            isinstance(unit, LayerUnit) for unit in model.units
        )

    # ------------------------------------------------------------------
    # Packed-weight cache.
    # ------------------------------------------------------------------
    def _packed_conv(self, layer: ConvSpec) -> _PackedConv:
        """The layer's GEMM-ready parameters, built once and cached."""
        cached = self._packed.get(layer.name)
        if cached is not None:
            return cached
        params = self.weights[layer.name]
        weight = params["weight"]
        bias = params.get("bias")
        folded = False
        if layer.batch_norm and self.fold_bn:
            weight, bias = fold_batch_norm(
                weight,
                bias,
                params["gamma"],
                params["beta"],
                params["mean"],
                params["var"],
            )
            folded = True
        packed = _PackedConv(
            ops.pack_conv_weight(weight, layer.groups), bias, folded
        )
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
        full = self._packed_conv(layer)
        sliced = _PackedConv(
            full.packed[lo:hi],
            full.bias[lo:hi] if full.bias is not None else None,
            full.folded,
        )
        self._packed_slices[key] = sliced
        return sliced

    def refresh_weights(self) -> None:
        """Drop cached packed weights (call after mutating ``weights``)."""
        self._packed.clear()
        self._packed_slices.clear()

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
            if channels is not None and layer.groups != 1:
                raise ValueError(
                    f"{layer.name}: channel-sliced conv needs groups == 1"
                )
            if self.fast:
                return self._run_conv_fast(layer, x, pads, channels)
            params = self.weights[layer.name]
            weight = params["weight"]
            bias = params.get("bias")
            if channels is not None:
                lo, hi = channels
                weight = weight[lo:hi]
                bias = bias[lo:hi] if bias is not None else None
            out = ops.conv2d_reference(
                x, weight, bias, layer.stride, pads,
                groups=layer.groups,
            )
            if layer.batch_norm:
                gamma, beta = params["gamma"], params["beta"]
                mean, var = params["mean"], params["var"]
                if channels is not None:
                    lo, hi = channels
                    gamma, beta = gamma[lo:hi], beta[lo:hi]
                    mean, var = mean[lo:hi], var[lo:hi]
                out = ops.batch_norm(out, gamma, beta, mean, var)
            return ops.apply_activation(out, layer.activation)
        assert isinstance(layer, PoolSpec)
        if channels is not None:
            # Pool channel c reads input channel c alone, so the slice
            # is a plain first-axis view of the (batched) input map.
            lo, hi = channels
            x = x[lo:hi]
        if layer.kind_ == "max":
            if self.fast:
                return ops.maxpool2d(
                    x, layer.kernel_size, layer.stride, pads,
                    out_scratch=self._take_chain_arena(),
                )
            return ops.maxpool2d_reference(x, layer.kernel_size, layer.stride, pads)
        return ops.avgpool2d(x, layer.kernel_size, layer.stride, pads)

    def _take_chain_arena(self) -> "Optional[ops.ScratchPad]":
        """The next ping-pong output arena, or ``None`` outside chain mode."""
        ts = self._scratch
        if not ts.chain:
            return None
        arena = ts.outs[ts.flip]
        ts.flip ^= 1
        return arena

    def _run_conv_fast(
        self,
        layer: ConvSpec,
        x: np.ndarray,
        pads: _Pad4,
        channels: "Optional[Tuple[int, int]]" = None,
    ) -> np.ndarray:
        if channels is None:
            packed = self._packed_conv(layer)
        else:
            packed = self._packed_conv_slice(layer, channels[0], channels[1])
        fused_activation = layer.activation
        if layer.batch_norm and not packed.folded:
            fused_activation = "linear"
        out = ops.conv2d_packed(
            x,
            packed.packed,
            packed.bias,
            layer.kernel_size,
            layer.stride,
            pads,
            groups=layer.groups,
            activation=fused_activation,
            scratch=self._scratch.pad,
            out_scratch=self._take_chain_arena(),
            pad_scratch=self._scratch.padded,
        )
        if layer.batch_norm and not packed.folded:
            params = self.weights[layer.name]
            gamma, beta = params["gamma"], params["beta"]
            mean, var = params["mean"], params["var"]
            if channels is not None:
                lo, hi = channels
                gamma, beta = gamma[lo:hi], beta[lo:hi]
                mean, var = mean[lo:hi], var[lo:hi]
            out = ops.batch_norm(out, gamma, beta, mean, var)
            return ops.apply_activation_(out, layer.activation)
        return out

    @staticmethod
    def spec_pads(layer: SpatialLayer) -> _Pad4:
        """The symmetric padding a layer uses on the full map."""
        pv, ph = layer.padding
        return (pv, pv, ph, ph)

    def run_chain(
        self,
        steps: "Tuple[Tuple[SpatialLayer, _Pad4], ...]",
        x: np.ndarray,
    ) -> np.ndarray:
        """Run consecutive layers where each output feeds only the next.

        On the fast path the intermediate outputs live in the per-thread
        ping-pong arenas (zero steady-state allocation); the **final**
        output is always freshly allocated, so callers may hold it
        across frames, merge it with other paths, or stitch it from
        another thread.  Values are identical to running the layers
        one by one.
        """
        if not steps:
            return x
        ts = self._scratch
        if self.fast and len(steps) > 1 and not ts.chain:
            ts.chain = True
            try:
                for layer, pads in steps[:-1]:
                    x = self.run_layer(layer, x, pads)
            finally:
                ts.chain = False
        else:
            for layer, pads in steps[:-1]:
                x = self.run_layer(layer, x, pads)
        layer, pads = steps[-1]
        return self.run_layer(layer, x, pads)

    # ------------------------------------------------------------------
    # Full-map execution.
    # ------------------------------------------------------------------
    def _run_path(self, path, x: np.ndarray) -> np.ndarray:
        return self.run_chain(
            tuple((layer, self.spec_pads(layer)) for layer in path), x
        )

    def run_unit(self, unit: PlanUnit, x: np.ndarray) -> np.ndarray:
        """Execute one plan unit on a full feature map."""
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
        """Run every plan unit; returns the final feature map."""
        self._check_input(x)
        out = x.astype(np.float32, copy=False)
        ts = self._scratch
        if self.fast and self._is_chain and not ts.chain:
            # Chain models (every output consumed only by the next
            # layer) run with ping-pong output arenas: zero steady-state
            # allocation.  Detach the final map so it survives the next
            # frame's arena reuse.
            ts.chain = True
            try:
                for unit in self.model.units:
                    out = self.run_unit(unit, out)
            finally:
                ts.chain = False
            return out.copy() if out is not x else out
        for unit in self.model.units:
            out = self.run_unit(unit, out)
        return out

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
