"""The seed's engine: the oracle the production engine is held to and
the "before" side of the engine benchmark.

:class:`ReferenceEngine` walks a model unit by unit, every layer one
call on the reference kernels of :mod:`repro.testing.kernels`, batch
norm a separate pass after the conv.  :func:`run_segment_reference` runs
a tile program the same way — one ``run_layer`` per step, each block
path on its crop, the merge in the compiled plan's association order —
on any engine, so it is also the op-by-op oracle for
:func:`repro.nn.tiles.run_segment`'s compiled plans.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.models.graph import BlockUnit, LayerUnit, Model, PlanUnit
from repro.models.layers import ConvSpec, PoolSpec, SpatialLayer
from repro.nn import ops, parallel
from repro.nn.executor import Engine
from repro.nn.weights import Weights
from repro.testing.kernels import (
    apply_activation,
    batch_norm,
    conv2d_reference,
    maxpool2d_reference,
)
from repro.testing.weights import init_weights_reference

__all__ = ["ReferenceEngine", "run_segment_reference", "run_unit"]

_Pad4 = Tuple[int, int, int, int]


def _run_path(engine, path, x: np.ndarray) -> np.ndarray:
    for layer in path:
        x = engine.run_layer(layer, x, engine.spec_pads(layer))
    return x


def run_unit(engine, unit: PlanUnit, x: np.ndarray) -> np.ndarray:
    """Execute one plan unit on a full feature map, op by op, on
    ``engine`` (an :class:`~repro.nn.executor.Engine` or a
    :class:`ReferenceEngine`): its per-call ``run_layer`` path, where
    :meth:`~repro.nn.executor.Engine.forward_features` runs a compiled
    plan."""
    if isinstance(unit, LayerUnit):
        return engine.run_layer(unit.layer, x, engine.spec_pads(unit.layer))
    assert isinstance(unit, BlockUnit)
    # Inception/residual branches are independent given the block
    # input: fan them out on the shared pool (serial fallback inside).
    outputs = parallel.run_parallel(
        [lambda path=path: _run_path(engine, path, x) for path in unit.paths]
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
        return apply_activation(merged, unit.post_activation)
    return ops.apply_activation_(merged, unit.post_activation)


class ReferenceEngine:
    """Executes a :class:`~repro.models.graph.Model` on the reference
    kernels, per call, with unfolded batch norm: its weights are the raw
    draws (:func:`~repro.testing.weights.init_weights_reference`, a
    batch-norm conv's ``gamma``/``beta``/``mean``/``var`` beside its
    weight), where :class:`~repro.nn.executor.Engine` takes them folded.
    The dense head is the production one
    (:meth:`repro.nn.executor.Engine.run_head`)."""

    def __init__(
        self, model: Model, weights: Optional[Weights] = None, seed: int = 0
    ) -> None:
        self.model = model
        self.weights = (
            weights if weights is not None else init_weights_reference(model, seed)
        )

    spec_pads = staticmethod(Engine.spec_pads)
    run_head = Engine.run_head
    _check_input = Engine._check_input
    run_unit = run_unit

    def run_layer(
        self,
        layer: SpatialLayer,
        x: np.ndarray,
        pads: _Pad4,
        channels: "Optional[Tuple[int, int]]" = None,
    ) -> np.ndarray:
        """One spatial layer with explicit padding, on a ``(C, H, W)``
        map or a ``(C, B, H, W)`` stack; ``channels`` restricts it to the
        output-channel slice ``[lo, hi)`` (``x`` carries every input
        channel)."""
        if isinstance(layer, ConvSpec):
            if channels is not None and layer.groups != 1:
                raise ValueError(
                    f"{layer.name}: channel-sliced conv needs groups == 1"
                )
            params = self.weights[layer.name]
            weight = params["weight"]
            bias = params.get("bias")
            if channels is not None:
                lo, hi = channels
                weight = weight[lo:hi]
                bias = bias[lo:hi] if bias is not None else None
            out = conv2d_reference(
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
                out = batch_norm(out, gamma, beta, mean, var)
            return apply_activation(out, layer.activation)
        assert isinstance(layer, PoolSpec)
        if channels is not None:
            lo, hi = channels
            x = x[lo:hi]
        if layer.kind_ == "max":
            return maxpool2d_reference(x, layer.kernel_size, layer.stride, pads)
        return ops.avgpool2d(x, layer.kernel_size, layer.stride, pads)

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """Every plan unit in order; returns the final feature map."""
        self._check_input(x)
        x = x.astype(np.float32, copy=False)
        for unit in self.model.units:
            x = self.run_unit(unit, x)
        return x

    def run(self, x: np.ndarray) -> np.ndarray:
        """End-to-end inference: features then head."""
        return self.run_head(self.forward_features(x))


def run_segment_reference(engine, program, tile: np.ndarray) -> np.ndarray:
    """A :class:`~repro.nn.tiles.SegmentProgram` op by op on ``engine``
    (an :class:`~repro.nn.executor.Engine` or a :class:`ReferenceEngine`):
    ``run_layer`` per step, each block path on its crop, the merge in the
    compiled plan's association order."""
    x = tile
    for unit in program.units:
        if unit.merge is None:
            for s in unit.steps:
                x = engine.run_layer(s.layer, x, s.pads, channels=s.channels)
            continue
        outs = []
        for path in unit.paths:
            r0, rows, c0, cols = path.crop
            y = x[..., r0 : r0 + rows, c0 : c0 + cols]
            for s in path.steps:
                y = engine.run_layer(s.layer, y, s.pads)
            outs.append(y)
        if unit.merge == "concat":
            merged = np.concatenate(outs, axis=0)
        elif len(outs) == 1:
            merged = np.array(outs[0])
        else:
            merged = outs[0] + outs[1]
            for other in outs[2:]:
                merged = merged + other
        x = apply_activation(merged, unit.post_activation)
    return x
