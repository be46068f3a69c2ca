"""Weight initialisation and containers.

Weights are plain dicts ``{layer_name: {param_name: ndarray}}`` so they
pickle cheaply for shipment to runtime workers.  He-normal init keeps
activations in a numerically friendly range through deep stacks, which
matters for the bit-exactness assertions in the tile tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.graph import Model
from repro.models.layers import ConvSpec, DenseSpec, PoolSpec

__all__ = [
    "Weights",
    "init_weights",
    "conv_params",
    "dense_params",
    "fold_batch_norm",
]

Weights = Dict[str, Dict[str, np.ndarray]]

#: Float64 values a weight build or a BN fold holds at once (1 MiB):
#: both work through their float32 output in blocks of this size.
_CHUNK_VALUES = 1 << 17


def fold_batch_norm(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> "Tuple[np.ndarray, np.ndarray]":
    """Fold inference-mode BN into the preceding conv's weight and bias.

    ``BN(conv(x, W) + b) == conv(x, W·s) + (b − mean)·s + beta`` with
    ``s = gamma / sqrt(var + eps)``.  The fold is computed in float64 and
    cast back to float32 once, so the folded kernel agrees with the
    unfused conv→BN pipeline to normal float32 rounding (a few ULPs per
    layer — the engine's BN-folding tolerance test pins this down).
    The weight is scaled a block of output rows at a time into the
    float32 result, so no weight-sized float64 array is ever live.
    """
    scale = gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + eps)
    folded_w = np.empty(weight.shape, np.float32)
    rows = max(1, _CHUNK_VALUES // max(1, int(np.prod(weight.shape[1:]))))
    for lo in range(0, len(weight), rows):
        # float32 × float64 multiplies in float64, as the one-shot
        # weight.astype(float64) * scale does; the store rounds to float32.
        folded_w[lo : lo + rows] = weight[lo : lo + rows] * scale[
            lo : lo + rows, None, None, None
        ]
    b0 = bias.astype(np.float64) if bias is not None else 0.0
    folded_b = (b0 - mean.astype(np.float64)) * scale + beta.astype(np.float64)
    return folded_w, folded_b.astype(np.float32)


def _normal_f32(
    rng: np.random.Generator, std: float, shape: "Tuple[int, ...]"
) -> np.ndarray:
    """``rng.normal(0, std, shape).astype(float32)`` drawn
    :data:`_CHUNK_VALUES` at a time into the float32 result: the
    generator's stream does not depend on how its draws are split, and
    each store rounds as ``astype`` does, so the values are the same."""
    out = np.empty(shape, np.float32)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _CHUNK_VALUES):
        flat[lo : lo + _CHUNK_VALUES] = rng.normal(
            0.0, std, size=min(_CHUNK_VALUES, flat.size - lo)
        )
    return out


def conv_params(layer: ConvSpec, rng: np.random.Generator) -> "Dict[str, np.ndarray]":
    """He-normal conv weights plus optional bias / BN statistics."""
    kh, kw = layer.kernel_size
    in_per_group = layer.in_channels // layer.groups
    fan_in = in_per_group * kh * kw
    std = float(np.sqrt(2.0 / fan_in))
    params = {
        "weight": _normal_f32(rng, std, (layer.out_channels, in_per_group, kh, kw))
    }
    if layer.bias:
        params["bias"] = _normal_f32(rng, 0.05, (layer.out_channels,))
    if layer.batch_norm:
        params["gamma"] = rng.uniform(0.8, 1.2, size=layer.out_channels).astype(
            np.float32
        )
        params["beta"] = rng.normal(0.0, 0.05, size=layer.out_channels).astype(
            np.float32
        )
        params["mean"] = rng.normal(0.0, 0.05, size=layer.out_channels).astype(
            np.float32
        )
        params["var"] = rng.uniform(0.8, 1.2, size=layer.out_channels).astype(
            np.float32
        )
    return params


def dense_params(layer: DenseSpec, rng: np.random.Generator) -> "Dict[str, np.ndarray]":
    std = float(np.sqrt(2.0 / layer.in_features))
    return {
        "weight": _normal_f32(rng, std, (layer.out_features, layer.in_features)),
        "bias": _normal_f32(rng, 0.05, (layer.out_features,)),
    }


def init_weights(model: Model, seed: int = 0) -> Weights:
    """Seeded random weights for every conv and dense layer of a model."""
    rng = np.random.default_rng(seed)
    weights: Weights = {}
    for info in model.iter_layers():
        layer = info.layer
        if isinstance(layer, ConvSpec):
            if layer.name in weights:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            weights[layer.name] = conv_params(layer, rng)
        elif isinstance(layer, PoolSpec):
            continue  # pooling has no parameters
    for dense in model.head:
        if dense.name in weights:
            raise ValueError(f"duplicate layer name {dense.name!r}")
        weights[dense.name] = dense_params(dense, rng)
    return weights
