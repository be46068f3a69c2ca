"""The one-shot float64 weight formulas :mod:`repro.nn.weights` is held to.

:func:`repro.nn.weights.init_weights` draws and
:func:`repro.nn.weights.fold_batch_norm` scales in bounded blocks
straight into their float32 outputs; these are the whole-array
formulas they replaced, which build each weight-sized float64 array at
once.  The two must agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.graph import Model
from repro.models.layers import ConvSpec, DenseSpec
from repro.nn.weights import Weights

__all__ = ["fold_batch_norm_reference", "init_weights_reference"]


def fold_batch_norm_reference(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> "Tuple[np.ndarray, np.ndarray]":
    """BN folded in float64 over the whole weight, cast once."""
    scale = gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + eps)
    folded_w = weight.astype(np.float64) * scale[:, None, None, None]
    b0 = bias.astype(np.float64) if bias is not None else 0.0
    folded_b = (b0 - mean.astype(np.float64)) * scale + beta.astype(np.float64)
    return folded_w.astype(np.float32), folded_b.astype(np.float32)


def _conv_params(layer: ConvSpec, rng: np.random.Generator) -> "Dict[str, np.ndarray]":
    kh, kw = layer.kernel_size
    in_per_group = layer.in_channels // layer.groups
    std = float(np.sqrt(2.0 / (in_per_group * kh * kw)))
    params = {
        "weight": rng.normal(
            0.0, std, size=(layer.out_channels, in_per_group, kh, kw)
        ).astype(np.float32)
    }
    if layer.bias:
        params["bias"] = rng.normal(0.0, 0.05, size=layer.out_channels).astype(
            np.float32
        )
    if layer.batch_norm:
        n = layer.out_channels
        params["gamma"] = rng.uniform(0.8, 1.2, size=n).astype(np.float32)
        params["beta"] = rng.normal(0.0, 0.05, size=n).astype(np.float32)
        params["mean"] = rng.normal(0.0, 0.05, size=n).astype(np.float32)
        params["var"] = rng.uniform(0.8, 1.2, size=n).astype(np.float32)
    return params


def _dense_params(layer: DenseSpec, rng: np.random.Generator) -> "Dict[str, np.ndarray]":
    std = float(np.sqrt(2.0 / layer.in_features))
    return {
        "weight": rng.normal(
            0.0, std, size=(layer.out_features, layer.in_features)
        ).astype(np.float32),
        "bias": rng.normal(0.0, 0.05, size=layer.out_features).astype(np.float32),
    }


def init_weights_reference(model: Model, seed: int = 0) -> Weights:
    """Every layer's parameters, each drawn whole in float64 and cast."""
    rng = np.random.default_rng(seed)
    weights: Weights = {}
    for info in model.iter_layers():
        if isinstance(info.layer, ConvSpec):
            weights[info.layer.name] = _conv_params(info.layer, rng)
    for dense in model.head:
        weights[dense.name] = _dense_params(dense, rng)
    return weights
