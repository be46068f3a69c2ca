"""Weight initialisation and containers.

Weights are dicts ``{layer_name: {param_name: ndarray}}`` (the one
:func:`init_weights` returns draws its dense head at the first read).
He-normal init keeps activations in a numerically friendly range
through deep stacks, which matters for the bit-exactness assertions in
the tile tests.

A conv's parameters are ``weight`` and, if it has one, ``bias``.  A
batch-norm conv is stored folded (:func:`fold_batch_norm`): the build
draws its raw weight, bias and BN statistics, then scales the weight in
place and keeps only the folded weight and bias, so every process that
runs the layer reads the one folded copy and none holds the raw weight
beside it.  The engine refuses a conv dict that still carries BN
statistics; :mod:`repro.testing` keeps the raw draws and the unfused
conv→BN engine as the oracle.

Every weight matrix — each conv and dense ``weight`` — of at least
:data:`_SHARED_MIN_BYTES` lives in its own shared anonymous mapping
(:func:`_empty_f32`), not on the private heap.
A forked worker therefore starts with none of the model resident: the
kernel copies no page-table entries for a shared mapping at ``fork``,
and a page faults in, from the one physical copy, the first time the
worker's program reads it.  Biases are a few KiB each and stay
ordinary arrays.  A consequence: a write to
a parameter after the workers are forked is visible to them.  Pickling
copies the values, as for any array.

The dense head is drawn when something first reads it.  The build draws
every conv at once and leaves the head undrawn (:class:`_LazyHead`):
the first subscript of a head layer, ``weights[name]`` — what
:meth:`~repro.nn.executor.Engine.run_head` does — draws the whole head
from the generator where the conv draws left it, so every value is
bit-identical to an eager build.  No serving path reads the head (a
pipeline's stages end at the backbone's features), so no coordinator
and no worker holds it: on vgg16@64 that is 29.3 M of its 44 M
parameters.  Until the first read, iteration, ``len``, ``in`` and
``get`` see the convs alone; the read inserts the head after them, in
the model's order, as an eager build does.  A forked child inherits the
undrawn head with a copy of the generator, so one that reads it draws
the same values.  Pickling draws the head first and pickles a plain
dict.
"""

from __future__ import annotations

import mmap
import threading
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
#: both work through their float32 weight in blocks of this size.
_CHUNK_VALUES = 1 << 17

#: Batch norm's variance epsilon (the PyTorch / Caffe default).
BN_EPS = 1e-5

#: Parameter arrays of at least this many bytes get a shared anonymous
#: mapping; smaller ones (the per-channel vectors) a heap array.
_SHARED_MIN_BYTES = 1 << 16


def _empty_f32(shape: "Tuple[int, ...]") -> np.ndarray:
    """An uninitialised float32 array of ``shape``: over a shared
    anonymous mapping (``MAP_SHARED | MAP_ANONYMOUS``) from
    :data:`_SHARED_MIN_BYTES` up, on the heap below."""
    nbytes = int(np.prod(shape)) * 4
    if nbytes < _SHARED_MIN_BYTES:
        return np.empty(shape, np.float32)
    return np.frombuffer(mmap.mmap(-1, nbytes), np.float32).reshape(shape)


def fold_batch_norm(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
) -> "Tuple[np.ndarray, np.ndarray]":
    """Fold inference-mode BN into the preceding conv's weight and bias,
    **scaling ``weight`` in place**; returns ``(weight, folded bias)``.

    ``BN(conv(x, W) + b) == conv(x, W·s) + (b − mean)·s + beta`` with
    ``s = gamma / sqrt(var + BN_EPS)``.  The fold is computed in float64 and
    cast back to float32 once, so the folded kernel agrees with the
    unfused conv→BN pipeline to normal float32 rounding (a few ULPs per
    layer — the engine's BN-folding tolerance test pins this down).
    The weight is scaled a block of output rows at a time, each block
    read whole before it is stored back, so no second weight-sized
    array, float32 or float64, is ever live.
    """
    scale = gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + BN_EPS)
    rows = max(1, _CHUNK_VALUES // max(1, int(np.prod(weight.shape[1:]))))
    for lo in range(0, len(weight), rows):
        # float32 × float64 multiplies in float64, as the one-shot
        # weight.astype(float64) * scale does; the store rounds to float32.
        weight[lo : lo + rows] = weight[lo : lo + rows] * scale[
            lo : lo + rows, None, None, None
        ]
    b0 = bias.astype(np.float64) if bias is not None else 0.0
    folded_b = (b0 - mean.astype(np.float64)) * scale + beta.astype(np.float64)
    return weight, folded_b.astype(np.float32)


def _normal_f32(
    rng: np.random.Generator, std: float, shape: "Tuple[int, ...]"
) -> np.ndarray:
    """``rng.normal(0, std, shape).astype(float32)`` drawn
    :data:`_CHUNK_VALUES` at a time into the float32 result: the
    generator's stream does not depend on how its draws are split, and
    each store rounds as ``astype`` does, so the values are the same."""
    out = _empty_f32(shape)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _CHUNK_VALUES):
        flat[lo : lo + _CHUNK_VALUES] = rng.normal(
            0.0, std, size=min(_CHUNK_VALUES, flat.size - lo)
        )
    return out


def conv_params(layer: ConvSpec, rng: np.random.Generator) -> "Dict[str, np.ndarray]":
    """He-normal conv weights plus optional bias; a batch-norm conv's
    statistics are drawn after them and folded in at once, so its
    params are the folded ``weight`` and ``bias``."""
    kh, kw = layer.kernel_size
    in_per_group = layer.in_channels // layer.groups
    fan_in = in_per_group * kh * kw
    std = float(np.sqrt(2.0 / fan_in))
    weight = _normal_f32(rng, std, (layer.out_channels, in_per_group, kh, kw))
    bias = _normal_f32(rng, 0.05, (layer.out_channels,)) if layer.bias else None
    if layer.batch_norm:
        n = layer.out_channels
        gamma = rng.uniform(0.8, 1.2, size=n).astype(np.float32)
        beta = rng.normal(0.0, 0.05, size=n).astype(np.float32)
        mean = rng.normal(0.0, 0.05, size=n).astype(np.float32)
        var = rng.uniform(0.8, 1.2, size=n).astype(np.float32)
        weight, bias = fold_batch_norm(weight, bias, gamma, beta, mean, var)
    return {"weight": weight} if bias is None else {"weight": weight, "bias": bias}


def dense_params(layer: DenseSpec, rng: np.random.Generator) -> "Dict[str, np.ndarray]":
    std = float(np.sqrt(2.0 / layer.in_features))
    return {
        "weight": _normal_f32(rng, std, (layer.out_features, layer.in_features)),
        "bias": _normal_f32(rng, 0.05, (layer.out_features,)),
    }


class _LazyHead(dict):
    """The dict :func:`init_weights` returns: the convs drawn, the dense
    ``head`` drawn from ``rng`` at the first subscript of one of its
    layers.  The draw runs once, under a lock, which a caller that
    missed re-checks after taking it; the generator is dropped after."""

    def __init__(self, head: "Tuple[DenseSpec, ...]", rng: np.random.Generator):
        super().__init__()
        self._head = head
        self._head_names = frozenset(dense.name for dense in head)
        self._rng: Optional[np.random.Generator] = rng
        self._lock = threading.Lock()

    def __missing__(self, name: str) -> "Dict[str, np.ndarray]":
        if name not in self._head_names:
            raise KeyError(name)
        self._draw_head()
        return dict.__getitem__(self, name)

    def _draw_head(self) -> None:
        with self._lock:
            if self._rng is None:
                return  # drawn, by this thread or another
            for dense in self._head:
                self[dense.name] = dense_params(dense, self._rng)
            self._rng = None

    def __reduce__(self):
        self._draw_head()
        return dict, (dict(self),)


def init_weights(model: Model, seed: int = 0) -> Weights:
    """Seeded random weights for every conv and dense layer of a model;
    the dense head is drawn at its first read (:class:`_LazyHead`)."""
    rng = np.random.default_rng(seed)
    weights = _LazyHead(model.head, rng)
    for info in model.iter_layers():
        layer = info.layer
        if isinstance(layer, ConvSpec):
            if layer.name in weights:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            weights[layer.name] = conv_params(layer, rng)
        elif isinstance(layer, PoolSpec):
            continue  # pooling has no parameters
    names = set(weights)
    for dense in model.head:
        if dense.name in names:
            raise ValueError(f"duplicate layer name {dense.name!r}")
        names.add(dense.name)
    return weights
