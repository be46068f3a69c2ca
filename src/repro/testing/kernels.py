"""The seed's numpy kernels: the independent oracle for the GEMM and
pooling kernels of :mod:`repro.nn.ops` and the "before" kernels of the
engine benchmark.

``conv2d_reference`` is the original sliding-window + tensordot/einsum
convolution: for ``groups == 1`` it reduces to the same sgemm as
:func:`conv2d` (the production :func:`repro.nn.ops.conv2d_packed` on a
weight packed per call) on identically laid-out operands (bit-exact);
grouped convolutions agree to a few ULPs.  ``maxpool2d_reference`` is
the windowed max (bit-exact with the tap maxima), ``batch_norm`` the
separate per-channel BN pass the production engine folds into its
packed weights, and ``apply_activation`` the out-of-place activations
the production kernels apply in place.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.ops import (
    LEAKY_SLOPE,
    _Pad4,
    _Size2,
    _check_conv,
    _check_map,
    _windows,
    conv2d_packed,
    ensure_f32c,
    pack_conv_weight,
    pad2d,
)

__all__ = [
    "apply_activation",
    "batch_norm",
    "conv2d",
    "conv2d_reference",
    "leaky_relu",
    "maxpool2d_reference",
    "relu",
    "relu6",
]


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: _Size2 = (1, 1),
    pads: _Pad4 = (0, 0, 0, 0),
    groups: int = 1,
) -> np.ndarray:
    """2-D convolution (cross-correlation) via im2col + GEMM.

    ``weight`` is ``(Cout, Cin/groups, kh, kw)``; ``groups == Cin``
    gives a depthwise convolution (MobileNet-style).  Packs the weight
    on every call — steady-state callers (the engine) pre-pack once and
    use :func:`conv2d_packed`.
    """
    _check_conv(x.shape, weight.shape[0], weight.shape[1], groups)
    packed = pack_conv_weight(weight, groups)
    return conv2d_packed(x, packed, bias, weight.shape[2:], stride, pads, groups)


def conv2d_reference(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: _Size2 = (1, 1),
    pads: _Pad4 = (0, 0, 0, 0),
    groups: int = 1,
) -> np.ndarray:
    """The original sliding-window conv (tensordot / grouped einsum).

    Batched inputs run the frame loop a batched fast path must match —
    the literal per-frame oracle.
    """
    _check_map(x, "conv2d_reference")
    if x.ndim == 4:
        return np.stack(
            [
                conv2d_reference(
                    np.ascontiguousarray(x[:, b]), weight, bias, stride,
                    pads, groups,
                )
                for b in range(x.shape[1])
            ],
            axis=1,
        )
    _check_conv(x.shape, weight.shape[0], weight.shape[1], groups)
    xp = pad2d(x, pads)
    win = _windows(xp, weight.shape[2:], stride)
    if groups == 1:
        out = np.tensordot(weight, win, axes=([1, 2, 3], [0, 3, 4]))
    else:
        c_per_g = x.shape[0] // groups
        o_per_g = weight.shape[0] // groups
        win_g = win.reshape(groups, c_per_g, *win.shape[1:])
        w_g = weight.reshape(groups, o_per_g, c_per_g, *weight.shape[2:])
        out = np.einsum("gihwkl,goikl->gohw", win_g, w_g)
        out = out.reshape(weight.shape[0], *out.shape[2:])
    if bias is not None:
        out = out + bias[:, None, None]
    return ensure_f32c(out)


def maxpool2d_reference(
    x: np.ndarray, kernel: _Size2, stride: _Size2, pads: _Pad4 = (0, 0, 0, 0)
) -> np.ndarray:
    """The original windowed max pooling; padded cells are -inf."""
    _check_map(x, "maxpool2d_reference")
    top, bottom, left, right = pads
    if any(pads):
        xp = np.full(
            (*x.shape[:-2], x.shape[-2] + top + bottom, x.shape[-1] + left + right),
            -np.inf,
            dtype=x.dtype,
        )
        xp[..., top : top + x.shape[-2], left : left + x.shape[-1]] = x
    else:
        xp = x
    win = _windows(xp, kernel, stride)
    return np.ascontiguousarray(win.max(axis=(-2, -1)), dtype=np.float32)


def batch_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch normalisation (per-channel affine).

    Broadcasts over whatever trails the channel axis, so single-frame
    ``(C, H, W)`` and batched ``(C, B, H, W)`` maps share the path.
    """
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    bshape = scale.shape + (1,) * (x.ndim - 1)
    return (x * scale.reshape(bshape) + shift.reshape(bshape)).astype(np.float32)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray, slope: float = LEAKY_SLOPE) -> np.ndarray:
    return np.where(x > 0, x, slope * x).astype(x.dtype)


def relu6(x: np.ndarray) -> np.ndarray:
    """MobileNet's clipped ReLU."""
    return np.clip(x, 0.0, 6.0)


def apply_activation(x: np.ndarray, activation: str) -> np.ndarray:
    """Dispatch by activation name ("linear" is identity)."""
    if activation == "relu":
        return relu(x)
    if activation == "leaky_relu":
        return leaky_relu(x)
    if activation == "relu6":
        return relu6(x)
    if activation == "linear":
        return x
    raise ValueError(f"unknown activation {activation!r}")
