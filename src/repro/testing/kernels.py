"""The seed's numpy kernels: the independent oracle for the GEMM and
pooling kernels of :mod:`repro.nn.ops` and the "before" kernels of the
engine benchmark.

``conv2d_reference`` is the original sliding-window + tensordot/einsum
convolution: for ``groups == 1`` it reduces to the same sgemm as
:func:`repro.nn.ops.conv2d` on identically laid-out operands (bit-exact);
grouped convolutions agree to a few ULPs.  ``maxpool2d_reference`` is
the windowed max (bit-exact with the tap maxima), and ``batch_norm`` the
separate per-channel BN pass the production engine folds into its
packed weights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.ops import (
    _Pad4,
    _Size2,
    _check_conv,
    _check_map,
    _windows,
    ensure_f32c,
    pad2d,
)

__all__ = ["conv2d_reference", "maxpool2d_reference", "batch_norm"]


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
