"""Numpy tensor operations for CNN inference.

Feature maps are ``(C, H, W)`` float32 arrays, or ``(C, B, H, W)`` when
``B`` frames in flight execute as one cross-frame batch (channel-major
with batch second, so the batched GEMM output lands in the same layout
with zero transposes).  Every spatial op indexes the trailing two axes,
so the same kernels serve both ranks; per-frame slices of a batched
result are bit-identical to the corresponding single-frame calls (the
batched GEMM is one call per frame, or one tall call measured to give
the same bits, and the pooling reductions are per-plane).  Every op
takes *explicit* padding so region-restricted execution can substitute
the per-tile virtual padding computed by the region algebra.

Two convolution paths coexist:

``conv2d`` / ``conv2d_packed``
    The fast path: explicit im2col into a reusable scratch arena, then a
    single BLAS sgemm against a pre-flattened ``(Cout, Cin·kh·kw)``
    weight matrix (``pack_conv_weight``), with bias add and activation
    applied *in place* on the freshly allocated GEMM output.  For
    ``groups == 1`` this is bit-exact with the reference path: both
    reduce to the identical ``sgemm`` call on identically laid-out
    operands.  Grouped convolutions use one batched ``matmul`` whose
    per-group accumulation order can differ from the reference einsum by
    a few ULPs.

``conv2d_reference``
    The original sliding-window + tensordot/einsum implementation, kept
    as the independent oracle for the bit-exactness property tests and
    as the "before" side of the engine benchmarks.

Pooling follows the same pattern: ``maxpool2d`` accumulates kernel taps
with vectorised ``np.maximum`` over strided slices (bit-exact with the
windowed reference — max has no accumulation order), while ``avgpool2d``
keeps the windowed sum so its float accumulation order — and therefore
the tile-vs-full bit-exactness contract — is unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "pad2d",
    "pack_conv_weight",
    "conv2d",
    "conv2d_packed",
    "ConvKernel",
    "MaxPoolKernel",
    "conv2d_reference",
    "maxpool2d",
    "maxpool2d_reference",
    "avgpool2d",
    "relu",
    "leaky_relu",
    "relu6",
    "apply_activation",
    "apply_activation_",
    "batch_norm",
    "linear",
    "softmax",
    "ensure_f32c",
    "ScratchPad",
]

_Size2 = Tuple[int, int]
_Pad4 = Tuple[int, int, int, int]  # top, bottom, left, right

#: Darknet's leaky-ReLU slope (YOLOv2 uses 0.1, not PyTorch's 0.01).
LEAKY_SLOPE = 0.1


def ensure_f32c(x: np.ndarray) -> np.ndarray:
    """``x`` itself when already C-contiguous float32; a copy otherwise.

    ``np.ascontiguousarray`` also short-circuits, but routing every hot
    call through this helper makes the no-copy contract explicit and
    skips its argument normalisation overhead.
    """
    if x.dtype == np.float32 and x.flags.c_contiguous:
        return x
    return np.ascontiguousarray(x, dtype=np.float32)


class ScratchPad:
    """A reusable flat float32 arena for im2col patch matrices.

    The im2col buffer of a conv layer is ``kh·kw`` times its input map —
    freshly ``malloc``-ing (and page-faulting) it every frame dominates
    the non-GEMM cost of the fast path.  A pad grows to the largest
    request seen and hands out reshaped views of one persistent
    allocation.  Not thread-safe: use one pad per thread.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf: Optional[np.ndarray] = None

    def take(self, shape: "Tuple[int, ...]") -> np.ndarray:
        """An uninitialised float32 view of ``shape`` into the arena."""
        n = 1
        for dim in shape:
            n *= int(dim)
        if self._buf is None or self._buf.size < n:
            self._buf = np.empty(max(n, 4096), dtype=np.float32)
        return self._buf[:n].reshape(shape)


def _check_map(x: np.ndarray, op: str) -> None:
    """Feature maps are (C, H, W) or batched (C, B, H, W) — nothing else.

    The spatial kernels index the trailing two axes, so a wrong-rank
    array would silently pool/convolve over the wrong dimensions; fail
    loudly instead.
    """
    if x.ndim not in (3, 4):
        raise ValueError(
            f"{op} expects a (C, H, W) or (C, B, H, W) feature map, "
            f"got shape {x.shape}"
        )


def pad2d(x: np.ndarray, pads: _Pad4) -> np.ndarray:
    """Zero-pad the trailing spatial axes by (top, bottom, left, right)."""
    top, bottom, left, right = pads
    if top == bottom == left == right == 0:
        return x
    if min(pads) < 0:
        raise ValueError(f"negative padding {pads}")
    width = [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)]
    return np.pad(x, width)


def _windows(x: np.ndarray, kernel: _Size2, stride: _Size2) -> np.ndarray:
    """Sliding windows over the trailing spatial axes:
    shape (..., H_out, W_out, kh, kw)."""
    kh, kw = kernel
    if x.shape[-2] < kh or x.shape[-1] < kw:
        raise ValueError(
            f"input spatial {x.shape[-2:]} smaller than kernel {kernel}"
        )
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(-2, -1))
    return view[..., :: stride[0], :: stride[1], :, :]


def _sweep_hw(
    shape: "Tuple[int, ...]", kernel: _Size2, stride: _Size2, pads: _Pad4
) -> _Size2:
    """Output spatial size of a kernel sweep over a ``shape`` map grown
    by ``pads``; rejects negative pads and maps smaller than the kernel."""
    if min(pads) < 0:
        raise ValueError(f"negative padding {pads}")
    top, bottom, left, right = pads
    hp, wp = shape[-2] + top + bottom, shape[-1] + left + right
    if hp < kernel[0] or wp < kernel[1]:
        raise ValueError(f"padded spatial {(hp, wp)} smaller than kernel {kernel}")
    return ((hp - kernel[0]) // stride[0] + 1, (wp - kernel[1]) // stride[1] + 1)


def _tap(xp: np.ndarray, i: int, j: int, stride: _Size2, out_hw: _Size2) -> np.ndarray:
    """The (i, j) kernel-tap slice of a padded map: shape (..., Ho, Wo)."""
    ho, wo = out_hw
    sv, sh = stride
    return xp[..., i : i + (ho - 1) * sv + 1 : sv, j : j + (wo - 1) * sh + 1 : sh]


def _bordered_map(
    shape: "Tuple[int, ...]",
    pads: _Pad4,
    fill: float,
    arena: Optional[ScratchPad] = None,
) -> "Tuple[np.ndarray, np.ndarray]":
    """A map of ``shape`` grown by ``pads`` on its trailing two axes,
    with ``fill`` written into the border only: ``(map, interior)``,
    where ``interior`` is the view a caller copies its input into.

    The map lives in ``arena`` when given and is fresh otherwise; a
    compiled tile plan keeps one per step, so its border is written
    once and each frame pays only the interior copy.
    """
    top, bottom, left, right = pads
    h, w = shape[-2], shape[-1]
    full = (*shape[:-2], h + top + bottom, w + left + right)
    xp = arena.take(full) if arena is not None else np.empty(full, np.float32)
    xp[..., :top, :] = fill
    xp[..., top + h :, :] = fill
    xp[..., top : top + h, :left] = fill
    xp[..., top : top + h, left + w :] = fill
    return xp, xp[..., top : top + h, left : left + w]


def _tap_view(
    xp: np.ndarray, kernel: _Size2, stride: _Size2, out_hw: _Size2
) -> np.ndarray:
    """Every kernel tap of every frame of a bordered map at once: a
    read-only ``(C, kh, kw, *B, Ho, Wo)`` ``as_strided`` view, whose
    copy is the im2col panel with rows in ``(channel, kh, kw)`` order.
    ``xp`` may itself be a strided view (a block path's crop)."""
    kh, kw = kernel
    sv, sh = stride
    s_c, *s_b, s_h, s_w = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(xp.shape[0], kh, kw, *xp.shape[1:-2], *out_hw),
        strides=(s_c, s_h, s_w, *s_b, s_h * sv, s_w * sh),
        writeable=False,
    )


def _check_conv(shape: "Tuple[int, ...]", cout: int, cin_w: int, groups: int) -> None:
    """Reject a conv whose ``shape`` input does not fit its weights."""
    if groups < 1 or shape[0] % groups or cout % groups:
        raise ValueError(
            f"invalid groups={groups} for shapes {tuple(shape)}, "
            f"({cout}, {cin_w}, ...)"
        )
    if shape[0] // groups != cin_w:
        raise ValueError(
            f"channel mismatch: input {shape[0]} / groups {groups} != "
            f"weight in-channels {cin_w}"
        )


def pack_conv_weight(weight: np.ndarray, groups: int = 1) -> np.ndarray:
    """Pre-flatten a ``(Cout, Cin/g, kh, kw)`` weight for GEMM.

    ``groups == 1`` gives ``(Cout, Cin·kh·kw)``; grouped convolutions get
    the batched-matmul layout ``(g, Cout/g, (Cin/g)·kh·kw)``.  The result
    is C-contiguous float32 so the per-frame GEMM needs no reshape/copy.
    """
    cout = weight.shape[0]
    if groups == 1:
        return ensure_f32c(weight.reshape(cout, -1))
    if cout % groups:
        raise ValueError(f"groups={groups} does not divide out-channels {cout}")
    return ensure_f32c(weight.reshape(groups, cout // groups, -1))


def conv2d_packed(
    x: np.ndarray,
    packed: np.ndarray,
    bias: Optional[np.ndarray],
    kernel: _Size2,
    stride: _Size2 = (1, 1),
    pads: _Pad4 = (0, 0, 0, 0),
    groups: int = 1,
    activation: str = "linear",
    scratch: Optional[ScratchPad] = None,
    pad_scratch: Optional[ScratchPad] = None,
) -> np.ndarray:
    """GEMM convolution against a :func:`pack_conv_weight` matrix.

    The per-call wrapper over :class:`ConvKernel`, the kernel sequence a
    compiled tile plan (:mod:`repro.nn.tiles`) runs on buffers it built
    once.  Lowers to a single BLAS sgemm (one batched matmul for grouped
    convolutions); bias add and activation run in place on the GEMM
    output in cache-sized row blocks, so the op allocates exactly one
    array beyond the scratch arenas (``scratch`` for the patch matrix,
    ``pad_scratch`` for a padded input's zero-bordered map).

    A batched ``(C, B, H, W)`` input returns ``(Cout, B, Ho, Wo)`` and
    pays the panel fill, the epilogue and the per-layer dispatch once
    per batch.  Every frame's slice is **bit-identical** to the
    single-frame call: the batch takes one tall GEMM where this
    process's BLAS computes that bit for bit like the per-frame GEMMs
    (:func:`_tall_is_exact`, which streams the weights once instead of
    ``B`` times), and otherwise the single-frame GEMM itself, once per
    frame.  The per-frame GEMMs fill a frame-major buffer, so that
    result is a ``(Cout, B, Ho, Wo)`` view of it, not C-contiguous; the
    next kernel gathers from any layout, and a plan's result is made
    contiguous once, at its end.
    """
    conv = ConvKernel(
        x.shape, packed, bias, kernel, stride, pads, groups, activation,
        src=x, map_arena=pad_scratch,
    )
    conv.bind_patch(
        scratch.take((conv.patch_size,)) if scratch is not None
        else np.empty(conv.patch_size, np.float32)
    )
    return conv(x)


class ConvKernel:
    """One convolution's kernel sequence on buffers fixed when it is
    built for an input ``shape``.  Per call: copy the input into the
    zero-bordered map (skipped when the conv reads ``src`` unpadded),
    gather every tap into the patch, the GEMM(s), the in-place
    epilogue; returns the ``(Cout, *B, Ho, Wo)`` output view.

    :func:`conv2d_packed` builds one per call, on scratch arenas; a
    compiled tile plan builds one per step at its first frame, so the
    border, the tap view, the epilogue's row blocks and the tall-vs-
    per-frame choice (:func:`_tall_is_exact`) are settled once.

    ``src`` is the array the conv reads when it is unpadded — a plan
    buffer that stays put, or the call's own input; ``None`` makes it
    copy its input every call.  The patch lives in whatever flat buffer
    :meth:`bind_patch` is given (a plan binds it to the running thread's
    patch arena).

    A tall batch gathers one ``(K, B·Ho·Wo)`` panel.  Per-frame GEMMs
    gather the panel frame-major, ``(B, K, Ho·Wo)``, so each frame's
    GEMM is the single-frame call on the very operands it would see
    (contiguous panel, contiguous output); the output is then a
    ``(B, Cout, ...)`` buffer, seen as ``(Cout, B, Ho, Wo)``.
    """

    __slots__ = (
        "interior", "taps", "cols_shape", "patch", "cols", "packed",
        "frames", "gemm", "epilogue", "activation", "out",
    )

    def __init__(
        self,
        shape: "Tuple[int, ...]",
        packed: np.ndarray,
        bias: Optional[np.ndarray],
        kernel: _Size2,
        stride: _Size2,
        pads: _Pad4,
        groups: int,
        activation: str,
        src: Optional[np.ndarray] = None,
        map_arena: Optional[ScratchPad] = None,
    ) -> None:
        if len(shape) not in (3, 4):
            raise ValueError(
                f"conv expects a (C, H, W) or (C, B, H, W) feature map, got shape {shape}"
            )
        cout = packed.shape[0] if groups == 1 else packed.shape[0] * packed.shape[1]
        _check_conv(shape, cout, packed.shape[-1] // (kernel[0] * kernel[1]), groups)
        out_hw = _sweep_hw(shape, kernel, stride, pads)
        if src is not None and not any(pads):
            xp, self.interior = src, None
        else:
            xp, self.interior = _bordered_map(shape, pads, 0.0, map_arena)
        taps = _tap_view(xp, kernel, stride, out_hw)
        b = shape[1] if len(shape) == 4 else 1
        nf = out_hw[0] * out_hw[1]
        self.frames = 1 if b == 1 or _tall_is_exact(packed.shape, nf, b) else b
        k_rows = packed.shape[-1]
        if self.frames == 1:
            self.taps = taps
            self.cols_shape = (*packed.shape[:-2], k_rows, b * nf)
            gemm_shape: "Tuple[int, ...]" = (*packed.shape[:-1], b * nf)
        else:
            self.taps = taps.transpose(3, 0, 1, 2, 4, 5)
            self.cols_shape = (b, *packed.shape[:-2], k_rows, nf)
            gemm_shape = (b, *packed.shape[:-1], nf)
        self.patch = self.cols = None
        self.packed, self.activation = packed, activation
        self.gemm = np.empty(gemm_shape, np.float32)
        if self.frames == 1:
            self.out = self.gemm.reshape(cout, *shape[1:-2], *out_hw)
        else:
            self.out = self.gemm.reshape(b, cout, *out_hw).swapaxes(0, 1)
        self.epilogue = _epilogue_blocks(self.out, bias, activation)

    @property
    def patch_size(self) -> int:
        """Floats the patch takes (:meth:`bind_patch` needs as many)."""
        return self.taps.size

    def bind_patch(self, arena: np.ndarray) -> None:
        """Put the patch at the start of the flat float32 ``arena``."""
        self.patch = arena[: self.taps.size].reshape(self.taps.shape)
        self.cols = self.patch.reshape(self.cols_shape)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.interior is not None:
            np.copyto(self.interior, x)
        np.copyto(self.patch, self.taps)
        if self.frames == 1:
            _gemm_(self.packed, self.cols, self.gemm)
        else:
            _gemm_per_frame_(self.packed, self.cols, self.gemm)
        for block, bias in self.epilogue:
            if bias is not None:
                block += bias
            apply_activation_(block, self.activation)
        return self.out


def _gemm_(packed: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """One GEMM over the whole panel into ``out``: the ``np.dot`` sgemm
    ``np.tensordot`` also calls for a 2-D pack, one stacked
    ``np.matmul`` for a grouped ``(g, Cout/g, K/g)`` pack."""
    if packed.ndim == 2:
        np.dot(packed, cols, out=out)
    else:
        np.matmul(packed, cols, out=out)


def _gemm_per_frame_(packed: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """One GEMM per frame of a frame-major panel, into frame-major
    ``out``: frame ``i``'s panel and output are contiguous, so its call
    is :func:`_gemm_`'s single-frame call on identical operands — the
    same BLAS routine, shape, layout and so accumulation order.  (A
    strided column block of a stacked panel is not: for a one-row pack
    or a one-column frame, numpy hands it to another routine, which
    rounds differently.)"""
    if packed.ndim == 2:
        for frame, dest in zip(cols, out):
            np.dot(packed, frame, out=dest)
    else:
        for frame, dest in zip(cols, out):
            np.matmul(packed, frame, out=dest)


#: ``(packed shape, columns per frame, frames)`` → whether one tall GEMM
#: equals the per-frame GEMMs bit for bit.  Filled by
#: :func:`_tall_is_exact` once per geometry; a forked worker inherits it
#: together with the BLAS that decided it.  Concurrent first use is a
#: benign race: both threads store the same measured value.
_TALL_EXACT: "Dict[Tuple[Tuple[int, ...], int, int], bool]" = {}


def _tall_is_exact(shape: "Tuple[int, ...]", nf: int, b: int) -> bool:
    """Whether a panel of ``b`` frames × ``nf`` columns may take one
    :func:`_gemm_` against a pack of ``shape`` instead of
    :func:`_gemm_per_frame_` without changing a bit.

    OpenBLAS picks kernels by shape, so the answer belongs to the
    geometry and the loaded BLAS, and it is measured, by
    :func:`_probe_tall`.  Only a pack with at least as many rows as a
    frame has columns (``M >= nf``) is probed: there the weights are
    most of what each per-frame call streams, which the tall call pays
    once.  Wider frames keep their per-frame GEMMs unprobed, as they
    cost the same either way.
    """
    key = (shape, nf, b)
    exact = _TALL_EXACT.get(key)
    if exact is None:
        exact = shape[-2] >= nf and _probe_tall(shape, nf, b)
        _TALL_EXACT[key] = exact
    return exact


#: Products per output row the probe sums at least: two kernels that
#: differ on some rows only disagree where a sum rounds differently,
#: which one draw of a short, narrow panel can miss (a row of two
#: 2-term dot products agrees about half the time).
_PROBE_ROW_PRODUCTS = 256


def _probe_tall(shape: "Tuple[int, ...]", nf: int, b: int) -> bool:
    """Run both GEMM paths on seeded uniform operands of exactly this
    geometry and compare their bits — over as many seeded draws as a
    row needs to sum :data:`_PROBE_ROW_PRODUCTS` products (one draw
    unless the panel is both short and narrow).  Never the caller's
    data: an all-zero batch would agree under any summation order."""
    n = nf * b
    for seed in range(-(-_PROBE_ROW_PRODUCTS // (n * shape[-1]))):
        rng = np.random.default_rng(seed)
        packed = rng.random(shape, dtype=np.float32)
        cols = rng.random((*shape[:-2], shape[-1], n), dtype=np.float32)
        packed -= np.float32(0.5)
        cols -= np.float32(0.5)
        tall = np.empty((*shape[:-1], n), np.float32)
        _gemm_(packed, cols, tall)
        frames = np.moveaxis(cols.reshape(*cols.shape[:-1], b, nf), -2, 0)
        per_frame = np.empty((b, *shape[:-1], nf), np.float32)
        _gemm_per_frame_(packed, np.ascontiguousarray(frames), per_frame)
        tall = np.moveaxis(tall.reshape(*tall.shape[:-1], b, nf), -2, 0)
        if not np.array_equal(tall.view(np.uint32), per_frame.view(np.uint32)):
            return False
    return True


def _epilogue_blocks(
    out: np.ndarray, bias: Optional[np.ndarray], activation: str
) -> "List[Tuple[np.ndarray, Optional[np.ndarray]]]":
    """The channel blocks of a ``(Cout, ...)`` conv output that the
    in-place bias + activation epilogue visits, each with its bias
    column (``None`` without bias); no blocks when there is nothing to
    do.

    Blocks are sized to ~128 KiB so the activation pass reads the rows
    the bias add just touched from cache instead of re-streaming the
    whole output from memory.  Identical values to the two full passes —
    both visit each element once, and each is elementwise.
    """
    if bias is None and activation == "linear":
        return []
    rows = max(1, 32768 // max(1, out[0].size))
    if bias is not None:
        bias = bias.reshape(-1, *(1,) * (out.ndim - 1))
    return [
        (out[i : i + rows], None if bias is None else bias[i : i + rows])
        for i in range(0, out.shape[0], rows)
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

    Kept verbatim as the oracle for the GEMM bit-exactness tests and as
    the "before" kernel in the engine benchmarks.  Batched inputs run
    the frame loop a batched fast path must match — the literal
    per-frame oracle.
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


def maxpool2d(
    x: np.ndarray,
    kernel: _Size2,
    stride: _Size2,
    pads: _Pad4 = (0, 0, 0, 0),
) -> np.ndarray:
    """Max pooling; padded cells use -inf so they never win.

    Accumulates the ``kh·kw`` kernel taps with vectorised ``np.maximum``
    over strided slices — bit-exact with the windowed reference (max is
    order-free) and much faster than reducing a 5-D strided view.

    The tap path is fully general: non-square inputs, non-square
    kernels, asymmetric padding and batched ``(C, B, H, W)`` maps all
    stay on this fast route (the guard rejects anything else instead of
    silently pooling the wrong axes), so tiled and batched execution
    never fall back to the windowed reference.
    """
    _check_map(x, "maxpool2d")
    return MaxPoolKernel(x.shape, kernel, stride, pads, src=x)(x)


class MaxPoolKernel:
    """One max pool's kernel sequence on buffers fixed when it is built
    for an input ``shape``: the −inf border is written once; per call,
    the interior copy (skipped when the pool reads ``src`` unpadded)
    and the tap maxima into ``out``.  :func:`maxpool2d` builds one per
    call, a compiled tile plan one per step (see :class:`ConvKernel`)."""

    __slots__ = ("interior", "taps", "out")

    def __init__(
        self,
        shape: "Tuple[int, ...]",
        kernel: _Size2,
        stride: _Size2,
        pads: _Pad4,
        src: Optional[np.ndarray] = None,
    ) -> None:
        out_hw = _sweep_hw(shape, kernel, stride, pads)
        if src is not None and not any(pads):
            xp, self.interior = src, None
        else:
            xp, self.interior = _bordered_map(shape, pads, -np.inf)
        kh, kw = kernel
        self.taps = [
            _tap(xp, i, j, stride, out_hw) for i in range(kh) for j in range(kw)
        ]
        self.out = np.empty((*shape[:-2], *out_hw), np.float32)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.interior is not None:
            np.copyto(self.interior, x)
        out = self.out
        np.copyto(out, self.taps[0])
        for tap in self.taps[1:]:
            np.maximum(out, tap, out=out)
        return out


def maxpool2d_reference(
    x: np.ndarray, kernel: _Size2, stride: _Size2, pads: _Pad4 = (0, 0, 0, 0)
) -> np.ndarray:
    """The original windowed max pooling (oracle / benchmark baseline)."""
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


def avgpool2d(
    x: np.ndarray, kernel: _Size2, stride: _Size2, pads: _Pad4 = (0, 0, 0, 0)
) -> np.ndarray:
    """Average pooling with ``count_include_pad`` semantics (divisor is
    always kh·kw), which keeps tiled execution bit-exact at borders.

    Stays on the windowed sum: tap-accumulation would change the float
    summation order and break bitwise reproducibility against existing
    traces.  Average pools are rare (one per classification model), so
    the fast path gains nothing by touching this.  The batch axis only
    widens the window view — each plane's kh·kw reduction keeps the
    single-frame accumulation order, so batched slices stay bit-exact.
    """
    _check_map(x, "avgpool2d")
    xp = pad2d(x, pads)
    win = _windows(xp, kernel, stride)
    out = win.sum(axis=(-2, -1)) / float(kernel[0] * kernel[1])
    return ensure_f32c(out)


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


def apply_activation_(x: np.ndarray, activation: str) -> np.ndarray:
    """In-place activation for caller-owned arrays (fresh conv outputs).

    Bitwise identical to :func:`apply_activation` for every supported
    activation; leaky ReLU needs one temporary for the scaled branch but
    still writes through ``x``.
    """
    if activation == "relu":
        np.maximum(x, 0.0, out=x)
        return x
    if activation == "leaky_relu":
        np.copyto(x, x * np.asarray(LEAKY_SLOPE, dtype=x.dtype), where=x < 0)
        return x
    if activation == "relu6":
        np.clip(x, 0.0, 6.0, out=x)
        return x
    if activation == "linear":
        return x
    raise ValueError(f"unknown activation {activation!r}")


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


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Fully-connected layer: weight is (out_features, in_features).

    The matvec output is fresh, so the bias adds in place — one
    allocation instead of three for the big VGG16 head layers.
    """
    out = weight @ x
    if out.dtype != np.float32:
        out = out.astype(np.float32)
    out += bias
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max()
    exp = np.exp(shifted)
    return (exp / exp.sum()).astype(np.float32)
