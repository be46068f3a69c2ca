"""Fast-kernel exactness: packed-GEMM conv and tap-max pooling against
the original reference kernels.

The fast path's contract is *bitwise* equality for ``groups == 1``
convolutions and max pooling — both lower to the identical float
operation sequence — so these tests use ``assert_array_equal``, not
allclose.  Grouped convolutions go through a batched matmul whose
per-group accumulation order may differ from the reference einsum, so
they get tolerance checks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.models.zoo import get_model
from repro.nn import ops


def _rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestGemmBitExact:
    @given(
        cin=st.integers(1, 5),
        cout=st.integers(2, 6),
        kh=st.integers(1, 3),
        kw=st.integers(1, 3),
        sv=st.integers(1, 2),
        sh=st.integers(1, 2),
        top=st.integers(0, 2),
        bottom=st.integers(0, 2),
        left=st.integers(0, 2),
        right=st.integers(0, 2),
        size=st.integers(4, 10),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_gemm_equals_reference(
        self, cin, cout, kh, kw, sv, sh, top, bottom, left, right, size, seed
    ):
        """GEMM conv is bit-identical to the tensordot reference across
        kernels, strides and *asymmetric* padding (im2col copies every
        tap out of one zero-bordered map).

        ``cout >= 2`` only: for a single output channel numpy's dot
        routes the reference's strided window operand through a
        different BLAS kernel (gemv vs gemm, 1-ULP apart), so the
        degenerate M=1 case gets a tolerance test below instead.
        """
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((cin, size, size)).astype(np.float32)
        w = rng.standard_normal((cout, cin, kh, kw)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        pads = (top, bottom, left, right)
        got = ops.conv2d(x, w, b, (sv, sh), pads)
        want = ops.conv2d_reference(x, w, b, (sv, sh), pads)
        np.testing.assert_array_equal(got, want)

    def test_single_output_channel_float_close(self):
        """cout=1 convs (absent from every zoo model): the GEMM result
        is canonical-sgemm bits, the tensordot reference may take a
        gemv path on strided windows — equal to float32 rounding."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 4)).astype(np.float32)
        w = rng.standard_normal((1, 1, 1, 2)).astype(np.float32)
        b = rng.standard_normal(1).astype(np.float32)
        got = ops.conv2d(x, w, b, (1, 2))
        want = ops.conv2d_reference(x, w, b, (1, 2))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_no_bias_and_activationless(self):
        x, w = _rand((3, 12, 12), 0), _rand((8, 3, 3, 3), 1)
        np.testing.assert_array_equal(
            ops.conv2d(x, w, None, (1, 1), (1, 1, 1, 1)),
            ops.conv2d_reference(x, w, None, (1, 1), (1, 1, 1, 1)),
        )

    def test_padding_wider_than_input(self):
        """All-virtual rows/cols: taps that never touch the input."""
        x, w = _rand((2, 3, 3), 2), _rand((4, 2, 3, 3), 3)
        pads = (3, 3, 3, 3)
        np.testing.assert_array_equal(
            ops.conv2d(x, w, None, (2, 2), pads),
            ops.conv2d_reference(x, w, None, (2, 2), pads),
        )

    def test_packed_matches_unpacked(self):
        x, w, b = _rand((3, 10, 10), 4), _rand((5, 3, 3, 3), 5), _rand(5, 6)
        packed = ops.pack_conv_weight(w)
        got = ops.conv2d_packed(x, packed, b, (3, 3), (1, 1), (1, 1, 1, 1))
        np.testing.assert_array_equal(got, ops.conv2d(x, w, b, (1, 1), (1, 1, 1, 1)))

    def test_scratch_arenas_do_not_change_values(self):
        x, w, b = _rand((4, 9, 9), 7), _rand((6, 4, 3, 3), 8), _rand(6, 9)
        packed = ops.pack_conv_weight(w)
        plain = ops.conv2d_packed(x, packed, b, (3, 3), (1, 1), (1, 1, 1, 1))
        pad, padded = ops.ScratchPad(), ops.ScratchPad()
        for _ in range(3):  # arena reuse across frames must be invisible
            arena_out = ops.conv2d_packed(
                x, packed, b, (3, 3), (1, 1), (1, 1, 1, 1),
                scratch=pad, pad_scratch=padded,
            )
            np.testing.assert_array_equal(arena_out, plain)

    def test_fused_activation_matches_post_activation(self):
        x, w, b = _rand((3, 8, 8), 10), _rand((4, 3, 3, 3), 11), _rand(4, 12)
        packed = ops.pack_conv_weight(w)
        fused = ops.conv2d_packed(
            x, packed, b, (3, 3), (1, 1), (0, 0, 0, 0), activation="relu"
        )
        unfused = ops.apply_activation(
            ops.conv2d_packed(x, packed, b, (3, 3), (1, 1), (0, 0, 0, 0)), "relu"
        )
        np.testing.assert_array_equal(fused, unfused)


def _conv_geometries(model):
    """Distinct ``(M, K, columns per frame)`` GEMM geometries of a
    model's convs run on whole maps."""
    seen = []
    for info in model.iter_layers():
        layer = info.layer
        if layer.kind == "conv":
            k = info.in_shape[0] // layer.groups * layer.kernel_size[0] * layer.kernel_size[1]
            geometry = (layer.out_channels, k, info.out_shape[1] * info.out_shape[2])
            if geometry not in seen:
                seen.append(geometry)
    return seen


_RESNET34_GEOMETRIES = _conv_geometries(get_model("resnet34", input_hw=64))


def _resnet34_examples(test):
    """Every resnet34@64 conv geometry at 2–4 frames, as explicit
    examples; ``(512, 256)`` against 4 columns a frame is layer4's 1×1
    downsample, the one probed geometry whose tall call changes bits
    under OpenBLAS 0.3.31's Haswell kernels."""
    assert (512, 256, 4) in _RESNET34_GEOMETRIES
    for m, k, nf in _RESNET34_GEOMETRIES:
        for b in (2, 3, 4):
            test = example(m=m, k=k, nf=nf, b=b, groups=1, seed=0)(test)
    return test


def _batched_vs_frames(m, k, nf, b, groups, seed):
    """A batched 1×1 conv whose GEMM is ``(M, K)`` against ``b`` frames of
    ``nf`` columns (per group when ``groups > 1``), and the same conv
    run frame by frame."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((groups * k, b, 1, nf)).astype(np.float32)
    w = rng.standard_normal((groups * m, k, 1, 1)).astype(np.float32)
    bias = rng.standard_normal(groups * m).astype(np.float32)
    packed = ops.pack_conv_weight(w, groups)
    batched = ops.conv2d_packed(x, packed, bias, (1, 1), groups=groups)
    frames = [
        ops.conv2d_packed(np.ascontiguousarray(x[:, i]), packed, bias, (1, 1), groups=groups)
        for i in range(b)
    ]
    return packed, batched, np.stack(frames, axis=1)


class TestBatchedGemm:
    """A batched conv's GEMM goes tall only where that is bit-identical
    to one GEMM per frame, as measured by ``ops._tall_is_exact``."""

    @_resnet34_examples
    @given(
        m=st.integers(2, 96),
        k=st.integers(1, 96),
        nf=st.integers(1, 40),
        b=st.integers(2, 5),
        groups=st.sampled_from([1, 1, 2, 3]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_batched_equals_per_frame(self, m, k, nf, b, groups, seed):
        """Whatever the probe decided, every frame's slice of a batched
        conv is bit for bit the single-frame conv — for the 2-D pack
        and the grouped 3-D pack."""
        packed, batched, per_frame = _batched_vs_frames(m, k, nf, b, groups, seed)
        assert packed.ndim == (2 if groups == 1 else 3)
        np.testing.assert_array_equal(
            batched.view(np.uint32), per_frame.view(np.uint32)
        )

    @pytest.fixture
    def calls(self, monkeypatch):
        """A fresh decision cache, with spies counting probes, per-frame
        GEMM loops and whole-panel GEMMs."""
        monkeypatch.setattr(ops, "_TALL_EXACT", {})
        counts = {"probe": 0, "per_frame": 0, "tall": 0}
        for name, key in (
            ("_probe_tall", "probe"), ("_gemm_per_frame_", "per_frame"), ("_gemm_", "tall")
        ):
            def spy(*args, _real=getattr(ops, name), _key=key):
                counts[_key] += 1
                return _real(*args)

            monkeypatch.setattr(ops, name, spy)
        return counts

    def test_geometry_probed_once(self, calls):
        _batched_vs_frames(64, 72, 16, 3, 1, seed=0)
        assert calls["probe"] == 1
        assert list(ops._TALL_EXACT) == [((64, 72), 16, 3)]
        _batched_vs_frames(64, 72, 16, 3, 1, seed=1)
        assert calls["probe"] == 1

    def test_wide_frames_are_not_probed(self, calls):
        """Fewer weight rows than columns a frame: per-frame, unprobed."""
        _batched_vs_frames(8, 16, 32, 2, 1, seed=0)
        assert calls["probe"] == 0
        assert ops._TALL_EXACT == {((8, 16), 32, 2): False}

    @pytest.mark.parametrize("geometry", [(512, 256, 4, 4), (128, 576, 64, 2), (6, 9, 5, 3)])
    def test_zero_batch_decides_like_the_seeded_probe(self, calls, geometry):
        """The decision never reads the call's data: an all-zero first
        batch, which agrees under any summation order, leaves what the
        seeded probe measures."""
        m, k, nf, b = geometry
        packed = ops.pack_conv_weight(np.zeros((m, k, 1, 1), np.float32))
        x = np.zeros((k, b, 1, nf), np.float32)
        ops.conv2d_packed(x, packed, None, (1, 1))
        decided = ops._TALL_EXACT[((m, k), nf, b)]
        assert decided == ops._probe_tall((m, k), nf, b)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_decision_picks_the_gemm_path(self, calls, groups):
        """A "no" geometry runs the per-frame loop, a "yes" geometry one
        GEMM over the whole panel, on either pack layout."""
        m, k, nf, b = 16, 8, 4, 3
        shape = (m, k) if groups == 1 else (groups, m, k)
        for tall in (False, True):
            ops._TALL_EXACT[(shape, nf, b)] = tall
            calls.update(per_frame=0, tall=0)
            rng = np.random.default_rng(0)
            x = rng.standard_normal((groups * k, b, 1, nf)).astype(np.float32)
            w = rng.standard_normal((groups * m, k, 1, 1)).astype(np.float32)
            ops.conv2d_packed(x, ops.pack_conv_weight(w, groups), None, (1, 1), groups=groups)
            assert calls["probe"] == 0
            assert (calls["per_frame"], calls["tall"]) == ((0, 1) if tall else (1, 0))


def _im2col_oracle(x, kernel, stride, pads):
    """The patch matrix the obvious way: ``np.pad``, then a transposed
    copy of the strided ``sliding_window_view``."""
    top, bottom, left, right = pads
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)])
    win = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(-2, -1))
    win = win[..., :: stride[0], :: stride[1], :, :]  # (C, *B, Ho, Wo, kh, kw)
    n = x.ndim
    cols = np.ascontiguousarray(win.transpose(0, n, n + 1, *range(1, n)))
    return cols.reshape(x.shape[0] * kernel[0] * kernel[1], -1), win.shape[-4:-2]


def _panel(conv):
    """A conv kernel's gathered patch as one ``(K, B·Ho·Wo)`` panel,
    whichever layout it gathered (frame-major for per-frame GEMMs)."""
    if conv.frames == 1:
        return conv.cols
    return np.moveaxis(conv.cols, 0, 1).reshape(conv.cols.shape[1], -1)


class TestIm2col:
    @given(
        c=st.integers(1, 4),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        pads=st.tuples(*[st.integers(0, 2)] * 4),
        batch=st.sampled_from([None, 1, 2, 3]),
        layout=st.sampled_from(["contiguous", "strided", "transposed"]),
        rows=st.sampled_from([1, 16]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_equals_naive_oracle(
        self, c, h, w, kernel, stride, pads, batch, layout, rows, seed
    ):
        """The patch :class:`ops.ConvKernel` gathers — the input laid
        into a zero-bordered map, then one strided copy of every tap —
        is the very patch matrix of pad-then-window, bit for bit: same
        shape, same ``(channel, kh, kw)`` row order, ``(frame, ho, wo)``
        columns — for single and stacked maps, contiguous or not, tall
        or frame-major panels, into fresh buffers or dirty arenas."""
        top, bottom, left, right = pads
        assume(h + top + bottom >= kernel[0] and w + left + right >= kernel[1])
        shape = (c, h, w) if batch is None else (c, batch, h, w)
        rng = np.random.default_rng(seed)
        if layout == "contiguous":
            x = rng.standard_normal(shape).astype(np.float32)
        elif layout == "strided":  # every other column of a wider map
            x = rng.standard_normal((*shape[:-1], 2 * w)).astype(np.float32)
            x = x[..., ::2]
        else:  # channel-last storage viewed channel-first
            x = rng.standard_normal(shape[1:] + (c,)).astype(np.float32)
            x = np.moveaxis(x, -1, 0)
        want, want_hw = _im2col_oracle(x, kernel, stride, pads)
        packed = np.ones((rows, c * kernel[0] * kernel[1]), np.float32)
        args = (x.shape, packed, None, kernel, stride, pads, 1, "linear")
        fresh = ops.ConvKernel(*args, src=x)
        fresh.bind_patch(np.empty(fresh.patch_size, np.float32))
        bordered = ops.ScratchPad()  # stale NaNs must never leak into a panel
        bordered.take((4096,)).fill(np.nan)
        dirty = ops.ConvKernel(*args, src=x, map_arena=bordered)
        dirty.bind_patch(np.full(dirty.patch_size + 3, np.nan, np.float32))
        for conv in (fresh, dirty):
            out = conv(x)
            assert tuple(out.shape[-2:]) == tuple(want_hw)
            cols = _panel(conv)
            assert cols.shape == want.shape
            np.testing.assert_array_equal(
                cols.view(np.uint32), want.view(np.uint32)
            )


class TestGroupedConv:
    @given(
        groups=st.sampled_from([2, 4]),
        mult=st.integers(1, 2),
        size=st.integers(5, 9),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_grouped_close_to_reference(self, groups, mult, size, seed):
        rng = np.random.default_rng(seed)
        cin = groups * 2
        cout = groups * mult
        x = rng.standard_normal((cin, size, size)).astype(np.float32)
        w = rng.standard_normal((cout, cin // groups, 3, 3)).astype(np.float32)
        got = ops.conv2d(x, w, None, (1, 1), (1, 1, 1, 1), groups=groups)
        want = ops.conv2d_reference(x, w, None, (1, 1), (1, 1, 1, 1), groups=groups)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_depthwise(self):
        x = _rand((6, 8, 8), 13)
        w = _rand((6, 1, 3, 3), 14)
        got = ops.conv2d(x, w, None, (1, 1), (1, 1, 1, 1), groups=6)
        want = ops.conv2d_reference(x, w, None, (1, 1), (1, 1, 1, 1), groups=6)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestMaxPoolFast:
    @given(
        k=st.integers(2, 3),
        s=st.integers(1, 3),
        pad=st.integers(0, 1),
        size=st.integers(4, 11),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_tap_max_equals_reference(self, k, s, pad, size, seed):
        x = _rand((3, size, size), seed)
        pads = (pad, pad, pad, pad)
        got = ops.maxpool2d(x, (k, k), (s, s), pads)
        want = ops.maxpool2d_reference(x, (k, k), (s, s), pads)
        np.testing.assert_array_equal(got, want)

    def test_arena_output(self):
        """A kernel's persistent output buffer and −inf border serve
        every call: each new input pools to its own reference values."""
        pool = ops.MaxPoolKernel((4, 10, 10), (3, 3), (2, 2), (1, 0, 1, 0))
        for seed in (21, 22):
            x = _rand((4, 10, 10), seed)
            np.testing.assert_array_equal(
                pool(x), ops.maxpool2d_reference(x, (3, 3), (2, 2), (1, 0, 1, 0))
            )


class TestInPlaceActivation:
    @pytest.mark.parametrize(
        "activation", ["relu", "leaky_relu", "relu6", "linear"]
    )
    def test_matches_out_of_place(self, activation):
        x = _rand((5, 7, 7), 30)
        want = ops.apply_activation(x.copy(), activation)
        got = ops.apply_activation_(x.copy(), activation)
        np.testing.assert_array_equal(got, want)

    def test_writes_through(self):
        x = _rand((4, 4), 31)
        out = ops.apply_activation_(x, "relu")
        assert out is x
        assert x.min() >= 0.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            ops.apply_activation_(np.zeros(3, np.float32), "gelu")
