"""Tests for numpy tensor ops, including brute-force conv checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import ops
from repro.testing import batch_norm, maxpool2d_reference
from repro.testing.kernels import apply_activation, conv2d, leaky_relu, relu


def brute_conv2d(x, w, b, stride, pads):
    """Reference convolution: explicit loops."""
    xp = np.pad(x, ((0, 0), (pads[0], pads[1]), (pads[2], pads[3])))
    cout, cin, kh, kw = w.shape
    sh, sw = stride
    oh = (xp.shape[1] - kh) // sh + 1
    ow = (xp.shape[2] - kw) // sw + 1
    out = np.zeros((cout, oh, ow), dtype=np.float64)
    for o in range(cout):
        for i in range(oh):
            for j in range(ow):
                window = xp[:, i * sh : i * sh + kh, j * sw : j * sw + kw]
                out[o, i, j] = np.sum(window * w[o])
    if b is not None:
        out += b[:, None, None]
    return out.astype(np.float32)


class TestConv2d:
    @given(
        cin=st.integers(1, 4),
        cout=st.integers(1, 4),
        kh=st.integers(1, 3),
        kw=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
        size=st.integers(4, 8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_bruteforce(
        self, cin, cout, kh, kw, stride, pad, size, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((cin, size, size)).astype(np.float32)
        w = rng.standard_normal((cout, cin, kh, kw)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        got = conv2d(x, w, b, (stride, stride), (pad, pad, pad, pad))
        want = brute_conv2d(x, w, b, (stride, stride), (pad, pad, pad, pad))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_rejected(self):
        x = np.zeros((3, 8, 8), dtype=np.float32)
        w = np.zeros((4, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            conv2d(x, w, None)

    def test_no_bias(self):
        x = np.ones((1, 4, 4), dtype=np.float32)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = conv2d(x, w, None)
        assert np.all(out == 4.0)

    def test_non_square_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 2, 1, 5)).astype(np.float32)
        got = conv2d(x, w, None, (1, 1), (0, 0, 2, 2))
        want = brute_conv2d(x, w, None, (1, 1), (0, 0, 2, 2))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)
        assert got.shape == (3, 6, 6)


class TestPooling:
    def test_maxpool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = ops.maxpool2d(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out[0], [[5, 7], [13, 15]])

    def test_maxpool_padding_uses_neg_inf(self):
        x = -np.ones((1, 2, 2), dtype=np.float32)
        out = ops.maxpool2d(x, (2, 2), (2, 2), (1, 1, 1, 1))
        # Every window has at least one real value; -inf pads never win.
        assert np.all(out == -1.0)
        assert np.isfinite(out).all()

    def test_avgpool_count_include_pad(self):
        x = np.full((1, 2, 2), 4.0, dtype=np.float32)
        out = ops.avgpool2d(x, (2, 2), (2, 2), (1, 1, 1, 1))
        # Each 2x2 window holds one real 4.0 and three zeros.
        assert np.allclose(out, 1.0)

    def test_avgpool_global(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        out = ops.avgpool2d(x, (3, 3), (1, 1))
        assert out.shape == (1, 1, 1)
        assert np.isclose(out[0, 0, 0], 4.0)

    def test_kernel_too_big_rejected(self):
        x = np.zeros((1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            ops.maxpool2d(x, (3, 3), (1, 1))

    def test_maxpool_non_square_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 7, 12)).astype(np.float32)
        got = ops.maxpool2d(x, (2, 2), (2, 2))
        want = maxpool2d_reference(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(got, want)
        assert got.shape == (2, 3, 6)

    def test_maxpool_non_square_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 9, 9)).astype(np.float32)
        got = ops.maxpool2d(x, (2, 3), (1, 2))
        want = maxpool2d_reference(x, (2, 3), (1, 2))
        np.testing.assert_array_equal(got, want)

    def test_maxpool_asymmetric_padding(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 6, 5)).astype(np.float32)
        got = ops.maxpool2d(x, (3, 3), (2, 2), (1, 0, 2, 0))
        want = maxpool2d_reference(x, (3, 3), (2, 2), (1, 0, 2, 0))
        np.testing.assert_array_equal(got, want)
        assert np.isfinite(got).all()

    def test_maxpool_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ops.maxpool2d(np.zeros((4, 4), dtype=np.float32), (2, 2), (2, 2))
        with pytest.raises(ValueError):
            ops.maxpool2d(
                np.zeros((1, 2, 1, 4, 4), dtype=np.float32), (2, 2), (2, 2)
            )

    def test_maxpool_batched_map_equals_per_frame(self):
        rng = np.random.default_rng(4)
        stacked = rng.standard_normal((3, 4, 8, 10)).astype(np.float32)
        got = ops.maxpool2d(stacked, (3, 2), (2, 2), (1, 1, 0, 1))
        want = maxpool2d_reference(stacked, (3, 2), (2, 2), (1, 1, 0, 1))
        np.testing.assert_array_equal(got, want)
        for b in range(stacked.shape[1]):
            single = ops.maxpool2d(
                np.ascontiguousarray(stacked[:, b]), (3, 2), (2, 2), (1, 1, 0, 1)
            )
            np.testing.assert_array_equal(got[:, b], single)

    def test_avgpool_batched_map_equals_per_frame(self):
        rng = np.random.default_rng(5)
        stacked = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        got = ops.avgpool2d(stacked, (2, 2), (2, 2))
        for b in range(stacked.shape[1]):
            single = ops.avgpool2d(
                np.ascontiguousarray(stacked[:, b]), (2, 2), (2, 2)
            )
            np.testing.assert_array_equal(got[:, b], single)


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 2.0])

    def test_leaky_relu_darknet_slope(self):
        x = np.array([-10.0, 10.0], dtype=np.float32)
        np.testing.assert_allclose(leaky_relu(x), [-1.0, 10.0])

    def test_apply_activation_dispatch(self):
        x = np.array([-2.0], dtype=np.float32)
        assert apply_activation(x, "relu")[0] == 0.0
        assert apply_activation(x, "linear")[0] == -2.0
        assert np.isclose(apply_activation(x, "leaky_relu")[0], -0.2)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            apply_activation(np.zeros(1, dtype=np.float32), "swish")


class TestBatchNorm:
    def test_normalises(self):
        x = np.full((2, 2, 2), 3.0, dtype=np.float32)
        out = batch_norm(
            x,
            gamma=np.array([2.0, 1.0], dtype=np.float32),
            beta=np.array([0.0, 1.0], dtype=np.float32),
            mean=np.array([3.0, 3.0], dtype=np.float32),
            var=np.array([1.0, 1.0], dtype=np.float32),
            eps=0.0,
        )
        assert np.allclose(out[0], 0.0)
        assert np.allclose(out[1], 1.0)


class TestLinearSoftmax:
    def test_linear(self):
        w = np.array([[1.0, 2.0]], dtype=np.float32)
        b = np.array([0.5], dtype=np.float32)
        out = ops.linear(np.array([3.0, 4.0], dtype=np.float32), w, b)
        assert np.isclose(out[0], 11.5)

    def test_softmax_sums_to_one(self):
        out = ops.softmax(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        assert np.isclose(out.sum(), 1.0)
        assert out.argmax() == 2

    def test_softmax_overflow_safe(self):
        out = ops.softmax(np.array([1000.0, 1000.0], dtype=np.float32))
        assert np.allclose(out, 0.5)


class TestPad:
    def test_noop(self):
        x = np.ones((1, 2, 2), dtype=np.float32)
        assert ops.pad2d(x, (0, 0, 0, 0)) is x

    def test_pads(self):
        x = np.ones((1, 2, 2), dtype=np.float32)
        out = ops.pad2d(x, (1, 0, 0, 2))
        assert out.shape == (1, 3, 4)
        assert out[0, 0, 0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ops.pad2d(np.ones((1, 2, 2), dtype=np.float32), (-1, 0, 0, 0))
