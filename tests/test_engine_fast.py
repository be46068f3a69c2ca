"""Engine fast-path behaviour: packed-weight caching, BN folding,
chain arenas and threaded execution, all checked against the reference
configuration on the same weights."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn import parallel
from repro.nn.executor import Engine
from repro.nn.weights import init_weights


def _input(model, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(model.input_shape).astype(np.float32)


@pytest.fixture
def serial_pool():
    """Force serial execution for a test, restoring the env default."""
    parallel.set_threads(1)
    yield
    parallel.set_threads(None)


class TestFastVsReference:
    def test_chain_model_bit_exact(self):
        """groups == 1, no BN: the fast path must be bitwise identical,
        and repeat runs (which reuse the compiled plan's buffers) must be
        too."""
        model = toy_chain(6, 2, input_hw=64, in_channels=3)
        weights = init_weights(model, 3)
        ref = Engine(model, weights, fast=False)
        fast = Engine(model, weights, fast=True)
        x = _input(model)
        want = ref.forward_features(x)
        first = fast.forward_features(x)
        np.testing.assert_array_equal(first, want)
        # The first output must survive the second frame's buffer reuse.
        second = fast.forward_features(_input(model, seed=9))
        np.testing.assert_array_equal(first, want)
        assert not np.array_equal(second, first)
        np.testing.assert_array_equal(fast.forward_features(x), want)

    def test_vgg16_end_to_end_bit_exact(self):
        model = get_model("vgg16", input_hw=32)
        weights = init_weights(model, 0)
        x = _input(model)
        np.testing.assert_array_equal(
            Engine(model, weights, fast=True).run(x),
            Engine(model, weights, fast=False).run(x),
        )

    def test_unfolded_bn_bit_exact(self):
        """fast=True, fold_bn=False keeps the separate BN pass — the
        conv GEMM is bit-exact, so the whole layer is too."""
        model = get_model("resnet34", input_hw=32)
        weights = init_weights(model, 1)
        x = _input(model)
        np.testing.assert_array_equal(
            Engine(model, weights, fast=True, fold_bn=False).forward_features(x),
            Engine(model, weights, fast=False).forward_features(x),
        )

    def test_folded_bn_within_float32_rounding(self):
        """Folding BN into the packed weight re-associates the per
        channel scale — equal to float32 rounding, not bitwise."""
        model = get_model("resnet34", input_hw=32)
        weights = init_weights(model, 1)
        x = _input(model)
        want = Engine(model, weights, fast=False).forward_features(x)
        got = Engine(model, weights, fast=True).forward_features(x)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_grouped_conv_model_close(self):
        model = get_model("mobilenet_v2", input_hw=32)
        weights = init_weights(model, 2)
        x = _input(model)
        want = Engine(model, weights, fast=False).forward_features(x)
        got = Engine(model, weights, fast=True, fold_bn=False).forward_features(x)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


class TestThreading:
    def test_threaded_equals_serial(self):
        """Block paths fan out on the pool; merge order is fixed by
        position, so threading must not change a single bit."""
        model = get_model("inception_v3", input_hw=96)
        weights = init_weights(model, 4)
        engine = Engine(model, weights, fast=True)
        x = _input(model)
        try:
            parallel.set_threads(1)
            serial = engine.forward_features(x)
            parallel.set_threads(3)
            threaded = engine.forward_features(x)
        finally:
            parallel.set_threads(None)
        np.testing.assert_array_equal(threaded, serial)

    def test_serial_fallback_used(self, serial_pool):
        assert parallel.get_pool() is None
        assert parallel.configured_threads() == 1


class TestPackedCache:
    def test_cache_populates_lazily_and_refreshes(self):
        model = toy_chain(3, 0, input_hw=16, in_channels=2)
        weights = init_weights(model, 5)
        engine = Engine(model, weights, fast=True)
        assert not engine._packed
        x = _input(model)
        baseline = engine.forward_features(x)
        assert len(engine._packed) == 3
        # Mutating weights without refresh serves stale packed matrices.
        name = model.units[0].layer.name
        engine.weights[name]["weight"] = engine.weights[name]["weight"] * 2.0
        np.testing.assert_array_equal(engine.forward_features(x), baseline)
        engine.refresh_weights()
        assert not engine._packed
        assert not np.array_equal(engine.forward_features(x), baseline)

    def test_partial_weights_pack_on_demand(self):
        """A worker ships only its segment's layers; packing must not
        touch absent entries."""
        model = toy_chain(4, 0, input_hw=16, in_channels=1)
        full = init_weights(model, 6)
        first = model.units[0].layer
        engine = Engine(model, {first.name: full[first.name]}, fast=True)
        ref = Engine(model, full, fast=False)
        x = _input(model)
        np.testing.assert_array_equal(
            engine.run_layer(first, x, engine.spec_pads(first)),
            ref.run_layer(first, x, ref.spec_pads(first)),
        )
        with pytest.raises(KeyError):
            second = model.units[1].layer
            engine.run_layer(second, x, engine.spec_pads(second))
