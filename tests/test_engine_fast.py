"""Engine behaviour: packed-weight caching, BN folding, compiled plans
and threaded execution, all checked against the seed's reference engine
(:class:`repro.testing.ReferenceEngine`) on the same draws — each side
from its own builder: the engine's folded by
:func:`repro.nn.weights.init_weights`, the reference's raw by
:func:`repro.testing.init_weights_reference`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.toy import toy_chain
from repro.models.zoo import get_model
from repro.nn import parallel
from repro.nn.executor import Engine
from repro.nn.weights import init_weights
from repro.testing import ReferenceEngine, init_weights_reference


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
        """groups == 1, no BN: the engine must be bitwise identical,
        and repeat runs (which reuse the compiled plan's buffers) must be
        too."""
        model = toy_chain(6, 2, input_hw=64, in_channels=3)
        ref = ReferenceEngine(model, init_weights_reference(model, 3))
        engine = Engine(model, init_weights(model, 3))
        x = _input(model)
        want = ref.forward_features(x)
        first = engine.forward_features(x)
        np.testing.assert_array_equal(first, want)
        # The first output must survive the second frame's buffer reuse.
        second = engine.forward_features(_input(model, seed=9))
        np.testing.assert_array_equal(first, want)
        assert not np.array_equal(second, first)
        np.testing.assert_array_equal(engine.forward_features(x), want)

    def test_vgg16_end_to_end_bit_exact(self):
        model = get_model("vgg16", input_hw=32)
        x = _input(model)
        np.testing.assert_array_equal(
            Engine(model, init_weights(model, 0)).run(x),
            ReferenceEngine(model, init_weights_reference(model, 0)).run(x),
        )

    def test_folded_bn_within_float32_rounding(self):
        """Folding BN into the packed weight re-associates the per
        channel scale — equal to float32 rounding, not bitwise."""
        model = get_model("resnet34", input_hw=32)
        x = _input(model)
        want = ReferenceEngine(model, init_weights_reference(model, 1)).forward_features(x)
        got = Engine(model, init_weights(model, 1)).forward_features(x)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_grouped_conv_model_close(self):
        model = get_model("mobilenet_v2", input_hw=32)
        x = _input(model)
        want = ReferenceEngine(model, init_weights_reference(model, 2)).forward_features(x)
        got = Engine(model, init_weights(model, 2)).forward_features(x)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_default_weights_are_each_sides_own_build(self):
        """Without a dict, each engine draws the seed's weights from its
        own builder: folded for the engine, raw for the reference."""
        model = get_model("resnet34", input_hw=32)
        x = _input(model)
        np.testing.assert_allclose(
            ReferenceEngine(model, seed=1).forward_features(x),
            Engine(model, seed=1).forward_features(x),
            rtol=1e-4, atol=1e-4,
        )


class TestRawBatchNormRefused:
    def test_raw_bn_params_are_a_value_error(self):
        """A dict that still holds a BN conv's statistics is refused by
        name, pointing at the fold; there is no second fold path."""
        model = get_model("resnet34", input_hw=32)
        engine = Engine(model, init_weights_reference(model, 0))
        with pytest.raises(ValueError, match=r"conv1.*fold_batch_norm"):
            engine.forward_features(_input(model))
        first = model.units[0].layer
        with pytest.raises(ValueError, match="gamma"):
            engine.run_layer(first, _input(model), engine.spec_pads(first))


class TestThreading:
    def test_threaded_equals_serial(self):
        """Block paths fan out on the pool; merge order is fixed by
        position, so threading must not change a single bit."""
        model = get_model("inception_v3", input_hw=96)
        weights = init_weights(model, 4)
        engine = Engine(model, weights)
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
        engine = Engine(model, weights)
        assert not engine._packed
        x = _input(model)
        baseline = engine.forward_features(x)
        assert len(engine._packed) == 3
        # Mutating weights serves the stale packed matrices; a fresh
        # engine over the same dict packs (and serves) the new ones.
        name = model.units[0].layer.name
        engine.weights[name]["weight"] = engine.weights[name]["weight"] * 2.0
        np.testing.assert_array_equal(engine.forward_features(x), baseline)
        fresh = Engine(model, engine.weights)
        assert not fresh._packed
        assert not np.array_equal(fresh.forward_features(x), baseline)

    def test_partial_weights_pack_on_demand(self):
        """A worker ships only its segment's layers; packing must not
        touch absent entries."""
        model = toy_chain(4, 0, input_hw=16, in_channels=1)
        full = init_weights(model, 6)
        first = model.units[0].layer
        engine = Engine(model, {first.name: full[first.name]})
        ref = ReferenceEngine(model, init_weights_reference(model, 6))
        x = _input(model)
        np.testing.assert_array_equal(
            engine.run_layer(first, x, engine.spec_pads(first)),
            ref.run_layer(first, x, ref.spec_pads(first)),
        )
        with pytest.raises(KeyError):
            second = model.units[1].layer
            engine.run_layer(second, x, engine.spec_pads(second))
