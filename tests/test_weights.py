"""Tests for weight initialisation and the batch-norm fold."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.models.graph import Model
from repro.models.layers import ConvSpec, DenseSpec, conv3x3
from repro.models.resnet import basic_block
from repro.models.toy import toy_chain
from repro.models.graph import chain_model
from repro.models.zoo import available_models, get_model
from repro.nn import weights as weights_module
from repro.nn.weights import fold_batch_norm, init_weights
from repro.testing import fold_batch_norm_reference, init_weights_reference


def test_conv_params_present():
    model = toy_chain(2, 1, input_hw=16)
    weights = init_weights(model)
    assert set(weights) == {"conv1", "conv2"}  # pools have no params
    assert weights["conv1"]["weight"].shape == (16, 1, 3, 3)
    assert weights["conv1"]["bias"].shape == (16,)


def test_bn_params_when_requested():
    model = chain_model(
        "m", (3, 8, 8),
        [ConvSpec("c", 3, 4, kernel_size=3, batch_norm=True, bias=False)],
    )
    params = init_weights(model)["c"]
    assert {"weight", "gamma", "beta", "mean", "var"} <= set(params)
    assert "bias" not in params
    assert np.all(params["var"] > 0)


def test_block_internals_initialised():
    model = Model("m", (4, 8, 8), (basic_block("b", 4, 8, stride=2),))
    weights = init_weights(model)
    assert {"b.conv1", "b.conv2", "b.downsample"} <= set(weights)


def test_head_initialised():
    model = chain_model(
        "m", (3, 8, 8), [conv3x3("c", 3, 4)],
        head=[DenseSpec("fc", 4 * 64, 10)],
    )
    weights = init_weights(model)
    assert weights["fc"]["weight"].shape == (10, 256)


def test_seed_reproducible():
    model = toy_chain(2, 0, input_hw=8)
    a = init_weights(model, seed=3)
    b = init_weights(model, seed=3)
    np.testing.assert_array_equal(a["conv1"]["weight"], b["conv1"]["weight"])


def test_duplicate_layer_names_rejected():
    model = chain_model(
        "m", (3, 8, 8), [conv3x3("dup", 3, 4), conv3x3("dup", 4, 4)]
    )
    with pytest.raises(ValueError):
        init_weights(model)


def test_float32_dtype():
    weights = init_weights(toy_chain(1, 0, input_hw=8))
    assert weights["conv1"]["weight"].dtype == np.float32


# -- bounded float64 work: bit for bit the one-shot formulas ------------------
MODEL_NAMES = available_models() + ["toy_chain"]


def _small_model(name: str) -> Model:
    """A zoo model at a small input (inception_v3 needs ~75 pixels,
    fig13_toy has a fixed one), or the toy chain."""
    if name == "toy_chain":
        return toy_chain(8, 2, input_hw=64, base_channels=8)
    if name == "fig13_toy":
        return get_model(name)
    return get_model(name, input_hw=96 if name == "inception_v3" else 64)


def _assert_same_bits(got: "dict", want: "dict") -> None:
    assert list(got) == list(want)
    for layer in want:
        assert list(got[layer]) == list(want[layer])
        for name, array in want[layer].items():
            assert got[layer][name].dtype == array.dtype == np.float32
            assert got[layer][name].tobytes() == array.tobytes(), (layer, name)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_init_weights_equals_the_one_shot_draw(name):
    """Chunked draws are the same stream, and each chunk rounds to
    float32 as the whole-array cast does."""
    model = _small_model(name)
    _assert_same_bits(init_weights(model, seed=7), init_weights_reference(model, seed=7))


@pytest.mark.parametrize("name", ["resnet34", "mobilenet_v2", "yolov2", "inception_v3"])
def test_fold_equals_the_one_shot_fold(name):
    """Every BN conv of the model folds to the whole-array formula's bits."""
    model = _small_model(name)
    weights = init_weights(model)
    folded = 0
    for info in model.iter_layers():
        layer = info.layer
        if isinstance(layer, ConvSpec) and layer.batch_norm:
            p = weights[layer.name]
            args = (p["weight"], p.get("bias"), p["gamma"], p["beta"], p["mean"], p["var"])
            for got, want in zip(fold_batch_norm(*args), fold_batch_norm_reference(*args)):
                assert got.dtype == want.dtype == np.float32
                assert got.tobytes() == want.tobytes(), layer.name
            folded += 1
    assert folded


def test_fold_with_bias_and_rows_past_a_chunk():
    """A bias, and one output row larger than a whole chunk."""
    rng = np.random.default_rng(3)
    cout, cin = 3, weights_module._CHUNK_VALUES // 9 + 5
    args = [rng.standard_normal(s).astype(np.float32)
            for s in ((cout, cin, 3, 3), (cout,), (cout,), (cout,), (cout,))]
    args.append(rng.uniform(0.5, 1.5, cout).astype(np.float32))
    for got, want in zip(fold_batch_norm(*args), fold_batch_norm_reference(*args)):
        assert got.tobytes() == want.tobytes()


def _traced_peak(fn):
    """``(result, peak bytes numpy and Python allocated during fn)``."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_weight_build_holds_one_chunk_of_float64():
    """vgg16@64's weights peak under their float32 bytes plus 2 MiB."""
    model = get_model("vgg16", input_hw=64)
    weights, peak = _traced_peak(lambda: init_weights(model))
    out = sum(a.nbytes for params in weights.values() for a in params.values())
    assert peak < out + (2 << 20), (peak, out)


def test_bn_fold_holds_one_chunk_of_float64():
    """resnet34's largest BN conv folds under its float32 output plus 2 MiB."""
    model = get_model("resnet34", input_hw=64)
    weights = init_weights(model)
    name = max(
        (i.layer for i in model.iter_layers()
         if isinstance(i.layer, ConvSpec) and i.layer.batch_norm),
        key=lambda layer: layer.weight_count,
    ).name
    p = weights[name]
    (folded_w, folded_b), peak = _traced_peak(lambda: fold_batch_norm(
        p["weight"], p.get("bias"), p["gamma"], p["beta"], p["mean"], p["var"]
    ))
    assert peak < folded_w.nbytes + folded_b.nbytes + (2 << 20), (peak, folded_w.nbytes)
