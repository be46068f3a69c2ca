"""Tests for weight initialisation and the batch-norm fold."""

from __future__ import annotations

import hashlib
import mmap
import pickle
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
    """The raw draws carry the BN statistics; the build keeps them
    folded into the weight and a bias."""
    model = chain_model(
        "m", (3, 8, 8),
        [ConvSpec("c", 3, 4, kernel_size=3, batch_norm=True, bias=False)],
    )
    raw = init_weights_reference(model)["c"]
    assert set(raw) == {"weight", "gamma", "beta", "mean", "var"}
    assert np.all(raw["var"] > 0)
    params = init_weights(model)["c"]
    assert set(params) == {"weight", "bias"}
    assert params["weight"].shape == raw["weight"].shape
    assert params["bias"].shape == (4,)


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


def _folded_reference(model: Model, seed: int) -> "dict":
    """The raw one-shot draws, each batch-norm conv folded by the
    one-shot formula into ``{"weight", "bias"}``."""
    weights = init_weights_reference(model, seed)
    for info in model.iter_layers():
        layer = info.layer
        if isinstance(layer, ConvSpec) and layer.batch_norm:
            p = weights[layer.name]
            w, b = fold_batch_norm_reference(
                p["weight"], p.get("bias"), p["gamma"], p["beta"], p["mean"], p["var"]
            )
            weights[layer.name] = {"weight": w, "bias": b}
    return weights


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
    float32 as the whole-array cast does; the in-place fold of each
    batch-norm conv gives the whole-array fold's bits."""
    model = _small_model(name)
    _assert_same_bits(init_weights(model, seed=7), _folded_reference(model, seed=7))


@pytest.mark.parametrize("name", ["resnet34", "mobilenet_v2", "yolov2", "inception_v3"])
def test_fold_equals_the_one_shot_fold(name):
    """Every BN conv of the model folds, in place, to the whole-array
    formula's bits, and the fold returns the weight it was given."""
    model = _small_model(name)
    raw = init_weights_reference(model)
    folded = 0
    for info in model.iter_layers():
        layer = info.layer
        if isinstance(layer, ConvSpec) and layer.batch_norm:
            p = raw[layer.name]
            args = (p["gamma"], p["beta"], p["mean"], p["var"])
            want = fold_batch_norm_reference(p["weight"], p.get("bias"), *args)
            weight = p["weight"].copy()
            got = fold_batch_norm(weight, p.get("bias"), *args)
            assert got[0] is weight
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.float32
                assert g.tobytes() == w.tobytes(), layer.name
            folded += 1
    assert folded


def test_fold_with_bias_and_rows_past_a_chunk():
    """A bias, and one output row larger than a whole chunk."""
    rng = np.random.default_rng(3)
    cout, cin = 3, weights_module._CHUNK_VALUES // 9 + 5
    args = [rng.standard_normal(s).astype(np.float32)
            for s in ((cout, cin, 3, 3), (cout,), (cout,), (cout,), (cout,))]
    args.append(rng.uniform(0.5, 1.5, cout).astype(np.float32))
    want = fold_batch_norm_reference(*args)
    for got, w in zip(fold_batch_norm(*args), want):
        assert got.tobytes() == w.tobytes()


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
    """resnet34's largest BN conv (9 MiB of float32, on the heap, where
    tracemalloc sees any copy) folds in place under its folded bias plus
    2 MiB: no second weight-sized array, float32 or float64."""
    model = get_model("resnet34", input_hw=64)
    weights = init_weights_reference(model)
    name = max(
        (i.layer for i in model.iter_layers()
         if isinstance(i.layer, ConvSpec) and i.layer.batch_norm),
        key=lambda layer: layer.weight_count,
    ).name
    p = weights[name]
    (folded_w, folded_b), peak = _traced_peak(lambda: fold_batch_norm(
        p["weight"], p.get("bias"), p["gamma"], p["beta"], p["mean"], p["var"]
    ))
    assert folded_w is p["weight"] and folded_w.nbytes > (8 << 20)
    assert peak < folded_b.nbytes + (2 << 20), (peak, folded_w.nbytes)


# -- where the bytes live: shared anonymous mappings above the floor ----------
#: sha256 over every raw parameter (layer, name, dtype, shape, bytes in
#: dict order; :func:`init_weights_reference`, batch norm unfolded) of
#: each model of MODEL_NAMES at its ``_small_model`` input, seed 0,
#: recorded before the weights moved into shared mappings, when the
#: build still kept batch norm raw.  ``init_weights`` is held to these
#: draws folded (``test_init_weights_equals_the_one_shot_draw``).
PARAM_SHA256 = {
    "fig13_toy": "536c05f5018b08be78f754d35053b4354ac0a989d86e662657156b273c2f92ab",
    "inception_v3": "4cba83d8a296ec7c944af5f50ed7d38299efd76e2f75396b3fea9ae7e38b6724",
    "mobilenet_v2": "21a663f67e34a724ae2815b6b241ceb3935e4b755ef3de363c87f0ed74062a36",
    "resnet34": "8eb896a644708bfd5aef37b7777822fcb11338ab16cb35eefb69e00778adf1e0",
    "vgg16": "71bd8411246ace674134c736c7efe26e0c791904d8269c66bb86cc1b38a90c40",
    "yolov2": "87d9ce4cf59f7b3ddc025066900f090741739fce8c568839ee4797085415de3d",
    "toy_chain": "8a47deb731b1790a22a7cc3940bace966594363263c738631b1fb674384e37a0",
}


def _backing(array: np.ndarray):
    """The object that owns ``array``'s bytes (``None``: numpy does)."""
    owner = array
    while isinstance(owner, np.ndarray):
        if owner.base is None:
            return None
        owner = owner.base
    return owner.obj if isinstance(owner, memoryview) else owner


def _shared(array: np.ndarray) -> bool:
    return isinstance(_backing(array), mmap.mmap)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_parameter_bytes_are_unchanged(name):
    digest = hashlib.sha256()
    for layer, params in init_weights_reference(_small_model(name)).items():
        for param, array in params.items():
            digest.update(f"{layer}/{param}/{array.dtype}/{array.shape}".encode())
            digest.update(array.tobytes())
    assert digest.hexdigest() == PARAM_SHA256[name]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_weights_above_the_floor_are_shared_mappings(name):
    """Every conv and dense weight (a batch-norm conv's folded in
    place) of at least the floor is an anonymous mapping; smaller ones
    and every bias are heap arrays."""
    model = _small_model(name)
    weights = init_weights(model)
    floor = weights_module._SHARED_MIN_BYTES
    shared = 0
    for layer, params in weights.items():
        for param, array in params.items():
            big = param == "weight" and array.nbytes >= floor
            assert _shared(array) == big, (layer, param, array.nbytes)
            assert array.flags.writeable and array.flags.c_contiguous
            shared += big
    # fig13_toy's and the toy chain's largest weights are under 64 KiB.
    assert shared or name in ("fig13_toy", "toy_chain")


def test_a_pickle_round_trip_copies_equal_arrays():
    weights = init_weights(get_model("resnet34", input_hw=64))
    back = pickle.loads(pickle.dumps(weights))
    assert list(back) == list(weights)
    for layer, params in weights.items():
        for param, array in params.items():
            got = back[layer][param]
            assert not _shared(got)
            assert got.dtype == array.dtype and got.shape == array.shape
            assert got.tobytes() == array.tobytes(), (layer, param)
