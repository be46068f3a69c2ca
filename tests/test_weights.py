"""Tests for weight initialisation and the batch-norm fold."""

from __future__ import annotations

import hashlib
import mmap
import multiprocessing
import pickle
import threading
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


def _read_head(model: Model, weights: "dict") -> "dict":
    """``weights`` after a subscript of each head layer: the head is
    drawn at its first read, so iteration sees it only after one."""
    for dense in model.head:
        weights[dense.name]
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
    _assert_same_bits(
        _read_head(model, init_weights(model, seed=7)), _folded_reference(model, seed=7)
    )


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
    weights = _read_head(model, init_weights(model))
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


# -- the dense head is drawn at its first read ------------------------------
def test_the_head_is_drawn_at_its_first_read():
    """Before a read, iteration, ``len``, ``in`` and ``get`` see the
    convs alone; a subscript of any head layer draws the whole head,
    after the convs, and drops the generator.  Other names still miss."""
    model = get_model("vgg16", input_hw=64)
    weights = init_weights(model)
    head = [dense.name for dense in model.head]
    convs = [i.layer.name for i in model.iter_layers() if isinstance(i.layer, ConvSpec)]
    assert len(head) > 1
    assert list(weights) == convs and len(weights) == len(convs)
    assert head[-1] not in weights and weights.get(head[-1]) is None
    with pytest.raises(KeyError):
        weights["no_such_layer"]
    assert weights[head[-1]]["weight"].shape == (
        model.head[-1].out_features, model.head[-1].in_features
    )
    assert list(weights) == convs + head
    assert weights._rng is None
    with pytest.raises(KeyError):
        weights["no_such_layer"]


def test_head_duplicate_names_are_rejected_at_the_build():
    model = chain_model(
        "m", (3, 8, 8), [conv3x3("c", 3, 4)],
        head=[DenseSpec("c", 4 * 64, 10)],
    )
    with pytest.raises(ValueError, match="duplicate"):
        init_weights(model)


def test_threads_reading_the_head_at_once_get_the_same_arrays():
    model = get_model("resnet34", input_hw=64)
    weights = init_weights(model)
    name = model.head[0].name
    barrier = threading.Barrier(4)
    got = [None] * 4

    def read(i):
        barrier.wait()
        got[i] = weights[name]

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for params in got[1:]:
        assert params["weight"] is got[0]["weight"]
        assert params["bias"] is got[0]["bias"]
    _assert_same_bits(weights, _folded_reference(model, seed=0))


def _head_digest(model: Model, weights: "dict") -> str:
    digest = hashlib.sha256()
    for dense in model.head:
        for array in weights[dense.name].values():
            digest.update(array.tobytes())
    return digest.hexdigest()


def _send_head_digest(model, weights, conn) -> None:
    conn.send(_head_digest(model, weights))
    conn.close()


def test_a_forked_child_draws_the_parents_head():
    """A child that reads the head first draws it from its copy of the
    generator: the same bytes the parent reads after it."""
    model = get_model("resnet34", input_hw=64)
    weights = init_weights(model)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_head_digest, args=(model, weights, send))
    child.start()
    send.close()
    from_child = recv.recv()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert model.head[0].name not in weights  # the child's read stayed there
    assert from_child == _head_digest(model, weights)


def test_a_pickle_round_trip_of_an_unread_head_is_the_folded_draw():
    model = get_model("resnet34", input_hw=64)
    back = pickle.loads(pickle.dumps(init_weights(model)))
    assert type(back) is dict
    _assert_same_bits(back, _folded_reference(model, seed=0))


def test_the_build_maps_only_the_backbone(monkeypatch):
    """vgg16@64's build maps exactly its conv weights' bytes: the
    29.3 M-parameter dense head is not drawn."""
    model = get_model("vgg16", input_hw=64)
    mapped = []
    real_mmap = mmap.mmap

    def counting(fileno, length, *args, **kwargs):
        mapped.append(length)
        return real_mmap(fileno, length, *args, **kwargs)

    monkeypatch.setattr(weights_module.mmap, "mmap", counting)
    weights = init_weights(model)
    conv_bytes = [
        weights[i.layer.name]["weight"].nbytes
        for i in model.iter_layers() if isinstance(i.layer, ConvSpec)
    ]
    floor = weights_module._SHARED_MIN_BYTES
    assert sum(mapped) == sum(n for n in conv_bytes if n >= floor)
