"""Tests for configurable toy chains."""

from __future__ import annotations

import pytest

from repro.models.toy import fig13_model, toy_chain
from repro.testing.models import conv_layer_count, pool_layer_count


def test_conv_count():
    assert conv_layer_count(toy_chain(5)) == 5


def test_pool_count_and_spread():
    model = toy_chain(8, 2, input_hw=64)
    assert pool_layer_count(model) == 2
    kinds = [u.kind for u in model.units]
    # Pools are interior, not stacked at the ends.
    assert kinds[0] == "conv" and kinds[-1] == "conv"


def test_channels_double_after_pool():
    model = toy_chain(4, 1, input_hw=32, base_channels=16)
    channels = [s[0] for s in model.shapes]
    assert max(channels) == 32


def test_input_too_small_rejected():
    with pytest.raises(ValueError):
        toy_chain(4, 4, input_hw=16)


def test_zero_convs_rejected():
    with pytest.raises(ValueError):
        toy_chain(0)


def test_negative_pools_rejected():
    with pytest.raises(ValueError):
        toy_chain(4, -1)


def test_custom_name():
    assert toy_chain(3, name="bob").name == "bob"
    assert toy_chain(3, 1).name == "toy_c3p1"


def test_fig13_matches_paper():
    model = fig13_model()
    assert (conv_layer_count(model), pool_layer_count(model)) == (8, 2)
    assert model.input_shape == (1, 64, 64)
