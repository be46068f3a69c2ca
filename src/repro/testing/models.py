"""Layer counts of a model, as the tests check the zoo's architectures
against the papers that define them."""

from __future__ import annotations

from repro.models.graph import Model

__all__ = ["conv_layer_count", "pool_layer_count"]


def conv_layer_count(model: Model) -> int:
    return sum(1 for info in model.iter_layers() if info.layer.kind == "conv")


def pool_layer_count(model: Model) -> int:
    return sum(1 for info in model.iter_layers() if info.layer.kind == "pool")
