"""Layer specifications.

Layers are immutable *specs* — architecture only, no weights.  Planning,
cost modelling and partitioning operate purely on these specs; the numpy
execution engine (:mod:`repro.nn`) attaches weights separately.  This
mirrors the paper's setting, where the partition strategy depends only
on kernel sizes, strides, channels and feature-map shapes (Eq. 2–4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from repro._util import out_size

__all__ = [
    "ConvSpec",
    "PoolSpec",
    "DenseSpec",
    "SpatialLayer",
    "conv3x3",
    "conv1x1",
    "maxpool2",
]

_Size2 = Tuple[int, int]


def _pair(value: "Union[int, _Size2]") -> _Size2:
    """Normalise an int or 2-tuple into a ``(vertical, horizontal)`` pair."""
    if isinstance(value, int):
        return (value, value)
    v, h = value
    return (int(v), int(h))


@dataclass(frozen=True)
class ConvSpec:
    """A 2-D convolution layer (optionally followed by BN and activation).

    ``kernel_size``, ``stride`` and ``padding`` accept an int or an
    ``(h, w)`` pair — non-square kernels (e.g. InceptionV3's 1×7 / 7×1)
    are supported, which is exactly why the paper switched its backend
    from Darknet to LibTorch.
    """

    name: str
    in_channels: int
    out_channels: int
    kernel_size: _Size2
    stride: _Size2 = (1, 1)
    padding: _Size2 = (0, 0)
    activation: str = "relu"  # "relu" | "leaky_relu" | "relu6" | "linear"
    batch_norm: bool = False
    bias: bool = True
    groups: int = 1  # groups == in_channels -> depthwise (MobileNet)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel_size", _pair(self.kernel_size))
        object.__setattr__(self, "stride", _pair(self.stride))
        object.__setattr__(self, "padding", _pair(self.padding))
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError(f"{self.name}: channels must be positive")
        if min(self.kernel_size) <= 0 or min(self.stride) <= 0:
            raise ValueError(f"{self.name}: kernel and stride must be positive")
        if min(self.padding) < 0:
            raise ValueError(f"{self.name}: padding must be non-negative")
        if self.activation not in ("relu", "leaky_relu", "relu6", "linear"):
            raise ValueError(f"{self.name}: unknown activation {self.activation!r}")
        if self.groups < 1:
            raise ValueError(f"{self.name}: groups must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"{self.name}: groups={self.groups} must divide both channel counts"
            )

    @property
    def kind(self) -> str:
        return "conv"

    def out_spatial(self, in_hw: _Size2) -> _Size2:
        return (
            out_size(in_hw[0], self.kernel_size[0], self.stride[0], self.padding[0]),
            out_size(in_hw[1], self.kernel_size[1], self.stride[1], self.padding[1]),
        )

    @property
    def weight_count(self) -> int:
        """Number of parameters the layer is held as: conv weights plus
        one bias vector if it has a bias or batch norm (batch norm is
        folded into the weight and bias, :mod:`repro.nn.weights`)."""
        kh, kw = self.kernel_size
        count = self.out_channels * (self.in_channels // self.groups) * kh * kw
        if self.bias or self.batch_norm:
            count += self.out_channels
        return count


@dataclass(frozen=True)
class PoolSpec:
    """A pooling layer (max or average); channel count is preserved."""

    name: str
    channels: int
    kernel_size: _Size2 = (2, 2)
    stride: _Size2 = (2, 2)
    padding: _Size2 = (0, 0)
    kind_: str = field(default="max")  # "max" | "avg"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel_size", _pair(self.kernel_size))
        object.__setattr__(self, "stride", _pair(self.stride))
        object.__setattr__(self, "padding", _pair(self.padding))
        if self.channels <= 0:
            raise ValueError(f"{self.name}: channels must be positive")
        if self.kind_ not in ("max", "avg"):
            raise ValueError(f"{self.name}: unknown pool kind {self.kind_!r}")

    @property
    def kind(self) -> str:
        return "pool"

    @property
    def in_channels(self) -> int:
        return self.channels

    @property
    def out_channels(self) -> int:
        return self.channels

    def out_spatial(self, in_hw: _Size2) -> _Size2:
        return (
            out_size(in_hw[0], self.kernel_size[0], self.stride[0], self.padding[0]),
            out_size(in_hw[1], self.kernel_size[1], self.stride[1], self.padding[1]),
        )


@dataclass(frozen=True)
class DenseSpec:
    """A fully-connected layer; only appears in a model's *head*.

    Heads run unsplit on the stage device that stitches the final
    feature map — the paper observes FC layers contribute < 1 % of the
    compute of VGG16 / YOLOv2.
    """

    name: str
    in_features: int
    out_features: int
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.in_features <= 0 or self.out_features <= 0:
            raise ValueError(f"{self.name}: feature counts must be positive")
        if self.activation not in ("relu", "linear", "softmax"):
            raise ValueError(f"{self.name}: unknown activation {self.activation!r}")

    @property
    def kind(self) -> str:
        return "dense"

    @property
    def weight_count(self) -> int:
        return self.in_features * self.out_features + self.out_features


SpatialLayer = Union[ConvSpec, PoolSpec]


def conv3x3(name: str, cin: int, cout: int, **kwargs) -> ConvSpec:
    """Shorthand for the ubiquitous 3×3 / stride 1 / pad 1 convolution."""
    return ConvSpec(name, cin, cout, kernel_size=3, stride=1, padding=1, **kwargs)


def conv1x1(name: str, cin: int, cout: int, **kwargs) -> ConvSpec:
    """Shorthand for a pointwise 1×1 convolution."""
    return ConvSpec(name, cin, cout, kernel_size=1, stride=1, padding=0, **kwargs)


def maxpool2(name: str, channels: int) -> PoolSpec:
    """Shorthand for the standard 2×2 / stride 2 max-pool."""
    return PoolSpec(name, channels, kernel_size=2, stride=2, kind_="max")
