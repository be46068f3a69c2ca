"""Model graphs: chains of *plan units*.

The paper plans over a chain of units.  For plain CNNs (VGG16, YOLOv2)
each unit is a single conv/pool layer.  For graph CNNs (ResNet34,
InceptionV3) each multi-path block is treated as one *special layer*
(paper §IV-B): the planner never cuts inside a block, and the block's
input partition is the union of the partitions required by its paths.

A :class:`Model` is therefore always a linear chain of units, possibly
followed by a dense *head* (flatten + fully-connected layers) that runs
unsplit on the final stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.models.layers import ConvSpec, DenseSpec, PoolSpec, SpatialLayer

__all__ = ["LayerUnit", "BlockUnit", "PlanUnit", "Model", "LayerInfo", "chain_model"]

_Shape3 = Tuple[int, int, int]  # (C, H, W)
_Size2 = Tuple[int, int]

Chain = Tuple[SpatialLayer, ...]


def _chain_out(chain: Chain, in_channels: int, in_hw: _Size2) -> "Tuple[int, _Size2]":
    """Propagate (channels, spatial) through a chain of spatial layers."""
    channels, hw = in_channels, in_hw
    for layer in chain:
        if layer.in_channels != channels:
            raise ValueError(
                f"layer {layer.name}: expects {layer.in_channels} channels, "
                f"got {channels}"
            )
        hw = layer.out_spatial(hw)
        channels = layer.out_channels
    return channels, hw


def _chain_stride(chain: Chain) -> _Size2:
    sv = sh = 1
    for layer in chain:
        sv *= layer.stride[0]
        sh *= layer.stride[1]
    return (sv, sh)


@dataclass(frozen=True)
class LayerUnit:
    """A plan unit wrapping a single conv or pool layer."""

    layer: SpatialLayer

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def kind(self) -> str:
        return self.layer.kind

    @property
    def in_channels(self) -> int:
        return self.layer.in_channels

    def out_channels(self, in_channels: int) -> int:
        return self.layer.out_channels

    def out_spatial(self, in_hw: _Size2) -> _Size2:
        return self.layer.out_spatial(in_hw)

    def paths(self) -> "Tuple[Chain, ...]":
        return ((self.layer,),)

    @property
    def merge(self) -> Optional[str]:
        return None

    def total_stride(self, in_channels: int, in_hw: _Size2) -> _Size2:
        return self.layer.stride


@dataclass(frozen=True)
class BlockUnit:
    """A multi-path block (residual / inception) treated as one unit.

    ``paths`` is a tuple of layer chains; an *empty* chain denotes the
    identity shortcut.  All paths must produce the same spatial size and
    the same cumulative stride.  ``merge`` is ``"add"`` (residual; all
    paths must agree on channels) or ``"concat"`` (inception; output
    channels are the sum over paths).
    """

    name: str
    paths: "Tuple[Chain, ...]"
    merge: str  # "add" | "concat"
    post_activation: str = "linear"  # applied after the merge (ResNet: relu)

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(tuple(p) for p in self.paths))
        if not self.paths:
            raise ValueError(f"block {self.name}: needs at least one path")
        if self.merge not in ("add", "concat"):
            raise ValueError(f"block {self.name}: unknown merge {self.merge!r}")
        if self.post_activation not in ("relu", "leaky_relu", "linear"):
            raise ValueError(
                f"block {self.name}: unknown post_activation {self.post_activation!r}"
            )
        if all(len(p) == 0 for p in self.paths):
            raise ValueError(f"block {self.name}: all paths are identity")

    @property
    def kind(self) -> str:
        return "block"

    @property
    def in_channels(self) -> int:
        for path in self.paths:
            if path:
                return path[0].in_channels
        raise AssertionError("unreachable: validated in __post_init__")

    def out_channels(self, in_channels: int) -> int:
        per_path = []
        for path in self.paths:
            per_path.append(path[-1].out_channels if path else in_channels)
        if self.merge == "add":
            if len(set(per_path)) != 1:
                raise ValueError(
                    f"block {self.name}: add-merge paths disagree on channels "
                    f"{per_path}"
                )
            return per_path[0]
        return sum(per_path)

    def out_spatial(self, in_hw: _Size2) -> _Size2:
        sizes = set()
        for path in self.paths:
            _, hw = _chain_out(path, self.in_channels if path else 0, in_hw) if path else (0, in_hw)
            sizes.add(hw)
        if len(sizes) != 1:
            raise ValueError(f"block {self.name}: paths disagree on spatial size {sizes}")
        return sizes.pop()

    def total_stride(self, in_channels: int, in_hw: _Size2) -> _Size2:
        strides = {(_chain_stride(p) if p else (1, 1)) for p in self.paths}
        if len(strides) != 1:
            raise ValueError(
                f"block {self.name}: paths disagree on cumulative stride {strides}"
            )
        return strides.pop()


PlanUnit = Union[LayerUnit, BlockUnit]


@dataclass(frozen=True)
class LayerInfo:
    """A flattened view of one concrete layer inside a model.

    ``unit_index`` locates the owning plan unit; ``path_index`` is None
    for chain layers and the path position for block internals.
    """

    layer: SpatialLayer
    unit_index: int
    path_index: Optional[int]
    in_shape: _Shape3
    out_shape: _Shape3


@dataclass(frozen=True)
class Model:
    """An immutable CNN description: input shape, unit chain, dense head."""

    name: str
    input_shape: _Shape3
    units: "Tuple[PlanUnit, ...]"
    head: "Tuple[DenseSpec, ...]" = ()
    # Per-unit boundary shapes, derived in __post_init__:
    #   shapes[i] is the input shape of unit i; shapes[n_units] is the
    #   final feature-map shape.
    shapes: "Tuple[_Shape3, ...]" = field(default=(), init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "head", tuple(self.head))
        if not self.units:
            raise ValueError(f"model {self.name}: needs at least one unit")
        shapes = [self.input_shape]
        channels, hw = self.input_shape[0], self.input_shape[1:]
        for unit in self.units:
            if unit.in_channels != channels:
                raise ValueError(
                    f"model {self.name}: unit {unit.name} expects "
                    f"{unit.in_channels} channels, got {channels}"
                )
            hw = unit.out_spatial(hw)
            channels = unit.out_channels(shapes[-1][0])
            shapes.append((channels, hw[0], hw[1]))
        object.__setattr__(self, "shapes", tuple(shapes))
        if self.head:
            c, h, w = shapes[-1]
            if self.head[0].in_features != c * h * w:
                raise ValueError(
                    f"model {self.name}: head expects {self.head[0].in_features} "
                    f"features, final map has {c * h * w}"
                )
            feats = self.head[0].out_features
            for dense in self.head[1:]:
                if dense.in_features != feats:
                    raise ValueError(
                        f"model {self.name}: dense {dense.name} expects "
                        f"{dense.in_features} features, got {feats}"
                    )
                feats = dense.out_features

    @property
    def n_units(self) -> int:
        return len(self.units)

    def __len__(self) -> int:
        return len(self.units)

    def in_shape(self, unit_index: int) -> _Shape3:
        """Input feature-map shape of unit ``unit_index``."""
        return self.shapes[unit_index]

    def out_shape(self, unit_index: int) -> _Shape3:
        """Output feature-map shape of unit ``unit_index``."""
        return self.shapes[unit_index + 1]

    @property
    def final_shape(self) -> _Shape3:
        return self.shapes[-1]

    def iter_layers(self) -> Iterator[LayerInfo]:
        """Yield every concrete layer (block internals included) with shapes."""
        for idx, unit in enumerate(self.units):
            cin, h, w = self.in_shape(idx)
            if isinstance(unit, LayerUnit):
                oh, ow = unit.layer.out_spatial((h, w))
                yield LayerInfo(
                    unit.layer, idx, None, (cin, h, w),
                    (unit.layer.out_channels, oh, ow),
                )
            else:
                for p_idx, path in enumerate(unit.paths):
                    channels, hw = cin, (h, w)
                    for layer in path:
                        ohw = layer.out_spatial(hw)
                        yield LayerInfo(
                            layer, idx, p_idx, (channels, hw[0], hw[1]),
                            (layer.out_channels, ohw[0], ohw[1]),
                        )
                        channels, hw = layer.out_channels, ohw

    def describe(self) -> str:
        """Human-readable architecture summary."""
        lines = [f"{self.name}  input={self.input_shape}"]
        for idx, unit in enumerate(self.units):
            lines.append(
                f"  [{idx:2d}] {unit.name:<24s} {unit.kind:<5s} "
                f"{self.in_shape(idx)} -> {self.out_shape(idx)}"
            )
        for dense in self.head:
            lines.append(
                f"       {dense.name:<24s} dense {dense.in_features} -> "
                f"{dense.out_features}"
            )
        return "\n".join(lines)


def chain_model(
    name: str,
    input_shape: _Shape3,
    layers: "Sequence[SpatialLayer]",
    head: "Sequence[DenseSpec]" = (),
) -> Model:
    """Build a plain chain model where every layer is its own plan unit."""
    return Model(name, input_shape, tuple(LayerUnit(l) for l in layers), tuple(head))
