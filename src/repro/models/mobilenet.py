"""MobileNetV2 (Sandler et al. 2018) — extension model.

The paper's introduction cites MobileNet-class networks as the
model-compression alternative to cooperative inference; including one
in the zoo lets the benchmarks show how PICO behaves on a network that
is *already* compute-light (communication dominates much earlier, so
the planner fuses more aggressively).  Inverted residual blocks are
:class:`BlockUnit`\\ s whose main path is expand (1×1) → depthwise 3×3 →
project (1×1, linear); blocks with stride 1 and equal channels get the
identity shortcut.
"""

from __future__ import annotations

from typing import List

from repro.models.graph import BlockUnit, LayerUnit, Model, PlanUnit
from repro.models.layers import ConvSpec, DenseSpec, PoolSpec

__all__ = ["mobilenet_v2", "inverted_residual"]

# (expansion t, output channels c, repeats n, first stride s)
_MOBILENETV2_STAGES = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def _bn_conv(name, cin, cout, kernel, stride=1, padding=0, groups=1,
             activation="relu6") -> ConvSpec:
    return ConvSpec(
        name, cin, cout, kernel_size=kernel, stride=stride, padding=padding,
        groups=groups, activation=activation, batch_norm=True, bias=False,
    )


def inverted_residual(
    name: str, cin: int, cout: int, stride: int, expand: int
) -> PlanUnit:
    """One MobileNetV2 bottleneck as a plan unit."""
    hidden = cin * expand
    main: "List[ConvSpec]" = []
    if expand != 1:
        main.append(_bn_conv(f"{name}.expand", cin, hidden, 1))
    main.append(
        _bn_conv(
            f"{name}.depthwise", hidden, hidden, 3, stride=stride, padding=1,
            groups=hidden,
        )
    )
    main.append(_bn_conv(f"{name}.project", hidden, cout, 1, activation="linear"))
    if stride == 1 and cin == cout:
        return BlockUnit(name, (tuple(main), ()), merge="add")
    # No shortcut: a plain chain — wrap it in a single-path "block"
    # only when needed; otherwise keep the layers as one unit by using
    # a BlockUnit with a single path (keeps planner granularity per
    # bottleneck, like the other graph CNNs).
    return BlockUnit(name, (tuple(main),), merge="concat")


def mobilenet_v2(input_hw: int = 224, num_classes: int = 1000) -> Model:
    """Build the MobileNetV2 architecture spec."""
    units: "List[PlanUnit]" = [
        LayerUnit(_bn_conv("stem", 3, 32, 3, stride=2, padding=1)),
    ]
    cin = 32
    for stage_idx, (t, c, n, s) in enumerate(_MOBILENETV2_STAGES, start=1):
        for block_idx in range(n):
            stride = s if block_idx == 0 else 1
            units.append(
                inverted_residual(
                    f"bottleneck{stage_idx}.{block_idx}", cin, c, stride, t
                )
            )
            cin = c
    units.append(LayerUnit(_bn_conv("head_conv", cin, 1280, 1)))
    probe = Model("probe", (3, input_hw, input_hw), tuple(units))
    _, fh, fw = probe.final_shape
    units.append(
        LayerUnit(PoolSpec("avgpool", 1280, kernel_size=(fh, fw), stride=1, kind_="avg"))
    )
    head = (DenseSpec("classifier", 1280, num_classes, activation="softmax"),)
    return Model("mobilenet_v2", (3, input_hw, input_hw), tuple(units), head)
