"""The owned (stride-only) projection of a whole unit segment: the
segment-level composition of the production
:func:`repro.partition.fused.unit_owned_input`, against which the tests
check the halo'd input regions."""

from __future__ import annotations

from repro.models.graph import Model
from repro.partition.fused import unit_owned_input
from repro.partition.regions import Region

__all__ = ["segment_owned_region"]


def segment_owned_region(
    model: Model, start: int, end: int, out_region: Region
) -> Region:
    """Owned projection across a unit segment (cf. redundancy metrics)."""
    if not 0 <= start < end <= model.n_units:
        raise ValueError(f"bad segment [{start}, {end}) for {model.n_units} units")
    region = out_region
    for idx in range(end - 1, start - 1, -1):
        _, h, w = model.in_shape(idx)
        region = unit_owned_input(model.units[idx], (h, w), region)
    return region
