"""Strip partitioners for feature-map rows.

The paper (like MoDNN) partitions feature maps into horizontal strips.
Homogeneous stages use an equal split (§IV-A1); heterogeneous stages use
a capacity-weighted *divide-and-conquer* split (Algorithm 2, line 10).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.partition.regions import Interval, Region

__all__ = [
    "check_tiling",
    "equal_partition",
    "weighted_partition",
    "strip_regions",
    "weighted_strips",
]


def equal_partition(length: int, parts: int) -> "List[Interval]":
    """Split ``[0, length)`` into ``parts`` contiguous intervals whose
    sizes differ by at most one.  If ``parts > length`` the surplus
    intervals are empty (a device with an empty strip simply idles)."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    if length < 0:
        raise ValueError("length must be non-negative")
    base, extra = divmod(length, parts)
    intervals = []
    pos = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        intervals.append(Interval(pos, pos + size))
        pos += size
    return intervals


def weighted_partition(length: int, weights: "Sequence[float]") -> "List[Interval]":
    """Capacity-weighted divide-and-conquer split (paper Algorithm 2).

    Recursively halves the device list at the point that balances total
    weight, splitting the row range proportionally; degenerates to the
    proportional split for power-of-two groups but matches the paper's
    construction exactly.
    """
    if not weights:
        raise ValueError("weights must be non-empty")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    result: "List[Interval]" = [Interval(0, 0)] * len(weights)

    def solve(lo: int, hi: int, start: int, end: int) -> None:
        n = hi - lo
        if n == 1:
            result[lo] = Interval(start, end)
            return
        total = sum(weights[lo:hi])
        if total == 0:
            parts = equal_partition(end - start, n)
            for i, iv in enumerate(parts):
                result[lo + i] = iv.shift(start)
            return
        # Balance point: first split with left weight >= half, but keep
        # at least one device on each side.
        mid = lo + 1
        acc = weights[lo]
        while mid < hi - 1 and acc < total / 2:
            acc += weights[mid]
            mid += 1
        left_weight = sum(weights[lo:mid])
        cut = start + round((end - start) * left_weight / total)
        cut = max(start, min(end, cut))
        solve(lo, mid, start, cut)
        solve(mid, hi, cut, end)

    solve(0, len(weights), 0, length)
    return result


def strip_regions(height: int, width: int, rows: "Sequence[Interval]") -> "List[Region]":
    """Lift row intervals into full-width regions of an ``H×W`` map."""
    if any(iv.end > height for iv in rows):
        raise ValueError("row interval exceeds map height")
    return [Region(iv, Interval(0, width)) for iv in rows]


def weighted_strips(height: int, width: int, devices: "Sequence") -> "Tuple":
    """The capacity-weighted strip realization of a stage: one
    ``(device, full-width Region)`` pair per device, in the given order,
    rows split by :func:`weighted_partition` over the devices'
    ``capacity`` (surplus devices get empty regions).  Every planner
    that materialises a heterogeneous strip stage goes through here."""
    rows = weighted_partition(height, [d.capacity for d in devices])
    return tuple(zip(devices, strip_regions(height, width, rows)))


def check_tiling(intervals: "Sequence[Tuple[int, int]]", length: int) -> None:
    """Raise ``ValueError`` unless the non-empty half-open ``(lo, hi)``
    intervals tile ``[0, length)`` exactly — no gap, overlap or overrun.
    The one validity check of a channel-parallel (IOP) stage's slices,
    shared by the cost model and the stage compiler."""
    covered = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    edges = [0] + [hi for _, hi in covered]
    if [lo for lo, _ in covered] != edges[:-1] or edges[-1] != length:
        raise ValueError(f"intervals {covered} must tile [0, {length}) exactly")
