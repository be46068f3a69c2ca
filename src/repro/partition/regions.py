"""Region algebra for feature-map partitioning.

Feature maps are ``(C, H, W)`` tensors.  A *region* is an axis-aligned
rectangle of the spatial plane, represented with half-open intervals.
Cooperative inference assigns each device a region of a layer's *output*
feature map; computing it requires a (generally larger, overlapping)
region of the *input* feature map — the receptive field.

The paper's Eq. (3) gives the simplified receptive-field recurrence

    h_i = (h_{i+1} - 1) * s_{i+1} + k_{i+1}

which ignores padding and border clipping.  This module implements the
exact arithmetic: intervals are back-propagated through conv/pool layers
in *padded* coordinates, then clipped to the real map bounds, recording
how much virtual zero padding each side of the extracted tile needs.
Region-restricted execution built on these primitives is bit-exact with
full-map inference (see :mod:`repro.nn.tiles`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import out_size

__all__ = [
    "Interval",
    "Region",
    "PaddedInterval",
    "PaddedRegion",
    "EMPTY_INTERVAL",
    "receptive_interval",
    "receptive_region",
    "owned_interval",
    "out_size",
]


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open integer interval ``[start, end)``.

    ``start == end`` denotes the empty interval.  Intervals are ordered
    lexicographically, which gives a stable sort for partitions.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} < start {self.start}")

    def __len__(self) -> int:
        return self.end - self.start

    @property
    def empty(self) -> bool:
        return self.end == self.start

    def shift(self, offset: int) -> "Interval":
        """Translate by ``offset``."""
        return Interval(self.start + offset, self.end + offset)

    def clip(self, lo: int, hi: int) -> "Interval":
        """Intersect with ``[lo, hi)``; an empty result collapses to ``[lo, lo)``."""
        start = max(self.start, lo)
        end = min(self.end, hi)
        if end < start:
            start = end = lo
        return Interval(start, end)

    def intersect(self, other: "Interval") -> "Interval":
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end < start:
            start = end = 0
        return Interval(start, end)

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (empty operands are ignored)."""
        if self.empty:
            return other
        if other.empty:
            return self
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def contains(self, other: "Interval") -> bool:
        return other.empty or (self.start <= other.start and other.end <= self.end)

    def overlap(self, other: "Interval") -> int:
        """Number of indices shared with ``other``."""
        return max(0, min(self.end, other.end) - max(self.start, other.start))


EMPTY_INTERVAL = Interval(0, 0)


@dataclass(frozen=True)
class Region:
    """A rectangular spatial region: a row interval × a column interval."""

    rows: Interval
    cols: Interval

    @classmethod
    def full(cls, height: int, width: int) -> "Region":
        return cls(Interval(0, height), Interval(0, width))

    @classmethod
    def from_bounds(cls, r0: int, r1: int, c0: int, c1: int) -> "Region":
        return cls(Interval(r0, r1), Interval(c0, c1))

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.cols)

    @property
    def area(self) -> int:
        return self.height * self.width

    @property
    def empty(self) -> bool:
        return self.area == 0

    def intersect(self, other: "Region") -> "Region":
        return Region(self.rows.intersect(other.rows), self.cols.intersect(other.cols))

    def union_hull(self, other: "Region") -> "Region":
        return Region(
            self.rows.union_hull(other.rows), self.cols.union_hull(other.cols)
        )

    def contains(self, other: "Region") -> bool:
        return self.rows.contains(other.rows) and self.cols.contains(other.cols)

    def overlap_area(self, other: "Region") -> int:
        return self.rows.overlap(other.rows) * self.cols.overlap(other.cols)


@dataclass(frozen=True)
class PaddedInterval:
    """A clipped interval plus the virtual zero padding required per side.

    ``interval`` lies inside the real map bounds; ``pad_lo``/``pad_hi``
    give how many rows (or columns) of zeros must be prepended/appended
    to the extracted slice so that a padding-free convolution over the
    result produces exactly the requested output interval.
    """

    interval: Interval
    pad_lo: int
    pad_hi: int


@dataclass(frozen=True)
class PaddedRegion:
    """Two :class:`PaddedInterval` axes bundled as a rectangle."""

    rows: PaddedInterval
    cols: PaddedInterval

    @property
    def region(self) -> Region:
        return Region(self.rows.interval, self.cols.interval)


def receptive_interval(
    out: Interval, kernel: int, stride: int, padding: int, in_size: int
) -> PaddedInterval:
    """Exact receptive field of output interval ``out`` along one axis.

    Returns the input interval (clipped to ``[0, in_size)``) together
    with the amount of virtual zero padding each side of the tile needs.
    An empty output interval maps to an empty input interval.
    """
    if out.empty:
        return PaddedInterval(EMPTY_INTERVAL, 0, 0)
    # Receptive field in padded coordinates.
    lo_padded = out.start * stride
    hi_padded = (out.end - 1) * stride + kernel
    # Translate to unpadded coordinates and clip.  The window can fall
    # entirely inside the virtual padding when padding >= kernel — then
    # the clipped interval is empty and the whole tile is zeros.
    lo = lo_padded - padding
    hi = hi_padded - padding
    lo_c = min(max(lo, 0), in_size)
    hi_c = min(max(hi, 0), in_size)
    pad_lo = max(0, min(hi, 0) - lo)
    pad_hi = max(0, hi - max(lo, in_size))
    return PaddedInterval(Interval(lo_c, hi_c), pad_lo, pad_hi)


def receptive_region(
    out: Region,
    kernel: "tuple[int, int]",
    stride: "tuple[int, int]",
    padding: "tuple[int, int]",
    in_hw: "tuple[int, int]",
) -> PaddedRegion:
    """2-D counterpart of :func:`receptive_interval` (kernel/stride/padding
    are ``(vertical, horizontal)`` pairs, ``in_hw`` is ``(H, W)``)."""
    return PaddedRegion(
        receptive_interval(out.rows, kernel[0], stride[0], padding[0], in_hw[0]),
        receptive_interval(out.cols, kernel[1], stride[1], padding[1], in_hw[1]),
    )


def owned_interval(out: Interval, stride: int, in_size: int) -> Interval:
    """Stride-only projection of an output interval onto the input axis.

    This is the *owned* (non-redundant) share: projecting disjoint
    output intervals through strides alone yields disjoint input
    intervals, so anything a device reads beyond its owned projection is
    halo it shares with a neighbour.  Used for redundancy accounting
    (Table I / Fig. 13 of the paper).
    """
    if out.empty:
        return EMPTY_INTERVAL
    return Interval(out.start * stride, min(in_size, out.end * stride))
