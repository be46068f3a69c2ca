"""Dependency-free helpers shared across subpackages."""

from __future__ import annotations

__all__ = ["nearest_rank", "out_size"]


def out_size(in_size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a conv/pool along one axis (floor mode)."""
    if in_size + 2 * padding < kernel:
        raise ValueError(
            f"input size {in_size} with padding {padding} smaller than kernel {kernel}"
        )
    return (in_size + 2 * padding - kernel) // stride + 1


def nearest_rank(values, q: float) -> float:
    """Percentile ``q`` in [0, 100] of ``values`` by nearest rank (0.0
    when there are none)."""
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q / 100 * (len(ordered) - 1)))))
    return ordered[rank]
