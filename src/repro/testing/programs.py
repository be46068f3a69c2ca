"""The memoised tile-program caches of :mod:`repro.nn.tiles`, seen and
reset from the tests that count their hits and misses."""

from __future__ import annotations

from typing import Dict

from repro.nn.tiles import (
    _compile_block_paths_cached,
    _compile_channel_slice_cached,
    _compile_segment_cached,
)

__all__ = ["clear_program_cache", "program_cache_info"]


def program_cache_info() -> "Dict[str, object]":
    """Hit/miss statistics for the program caches."""
    return {
        "segment": _compile_segment_cached.cache_info(),
        "block_paths": _compile_block_paths_cached.cache_info(),
        "channel_slice": _compile_channel_slice_cached.cache_info(),
    }


def clear_program_cache() -> None:
    """Drop all memoised programs (frees the model references too)."""
    _compile_segment_cached.cache_clear()
    _compile_block_paths_cached.cache_clear()
    _compile_channel_slice_cached.cache_clear()
