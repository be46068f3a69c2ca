"""SegmentProgram compile cache: identity hits, statistics, clearing,
and equality with the uncached compilers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.toy import toy_chain
from repro.nn import tiles
from repro.partition.regions import Region
from repro.testing.programs import clear_program_cache, program_cache_info


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_program_cache()
    yield
    clear_program_cache()


@pytest.fixture
def model():
    return toy_chain(4, 1, input_hw=32, in_channels=2)


def _region(model):
    _, h, w = model.final_shape
    return Region.from_bounds(0, h // 2, 0, w)


class TestSegmentCache:
    def test_returns_identical_object(self, model):
        region = _region(model)
        first = tiles.compile_segment_cached(model, 0, model.n_units, region)
        second = tiles.compile_segment_cached(model, 0, model.n_units, region)
        assert second is first

    def test_equal_key_built_fresh_still_hits(self, model):
        """Keys are structural: a region built from the same bounds (not
        the same object) must hit, as must an equal model spec."""
        first = tiles.compile_segment_cached(model, 0, 2, _region(model))
        info0 = program_cache_info()["segment"]
        again = tiles.compile_segment_cached(
            toy_chain(4, 1, input_hw=32, in_channels=2), 0, 2, _region(model)
        )
        info1 = program_cache_info()["segment"]
        assert again is first
        assert info1.hits == info0.hits + 1
        assert info1.misses == info0.misses

    def test_matches_uncached_compiler(self, model):
        region = _region(model)
        cached = tiles.compile_segment_cached(model, 0, model.n_units, region)
        uncached = tiles.compile_segment(model, 0, model.n_units, region)
        assert cached.input_region == uncached.input_region
        assert len(cached.units) == len(uncached.units)

    def test_distinct_keys_miss(self, model):
        _, h, w = model.final_shape
        tiles.compile_segment_cached(model, 0, 2, _region(model))
        tiles.compile_segment_cached(
            model, 0, 2, Region.from_bounds(0, max(1, h // 4), 0, w)
        )
        info = program_cache_info()["segment"]
        assert info.misses == 2

    def test_clear(self, model):
        region = _region(model)
        first = tiles.compile_segment_cached(model, 0, 2, region)
        clear_program_cache()
        info = program_cache_info()["segment"]
        assert info.currsize == 0
        second = tiles.compile_segment_cached(model, 0, 2, region)
        assert second is not first


class TestBlockPathCache:
    def test_block_paths_cached(self):
        from tests.test_branch_runtime import inception_like_model

        model = inception_like_model()
        first = tiles.compile_block_paths_cached(model, 1, (0, 2))
        # list input normalises to the same tuple key
        second = tiles.compile_block_paths_cached(model, 1, [0, 2])
        assert second is first
        info = program_cache_info()["block_paths"]
        assert info.hits >= 1 and info.misses == 1


class TestExecutionThroughCache:
    def test_cached_program_runs_exact(self, model):
        from repro.nn.executor import Engine

        engine = Engine(model, seed=0)
        x = (
            np.random.default_rng(0)
            .standard_normal(model.input_shape)
            .astype(np.float32)
        )
        full = engine.forward_features(x)
        region = _region(model)
        program = tiles.compile_segment_cached(model, 0, model.n_units, region)
        tile = tiles.extract_tile(x, program.input_region)
        out = tiles.run_segment(engine, program, tile)
        np.testing.assert_array_equal(
            out, full[:, region.rows.start : region.rows.end]
        )
