"""Unit tests for the batch engine's moving parts."""

from __future__ import annotations

import pytest

from repro.batch import (
    BatchExecutor,
    BatchSpec,
    all_pairs,
    argmin_first,
    batch_distances,
    batch_lb_keogh,
)
from repro.core.cdtw import cdtw
from repro.core.dtw import dtw
from repro.lowerbounds.envelope import envelope
from repro.lowerbounds.lb_keogh import lb_keogh
from tests.conftest import make_series


class TestHelpers:
    def test_all_pairs_lexicographic(self):
        assert all_pairs(4) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]
        assert all_pairs(0) == []
        assert all_pairs(1) == []
        with pytest.raises(ValueError):
            all_pairs(-1)

    def test_argmin_first(self):
        assert argmin_first([2.0]) == (0, 2.0)
        assert argmin_first([5.0, 1.0, 1.0]) == (1, 1.0)
        assert argmin_first([1.0, 1.0, 0.5]) == (2, 0.5)
        with pytest.raises(ValueError):
            argmin_first([])


class TestBatchSpec:
    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            BatchSpec(measure="manhattan")

    def test_make_fn_matches_direct_calls(self):
        x = make_series(20, seed=1)
        y = make_series(20, seed=2)
        fn = BatchSpec(measure="cdtw", band=3).make_fn()
        assert fn(x, y).distance == cdtw(x, y, band=3).distance


class TestBatchDistances:
    def test_default_pairs_are_all_pairs(self):
        series = [make_series(12, seed=s) for s in range(4)]
        result = batch_distances(series, measure="dtw")
        assert result.pairs == tuple(all_pairs(4))
        assert len(result) == 6

    def test_matches_direct_dtw_calls(self):
        series = [make_series(15, seed=s) for s in range(3)]
        result = batch_distances(series, measure="dtw")
        for (i, j), d, c in zip(
            result.pairs, result.distances, result.cells_per_pair
        ):
            direct = dtw(series[i], series[j])
            assert d == direct.distance
            assert c == direct.cells
        assert result.cells == sum(result.cells_per_pair)

    def test_return_paths(self):
        series = [make_series(10, seed=s) for s in range(3)]
        serial = batch_distances(
            series, measure="cdtw", band=2, return_paths=True
        )
        parallel = batch_distances(
            series, measure="cdtw", band=2, return_paths=True, workers=2
        )
        assert serial.paths is not None
        assert len(serial.paths) == len(serial)
        for p, q in zip(serial.paths, parallel.paths):
            assert list(p) == list(q)
        # paths off by default
        assert batch_distances(series, measure="dtw").paths is None

    def test_euclidean_paths_are_none(self):
        series = [make_series(8, seed=s) for s in range(2)]
        result = batch_distances(
            series, measure="euclidean", return_paths=True
        )
        assert result.paths == (None,)

    def test_validation(self):
        series = [make_series(8, seed=s) for s in range(3)]
        with pytest.raises(ValueError, match="workers"):
            batch_distances(series, workers=0)
        with pytest.raises(ValueError, match="at least one series"):
            batch_distances([], measure="dtw")
        with pytest.raises(ValueError, match="out of range"):
            batch_distances(series, pairs=[(0, 3)], measure="dtw")
        with pytest.raises(ValueError, match="out of range"):
            batch_distances(series, pairs=[(-1, 0)], measure="dtw")
        with pytest.raises(ValueError, match="unknown measure"):
            batch_distances(series, measure="nope")

    def test_worker_error_propagates(self):
        # unequal lengths are a per-pair error; it must surface from
        # the pool, not hang or vanish
        series = [make_series(8, seed=0), make_series(9, seed=1)]
        with pytest.raises(ValueError):
            batch_distances(series, measure="euclidean", workers=2)

    def test_normalize_uses_znorm_cache(self):
        series = [make_series(10, seed=s) for s in range(4)]
        result = batch_distances(
            series, measure="euclidean", normalize=True
        )
        # 6 pairs touch 12 series slots but only 4 distinct series:
        # 4 misses, 8 hits
        assert result.cache.znorm_misses == 4
        assert result.cache.znorm_hits == 8

    def test_cache_stats_merge_across_workers(self):
        series = [make_series(10, seed=s) for s in range(5)]
        result = batch_distances(
            series, measure="euclidean", normalize=True, workers=2
        )
        stats = result.cache
        # every pair resolves two series; totals must add up exactly
        # even though hits/misses happened in different processes
        assert stats.znorm_hits + stats.znorm_misses == 2 * len(result)
        # each worker misses each distinct series at most once
        assert stats.znorm_misses <= 2 * len(series)

    def test_spawn_start_method_works(self):
        series = [make_series(10, seed=s) for s in range(3)]
        serial = batch_distances(series, measure="dtw")
        with BatchExecutor(workers=2, cap=None, start_method="spawn",
                           use_shm=False) as exe:
            spawned = batch_distances(series, measure="dtw", executor=exe)
        assert spawned.distances == serial.distances


class TestBatchLbKeogh:
    def test_matches_direct_lb_keogh(self):
        series = [make_series(20, seed=s) for s in range(4)]
        band = 3
        result = batch_lb_keogh(series, band=band)
        for (i, j), bound in zip(result.pairs, result.distances):
            env = envelope(series[i], band)
            assert bound == lb_keogh(env, series[j])

    def test_envelopes_computed_once_per_series(self):
        series = [make_series(20, seed=s) for s in range(5)]
        result = batch_lb_keogh(series, band=2)
        # 10 pairs need 10 query envelopes but only 4 distinct
        # queries appear on the left of some pair (series 4 never
        # does); the cache must collapse the rest
        assert result.cache.envelope_misses == 4
        assert result.cache.envelope_hits == 6

    def test_lower_bounds_the_banded_dtw(self):
        series = [make_series(25, seed=s) for s in range(4)]
        band = 4
        bounds = batch_lb_keogh(series, band=band)
        exact = batch_distances(series, measure="cdtw", band=band)
        for bound, distance in zip(bounds.distances, exact.distances):
            assert bound <= distance + 1e-9

    def test_parallel_identical_and_no_cells(self):
        series = [make_series(16, seed=s) for s in range(6)]
        serial = batch_lb_keogh(series, band=2)
        parallel = batch_lb_keogh(series, band=2, workers=4)
        assert serial.distances == parallel.distances
        assert serial.cells == parallel.cells == 0

    def test_validation(self):
        series = [make_series(8, seed=0)]
        with pytest.raises(ValueError, match="band"):
            batch_lb_keogh(series, band=-1)
        with pytest.raises(ValueError, match="workers"):
            batch_lb_keogh(series, band=1, workers=0)
