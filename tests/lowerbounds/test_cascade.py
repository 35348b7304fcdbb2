"""Unit tests for the lower-bound cascade's stage list."""

import math

import pytest

from repro.core.cdtw import cdtw
from repro.lowerbounds.cascade import CascadeBatch, CascadeStats
from tests.conftest import make_series


class TestCascadeDistance:
    def test_exact_when_not_pruned(self):
        q = make_series(20, 1)
        c = make_series(20, 2)
        scan = CascadeBatch([c], band=3).scan(q)
        d = scan.distance(0)  # best_so_far = inf, nothing prunes
        assert d == pytest.approx(cdtw(q, c, band=3).distance)

    def test_pruned_returns_inf(self):
        q = [0.0] * 20
        c = [100.0] * 20
        scan = CascadeBatch([c], band=2).scan(q)
        assert scan.distance(0, best_so_far=1.0) == math.inf

    def test_pruning_is_sound(self):
        # pruned candidates must truly exceed the threshold
        q = make_series(15, 3)
        cands = [make_series(15, seed + 2000) for seed in range(20)]
        scan = CascadeBatch(cands, band=2).scan(q)
        for j, c in enumerate(cands):
            true = cdtw(q, c, band=2).distance
            threshold = true * 0.9
            d = scan.distance(j, best_so_far=threshold)
            if d == math.inf:
                assert true > threshold

    def test_length_mismatch_rejected(self):
        batch = CascadeBatch([[1.0]], band=1)
        with pytest.raises(ValueError):
            batch.scan([1.0, 2.0])

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            CascadeBatch([[1.0, 2.0]], band=-1)

    def test_stats_accumulate(self):
        q = make_series(12, 5)
        cands = [make_series(12, seed + 3000) for seed in range(8)]
        scan = CascadeBatch(cands, band=1).scan(q)
        for j in range(len(cands)):
            scan.distance(j, best_so_far=0.01)
        s = scan.stats
        assert s.candidates == 8
        assert s.pruned_total() + s.full_dtw == 8

    def test_cells_tracked(self):
        q = make_series(12, 6)
        scan = CascadeBatch([make_series(12, 7)], band=2).scan(q)
        scan.distance(0)
        assert scan.stats.cells > 0


class TestCascadeNearest:
    def test_matches_brute_force(self):
        q = make_series(16, 11)
        candidates = [make_series(16, s + 100) for s in range(12)]
        hit = CascadeBatch(candidates, band=2).nearest(q)

        brute = min(
            range(12), key=lambda i: cdtw(q, candidates[i], band=2).distance
        )
        assert hit.index == brute
        assert hit.distance == pytest.approx(
            cdtw(q, candidates[brute], band=2).distance
        )

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            CascadeBatch([], band=0)

    def test_prunes_most_on_easy_workload(self):
        # one near-identical candidate among far-away ones: after the
        # close match is found, the rest should be pruned cheaply
        q = make_series(24, 13)
        near = [v + 0.01 for v in q]
        far = [[v + 50.0 for v in make_series(24, s)] for s in range(20)]
        hit = CascadeBatch([near] + far, band=2).nearest(q)
        assert hit.index == 0
        assert hit.stats.prune_rate() > 0.5


class TestCascadeStats:
    def test_prune_rate_empty(self):
        assert CascadeStats().prune_rate() == 0.0
