"""Bit-exact parity: the NumPy kernels against the pure engine.

The registry's contract is stronger than "numerically close": for the
DP kernels, distances, cell counts, recovered paths (including the
diagonal-preference tie-breaking) and early-abandon decisions must be
*bit-identical* to :func:`repro.core.engine.dp_over_window`.  That is
what lets every repeated-use consumer switch backends without its
results moving at all.  These tests fuzz that claim across window
shapes (band 0 / 5% / full / Itakura), both built-in costs, unequal
lengths and degenerate shapes.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.engine import dp_over_window
from repro.runtime import Runtime
from repro.core.numpy_backend import dtw_chunk, dtw_numpy
from repro.core.window import Window
from repro.lowerbounds.envelope import envelope
from repro.search.cumulative import suffix_gap_bounds

COSTS = ("squared", "abs")
BAND_KINDS = ("zero", "five_percent", "full")


def walk(seed, n):
    rng = random.Random(seed)
    v, out = 0.0, []
    for _ in range(n):
        v += rng.uniform(-1.0, 1.0)
        out.append(v)
    return out


def make_window(n, m, kind):
    if kind == "zero":
        return Window.band(n, m, 0)
    if kind == "five_percent":
        return Window.band(n, m, max(1, round(0.05 * max(n, m))))
    return Window.full(n, m)


SHAPES = [(30, 30), (25, 31), (1, 7), (9, 1), (2, 2), (64, 64)]


class TestDistanceAndCells:
    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_bitwise_equal(self, cost, kind):
        for seed, (n, m) in enumerate(SHAPES):
            x, y = walk(seed, n), walk(seed + 100, m)
            win = make_window(n, m, kind)
            pure = dp_over_window(x, y, win, cost=cost)
            vect = dtw_numpy(x, y, window=win, cost=cost)
            assert vect.distance == pure.distance, (seed, n, m)
            assert vect.cells == pure.cells

    def test_itakura_window(self):
        for seed in range(4):
            n = 40
            x, y = walk(seed, n), walk(seed + 50, n)
            win = Window.itakura(n, n)
            pure = dp_over_window(x, y, win)
            vect = dtw_numpy(x, y, window=win)
            assert vect.distance == pure.distance
            assert vect.cells == pure.cells


class TestPathRecovery:
    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_paths_identical(self, cost, kind):
        for seed, (n, m) in enumerate(SHAPES):
            x, y = walk(seed + 7, n), walk(seed + 200, m)
            win = make_window(n, m, kind)
            pure = dp_over_window(x, y, win, cost=cost, return_path=True)
            vect = dtw_numpy(
                x, y, window=win, cost=cost, return_path=True
            )
            assert vect.path == pure.path
            assert vect.distance == pure.distance

    def test_tie_breaking_on_constant_series(self):
        # every cell costs 0, so every backtrack step is a tie: the
        # diagonal-preference rule alone determines the path
        x = [1.0] * 12
        y = [1.0] * 17
        for kind in BAND_KINDS:
            win = make_window(12, 17, kind)
            pure = dp_over_window(x, y, win, return_path=True)
            vect = dtw_numpy(x, y, window=win, return_path=True)
            assert vect.path == pure.path

    def test_tie_breaking_on_repeating_pattern(self):
        x = [0.0, 1.0] * 8
        y = [1.0, 0.0] * 8
        win = Window.band(16, 16, 3)
        pure = dp_over_window(x, y, win, return_path=True)
        vect = dtw_numpy(x, y, window=win, return_path=True)
        assert vect.path == pure.path


class TestAbandoning:
    @pytest.mark.parametrize("fraction", (0.05, 0.3, 0.8, 1.0, 1.5))
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_abandon_decision_and_cells(self, fraction, kind):
        for seed in range(6):
            n = 40
            x, y = walk(seed + 11, n), walk(seed + 300, n)
            win = make_window(n, n, kind)
            true_d = dp_over_window(x, y, win).distance
            threshold = true_d * fraction
            pure = dp_over_window(x, y, win, abandon_above=threshold)
            vect = dtw_numpy(x, y, window=win, abandon_above=threshold)
            assert vect.abandoned == pure.abandoned, (seed, fraction)
            assert vect.distance == pure.distance
            assert vect.cells == pure.cells

    @pytest.mark.parametrize("fraction", (0.1, 0.6, 1.2))
    def test_suffix_bound_parity(self, fraction):
        band = 3
        for seed in range(6):
            n = 36
            x, y = walk(seed + 21, n), walk(seed + 400, n)
            win = Window.band(n, n, band)
            env = envelope(y, band)
            suffix = suffix_gap_bounds(x, env)
            true_d = dp_over_window(x, y, win).distance
            threshold = true_d * fraction
            pure = dp_over_window(
                x, y, win, abandon_above=threshold, suffix_bound=suffix
            )
            vect = dtw_numpy(
                x, y, window=win, abandon_above=threshold,
                suffix_bound=suffix,
            )
            assert vect.abandoned == pure.abandoned
            assert vect.distance == pure.distance
            assert vect.cells == pure.cells


class TestBatchKernel:
    @pytest.mark.parametrize("cost", COSTS)
    def test_batch_equals_engine_per_pair(self, cost):
        n = 50
        xs = [walk(s, n) for s in range(6)]
        ys = [walk(s + 500, n) for s in range(6)]
        win = Window.band(n, n, 4)
        batch = dtw_chunk(np.array(xs), np.array(ys), win, cost=cost)
        for x, y, d in zip(xs, ys, batch):
            assert float(d) == dp_over_window(x, y, win, cost=cost).distance

    def test_batch_full_window(self):
        n = 30
        xs = [walk(s + 31, n) for s in range(4)]
        ys = [walk(s + 600, n) for s in range(4)]
        win = Window.full(n, n)
        batch = dtw_chunk(np.array(xs), np.array(ys), win)
        for x, y, d in zip(xs, ys, batch):
            assert float(d) == dp_over_window(x, y, win).distance


class TestWindowValidation:
    def test_row0_excluding_origin_raises(self):
        # sparse FastDTW-refinement windows can exclude (0, 0); the
        # pure engine cannot seed row 0 there and neither can we --
        # previously this silently treated (0, lo) as a path start
        bad = SimpleNamespace(
            n=3, m=3, ranges=((1, 2), (1, 2), (2, 2)),
            cell_count=lambda: 6,
        )
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            dtw_numpy([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], window=bad)

    def test_window_band_mutually_exclusive(self):
        with pytest.raises(ValueError):
            dtw_numpy(
                [1.0, 2.0], [1.0, 2.0],
                window=Window.full(2, 2), band=1,
            )


class TestConsumerEquivalence:
    """Backend switches must not move consumer-level results."""

    def test_knn_labels_and_cells(self):
        from repro.classify.knn import DistanceSpec, OneNearestNeighbor

        series = [walk(s, 24) for s in range(10)]
        labels = [s % 2 for s in range(10)]
        queries = [walk(s + 900, 24) for s in range(4)]
        outcomes = []
        for backend in ("python", "numpy"):
            clf = OneNearestNeighbor(
                DistanceSpec("cdtw", window=0.2, backend=backend)
            ).fit(series, labels)
            outcomes.append((clf.predict(queries), clf.cells_evaluated))
        assert outcomes[0] == outcomes[1]

    def test_nn_search_cascade(self):
        from repro.search.nn_search import nearest_neighbor

        series = [walk(s + 40, 32) for s in range(12)]
        q = walk(999, 32)
        results = [
            nearest_neighbor(
                q, series, strategy="cdtw+lb", window=0.1,
                runtime=Runtime(backend=backend),
            )
            for backend in ("python", "numpy")
        ]
        assert results[0].index == results[1].index
        assert results[0].distance == results[1].distance

    def test_cumulative_abandon(self):
        from repro.search.cumulative import cdtw_cumulative_abandon

        x, y = walk(5, 30), walk(505, 30)
        base = cdtw_cumulative_abandon(x, y, band=3, threshold=1e9)
        for threshold in (base.distance * 0.5, base.distance * 2.0):
            pure = cdtw_cumulative_abandon(x, y, band=3,
                                           threshold=threshold)
            vect = cdtw_cumulative_abandon(
                x, y, band=3, threshold=threshold,
                runtime=Runtime(backend="numpy"),
            )
            assert vect.distance == pure.distance
            assert vect.abandoned == pure.abandoned
            assert vect.cells == pure.cells

    def test_dba_and_kmeans(self):
        from repro.cluster.dba import dba
        from repro.cluster.kmeans import dtw_kmeans

        series = [walk(s + 60, 20) for s in range(6)]
        assert dba(series, band=2, max_iterations=2) == dba(
            series, band=2, max_iterations=2,
            runtime=Runtime(backend="numpy"),
        )
        assert dtw_kmeans(series, 2, band=2, max_iterations=2) == (
            dtw_kmeans(series, 2, band=2, max_iterations=2,
                       runtime=Runtime(backend="numpy"))
        )
