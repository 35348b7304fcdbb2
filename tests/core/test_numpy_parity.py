"""Bit-exact parity: the NumPy kernels against the pure engine.

The registry's contract is stronger than "numerically close": every
distance a stacked DP kernel returns must be *bit-identical* to
:func:`repro.core.engine.dp_over_window`, and a one-pair stack -- the
numpy backend's plain per-pair distance -- evaluates the window's
cells exactly as the engine counts them.  That is what lets every
repeated-use consumer switch backends without its results moving at
all.  These tests fuzz that claim across window shapes (band 0 / 5% /
full / Itakura), both built-in costs, unequal lengths and degenerate
shapes.  Paths and abandon decisions need no parity suite: they come
from the engine on every backend.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.engine import dp_over_window
from repro.runtime import Runtime
from repro.core.numpy_backend import dtw_chunk
from repro.core.window import Window

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


def one_pair(x, y, win, cost="squared"):
    return float(dtw_chunk(np.array([x]), np.array([y]), win, cost=cost)[0])


class TestDistanceAndCells:
    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_bitwise_equal(self, cost, kind):
        for seed, (n, m) in enumerate(SHAPES):
            x, y = walk(seed, n), walk(seed + 100, m)
            win = make_window(n, m, kind)
            pure = dp_over_window(x, y, win, cost=cost)
            assert one_pair(x, y, win, cost) == pure.distance, (seed, n, m)
            assert win.cell_count() == pure.cells

    def test_itakura_window(self):
        for seed in range(4):
            n = 40
            x, y = walk(seed, n), walk(seed + 50, n)
            win = Window.itakura(n, n)
            pure = dp_over_window(x, y, win)
            assert one_pair(x, y, win) == pure.distance
            assert win.cell_count() == pure.cells


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
            one_pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], bad)


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
