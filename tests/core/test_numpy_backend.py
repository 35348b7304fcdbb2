"""Cross-validation of the NumPy backend against the pure engine.

Spot checks with hand-picked shapes; the exhaustive fuzzing lives in
``test_numpy_parity.py``.
"""

import numpy as np
import pytest

from repro.core.cdtw import cdtw
from repro.core.dtw import dtw
from repro.core.numpy_backend import dtw_chunk, pairwise_matrix_numpy
from repro.core.window import Window
from tests.conftest import make_series


def one_pair(x, y, band=None, cost="squared"):
    """``(x, y)`` as a one-pair stack: the numpy per-pair distance."""
    xs, ys = np.array([x]), np.array([y])
    n, m = xs.shape[-1], ys.shape[-1]
    win = Window.full(n, m) if band is None else Window.band(n, m, band)
    return float(dtw_chunk(xs, ys, win, cost=cost)[0])


class TestDtwChunkOnePair:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_matches_engine(self, seed):
        x = make_series(15, seed)
        y = make_series(13, seed + 300)
        assert one_pair(x, y) == dtw(x, y).distance

    @pytest.mark.parametrize("band", [0, 1, 3, 8])
    def test_banded_matches_engine(self, band):
        for seed in range(5):
            x = make_series(16, seed)
            y = make_series(16, seed + 400)
            expected = cdtw(x, y, band=band)
            assert one_pair(x, y, band=band) == expected.distance
            assert Window.band(16, 16, band).cell_count() == expected.cells

    def test_abs_cost(self):
        x = make_series(12, 9)
        y = make_series(12, 10)
        assert one_pair(x, y, cost="abs") == dtw(x, y, cost="abs").distance

    def test_unequal_banded(self):
        x = make_series(10, 11)
        y = make_series(20, 12)
        assert one_pair(x, y, band=4) == cdtw(x, y, band=4).distance

    def test_callable_cost_rejected(self):
        with pytest.raises(ValueError, match="backend='python'"):
            one_pair(np.ones(4), np.ones(4), cost=lambda a, b: abs(a - b))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            dtw_chunk(np.zeros((1, 2, 2)), np.zeros((1, 3)),
                      Window.full(2, 3))

    def test_rejects_empty(self):
        # no window has a zero dimension, so an empty row never matches
        with pytest.raises(ValueError, match="series are 0x1"):
            dtw_chunk(np.empty((1, 0)), np.ones((1, 1)), Window.full(1, 1))


class TestPairwiseMatrix:
    def test_symmetric_zero_diagonal_with_cells(self):
        series = [make_series(10, s) for s in range(4)]
        m = pairwise_matrix_numpy(series, band=2)
        assert m.measure == "cdtw"
        k = len(series)
        for i in range(k):
            assert m[i, i] == 0.0
            for j in range(k):
                assert m[i, j] == m[j, i]
        expected_cells = sum(
            cdtw(series[i], series[j], band=2).cells
            for i in range(k) for j in range(i + 1, k)
        )
        assert m.cells == expected_cells

    def test_entries_match_single_calls(self):
        series = [make_series(10, s) for s in range(3)]
        m = pairwise_matrix_numpy(series)
        assert m.measure == "dtw"
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert m[i, j] == dtw(series[i], series[j]).distance

    def test_matches_distance_matrix(self):
        from repro.core.matrix import distance_matrix

        series = [make_series(12, s + 50) for s in range(4)]
        mine = pairwise_matrix_numpy(series, window=0.25)
        reference = distance_matrix(series, measure="cdtw", window=0.25)
        assert mine.values == reference.values
        assert mine.cells == reference.cells

    @pytest.mark.parametrize("cost", ["squared", "abs"])
    @pytest.mark.parametrize("config", [
        {}, {"band": 0}, {"band": 3}, {"window": 0.25},
    ], ids=["full", "band0", "band3", "window"])
    def test_cost_and_constraint_match_distance_matrix(self, cost, config):
        from repro.core.matrix import distance_matrix

        series = [make_series(12, s + 70) for s in range(4)]
        measure = "cdtw" if config else "dtw"
        mine = pairwise_matrix_numpy(series, cost=cost, **config)
        reference = distance_matrix(
            series, measure=measure, cost=cost, **config
        )
        assert mine.measure == measure
        assert mine.values == reference.values
        assert mine.cells == reference.cells

    def test_one_chunk_call_stacks_every_pair(self, monkeypatch):
        import repro.core.numpy_backend as nb

        real, rows = nb.dtw_chunk, []

        def spy(xs, ys, *args, **kwargs):
            rows.append(len(xs))
            return real(xs, ys, *args, **kwargs)

        monkeypatch.setattr(nb, "dtw_chunk", spy)
        series = [make_series(10, s + 90) for s in range(5)]
        pairwise_matrix_numpy(series, band=2)
        assert rows == [5 * 4 // 2]

    def test_entries_are_plain_floats(self):
        series = [make_series(10, s) for s in range(3)]
        m = pairwise_matrix_numpy(series, band=2)
        assert all(type(v) is float for row in m.values for v in row)

    def test_rejects_single_series(self):
        with pytest.raises(ValueError, match="two series"):
            pairwise_matrix_numpy([make_series(8, 0)])

    def test_rejects_callable_cost(self):
        series = [make_series(8, s) for s in range(3)]
        with pytest.raises(ValueError, match="backend='python'"):
            pairwise_matrix_numpy(series, cost=lambda a, b: abs(a - b))

    def test_rejects_window_and_band(self):
        series = [make_series(8, s) for s in range(3)]
        with pytest.raises(ValueError):
            pairwise_matrix_numpy(series, window=0.1, band=2)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="distance_matrix"):
            pairwise_matrix_numpy([[0.0, 1.0], [0.0, 1.0, 2.0]])
