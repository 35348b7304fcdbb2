"""Cross-validation of the NumPy backend against the pure engine.

Spot checks with hand-picked shapes; the exhaustive fuzzing lives in
``test_numpy_parity.py``.
"""

import numpy as np
import pytest

from repro.core.cdtw import cdtw
from repro.core.dtw import dtw
from repro.core.numpy_backend import dtw_chunk
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

    def test_rejects_mixed_ranks(self):
        # a (chunk, n, dims) stack against a (chunk, m) one
        with pytest.raises(ValueError, match="one rank"):
            dtw_chunk(np.zeros((1, 2, 2)), np.zeros((1, 3)),
                      Window.full(2, 3))

    def test_rejects_empty(self):
        # no window has a zero dimension, so an empty row never matches
        with pytest.raises(ValueError, match="series are 0x1"):
            dtw_chunk(np.empty((1, 0)), np.ones((1, 1)), Window.full(1, 1))
