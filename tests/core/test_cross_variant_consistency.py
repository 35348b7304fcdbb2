"""Cross-variant consistency: all implementations tell one story.

The package ships several routes to (approximately) the same quantity:
the pure engine, the NumPy backend, the naive reference, two FastDTWs,
the multivariate lift and the downsampling baseline.  These tests pin
the relationships between them on shared inputs, under both cost
conventions -- the safety net that lets any one implementation be
refactored against the others.
"""

import math

import pytest

from repro.core.cdtw import cdtw
from repro.core.downsample_dtw import downsampled_dtw
from repro.core.dtw import dtw
from repro.core.euclidean import euclidean
from repro.core.fastdtw import fastdtw
from repro.core.fastdtw_reference import fastdtw_reference
from repro.core.multivariate import cdtw_nd, dtw_nd
from repro.core.naive import naive_dtw
from repro.core.numpy_backend import dtw_chunk
from repro.core.window import Window
from tests.conftest import make_series

COSTS = ["squared", "abs"]
SEEDS = list(range(6))


@pytest.fixture(scope="module")
def pairs():
    return [
        (make_series(24, s), make_series(24, s + 3000)) for s in SEEDS
    ]


class TestExactRoutesAgree:
    @pytest.mark.parametrize("cost", COSTS)
    def test_engine_vs_naive_vs_numpy(self, pairs, cost):
        import numpy as np

        for x, y in pairs:
            a = dtw(x, y, cost=cost).distance
            b = naive_dtw(x, y, cost=cost)
            c = float(dtw_chunk(
                np.array([x]), np.array([y]), Window.full(len(x), len(y)),
                cost=cost,
            )[0])
            assert a == pytest.approx(b, abs=1e-9)
            assert a == pytest.approx(c, abs=1e-9)

    @pytest.mark.parametrize("cost", COSTS)
    def test_scalar_vs_multivariate_dim1(self, pairs, cost):
        for x, y in pairs:
            vx = [(v,) for v in x]
            vy = [(v,) for v in y]
            assert dtw_nd(vx, vy, cost=cost).distance == pytest.approx(
                dtw(x, y, cost=cost).distance
            )
            assert cdtw_nd(vx, vy, band=3, cost=cost).distance == (
                pytest.approx(cdtw(x, y, band=3, cost=cost).distance)
            )

    @pytest.mark.parametrize("cost", COSTS)
    def test_downsample_factor1_is_exact(self, pairs, cost):
        for x, y in pairs:
            assert downsampled_dtw(
                x, y, factor=1, cost=cost
            ).distance == pytest.approx(dtw(x, y, cost=cost).distance)


class TestApproximateRoutesBounded:
    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("radius", [0, 2, 5])
    def test_both_fastdtws_upper_bound_exact(self, pairs, cost, radius):
        for x, y in pairs:
            exact = dtw(x, y, cost=cost).distance
            opt = fastdtw(x, y, radius=radius, cost=cost).distance
            ref = fastdtw_reference(x, y, radius=radius,
                                    cost=cost).distance
            assert opt >= exact - 1e-9
            assert ref >= exact - 1e-9

    @pytest.mark.parametrize("cost", COSTS)
    def test_both_fastdtws_converge_together(self, pairs, cost):
        for x, y in pairs:
            exact = dtw(x, y, cost=cost).distance
            big = max(len(x), len(y))
            assert fastdtw(
                x, y, radius=big, cost=cost
            ).distance == pytest.approx(exact)
            assert fastdtw_reference(
                x, y, radius=big, cost=cost
            ).distance == pytest.approx(exact)


class TestOrderings:
    @pytest.mark.parametrize("cost", COSTS)
    def test_distance_hierarchy(self, pairs, cost):
        # full DTW <= any banded <= Euclidean, under both costs
        for x, y in pairs:
            full = dtw(x, y, cost=cost).distance
            ed = euclidean(x, y, cost=cost)
            for band in (0, 2, 6, 24):
                banded = cdtw(x, y, band=band, cost=cost).distance
                assert full - 1e-9 <= banded <= ed + 1e-9

    def test_abs_vs_squared_scale_relationship(self, pairs):
        # no fixed ordering exists between the two conventions, but
        # both must be zero together and positive together
        for x, y in pairs:
            sq = dtw(x, y, cost="squared").distance
            ab = dtw(x, y, cost="abs").distance
            assert (sq == 0.0) == (ab == 0.0)
            assert sq >= 0 and ab >= 0

    def test_identity_across_all_variants(self):
        x = make_series(32, 77)
        vx = [(v,) for v in x]
        assert dtw(x, x).distance == 0.0
        assert cdtw(x, x, band=2).distance == 0.0
        assert fastdtw(x, x, radius=1).distance == 0.0
        assert fastdtw_reference(x, x, radius=1).distance == 0.0
        assert dtw_nd(vx, vx).distance == 0.0
        assert downsampled_dtw(x, x, factor=4).distance == 0.0


class TestCellAccountingConsistency:
    def test_every_variant_reports_cells(self, pairs):
        x, y = pairs[0]
        assert dtw(x, y).cells == 24 * 24
        assert cdtw(x, y, band=2).cells > 0
        assert fastdtw(x, y, radius=2).cells > 0
        assert fastdtw_reference(x, y, radius=2).cells > 0
        assert downsampled_dtw(x, y, factor=2).cells == 12 * 12

    def test_cell_ordering_tracks_window_sizes(self, pairs):
        x, y = pairs[1]
        assert (
            cdtw(x, y, band=0).cells
            < cdtw(x, y, band=4).cells
            < dtw(x, y).cells
        )
