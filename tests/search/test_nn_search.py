"""Unit tests for 1-NN search strategies."""

import pytest

from repro.core.cdtw import cdtw
from repro.core.euclidean import euclidean
from repro.core.fastdtw import fastdtw
from repro.search.nn_search import STRATEGIES, nearest_neighbor
from tests.conftest import make_series


@pytest.fixture
def workload():
    query = make_series(20, 0)
    candidates = [make_series(20, s + 10) for s in range(10)]
    # plant an obvious nearest neighbour
    candidates[4] = [v + 0.001 for v in query]
    return query, candidates


class TestStrategiesAgree:
    def test_exact_strategies_identical(self, workload):
        query, candidates = workload
        plain = nearest_neighbor(query, candidates, "cdtw", band=3)
        cascaded = nearest_neighbor(query, candidates, "cdtw+lb", band=3)
        assert plain.index == cascaded.index
        assert plain.distance == pytest.approx(cascaded.distance)

    def test_all_strategies_find_planted_neighbor(self, workload):
        query, candidates = workload
        for strategy in STRATEGIES:
            kwargs = {}
            if strategy.startswith("cdtw"):
                kwargs["band"] = 3
            if strategy == "fastdtw":
                kwargs["radius"] = 3
            res = nearest_neighbor(query, candidates, strategy, **kwargs)
            assert res.index == 4, strategy


class TestCorrectness:
    def test_cdtw_matches_brute_force(self, workload):
        query, candidates = workload
        res = nearest_neighbor(query, candidates, "cdtw", band=2)
        brute = min(
            range(len(candidates)),
            key=lambda i: cdtw(query, candidates[i], band=2).distance,
        )
        assert res.index == brute

    def test_euclidean_matches_brute_force(self, workload):
        query, candidates = workload
        res = nearest_neighbor(query, candidates, "euclidean")
        brute = min(
            range(len(candidates)),
            key=lambda i: euclidean(query, candidates[i]),
        )
        assert res.index == brute

    def test_fastdtw_matches_its_own_brute_force(self, workload):
        query, candidates = workload
        res = nearest_neighbor(query, candidates, "fastdtw", radius=2)
        brute = min(
            range(len(candidates)),
            key=lambda i: fastdtw(query, candidates[i], radius=2).distance,
        )
        assert res.index == brute


class TestWork:
    def test_cascade_does_less_cell_work(self, workload):
        query, candidates = workload
        plain = nearest_neighbor(query, candidates, "cdtw", band=3)
        cascaded = nearest_neighbor(query, candidates, "cdtw+lb", band=3)
        assert cascaded.cells <= plain.cells

    def test_cascade_reports_stats(self, workload):
        query, candidates = workload
        res = nearest_neighbor(query, candidates, "cdtw+lb", band=3)
        assert res.stats is not None
        assert res.stats.candidates == len(candidates)

    def test_euclidean_reports_zero_cells(self, workload):
        query, candidates = workload
        assert nearest_neighbor(query, candidates, "euclidean").cells == 0


class TestValidation:
    def test_unknown_strategy(self, workload):
        query, candidates = workload
        with pytest.raises(ValueError, match="unknown strategy"):
            nearest_neighbor(query, candidates, "magic")

    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="no candidates"):
            nearest_neighbor([1.0], [], "euclidean")

    def test_cdtw_requires_band_or_window(self, workload):
        query, candidates = workload
        with pytest.raises(ValueError, match="exactly one"):
            nearest_neighbor(query, candidates, "cdtw")

    def test_window_out_of_range(self, workload):
        query, candidates = workload
        with pytest.raises(ValueError):
            nearest_neighbor(query, candidates, "cdtw", window=2.0)


class TestFractionBand:
    @pytest.mark.parametrize("strategy", ["cdtw", "cdtw+lb"])
    @pytest.mark.parametrize("window,n,band", [(0.07, 100, 7), (0.14, 50, 7)])
    def test_window_fraction_read_as_written(self, strategy, window, n,
                                             band):
        # window * n rounds above the integer band in binary floating
        # point; the search must still run band 7, not 8
        from repro.core.window import Window

        query = make_series(n, 1)
        candidates = [make_series(n, s + 30) for s in range(4)]
        by_window = nearest_neighbor(query, candidates, strategy,
                                     window=window)
        by_band = nearest_neighbor(query, candidates, strategy, band=band)
        assert (by_window.index, by_window.distance, by_window.cells) == (
            by_band.index, by_band.distance, by_band.cells
        )
        if strategy == "cdtw":
            per_pair = Window.band(n, n, band).cell_count()
            assert by_window.cells == len(candidates) * per_pair
