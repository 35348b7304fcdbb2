"""Unit tests for the distance-matrix utility."""

import pytest

from repro.core.cdtw import cdtw
from repro.core.dtw import dtw
from repro.core.matrix import MEASURES, distance_matrix
from tests.conftest import make_series, make_vectors


@pytest.fixture(scope="module")
def series():
    return [make_series(16, s) for s in range(5)]


@pytest.fixture(scope="module")
def vector_series():
    return [make_vectors(16, 3, s) for s in range(5)]


class TestDistanceMatrix:
    def test_shape_and_symmetry(self, series):
        m = distance_matrix(series, measure="dtw")
        assert len(m) == 5
        for i in range(5):
            assert m[i, i] == 0.0
            for j in range(5):
                assert m[i, j] == m[j, i]

    def test_entries_match_direct_calls(self, series):
        m = distance_matrix(series, measure="cdtw", band=2)
        for i in range(5):
            for j in range(i + 1, 5):
                assert m[i, j] == pytest.approx(
                    cdtw(series[i], series[j], band=2).distance
                )

    @pytest.mark.parametrize("measure", MEASURES)
    def test_all_measures_run(self, series, vector_series, measure):
        from repro.core.measures import ND_MEASURES

        kwargs = {}
        if measure in ("cdtw", "cdtw_d", "cdtw_i"):
            kwargs["band"] = 2
        if measure.startswith("fastdtw"):
            kwargs["radius"] = 2
        data = vector_series if measure in ND_MEASURES else series
        m = distance_matrix(data, measure=measure, **kwargs)
        assert len(m) == 5

    def test_cells_accumulated(self, series):
        m = distance_matrix(series, measure="dtw")
        pairs = 5 * 4 // 2
        assert m.cells == pairs * dtw(series[0], series[1]).cells

    def test_euclidean_zero_cells(self, series):
        assert distance_matrix(series, measure="euclidean").cells == 0

    def test_nearest_to(self, series):
        near = [v + 0.01 for v in series[0]]
        m = distance_matrix(series + [near], measure="dtw")
        assert m.nearest_to(0) == 5
        assert m.nearest_to(5) == 0

    def test_as_lists_mutable_copy(self, series):
        m = distance_matrix(series, measure="euclidean")
        lists = m.as_lists()
        lists[0][1] = -1.0
        assert m[0, 1] != -1.0

    def test_feeds_linkage(self, series):
        from repro.cluster.linkage import linkage

        m = distance_matrix(series, measure="cdtw", window=0.2)
        merges = linkage(m.as_lists())
        assert len(merges) == 4

    def test_unknown_measure_rejected(self, series):
        with pytest.raises(ValueError, match="unknown measure"):
            distance_matrix(series, measure="edr")

    def test_needs_two_series(self):
        with pytest.raises(ValueError, match="two series"):
            distance_matrix([make_series(5, 0)])
