"""The four rewired hot paths are workers-invariant end to end.

``distance_matrix``, 1-NN/LOOCV classification, ``nearest_neighbor``
and the clustering consumers (linkage matrices, DBA, k-means) all
accept ``runtime=Runtime(workers=N)``; each must return *identical*
results -- values, cell accounting, labels, merge structures,
tie-breaks -- for any worker count, because ``workers=1`` is the
serial reference.
"""

from __future__ import annotations

import pytest

from repro.classify.knn import (
    DistanceSpec,
    KNearestNeighbors,
    OneNearestNeighbor,
)
from repro.classify.loocv import best_window_search, loocv_error
from repro.cluster.dba import dba
from repro.cluster.kmeans import dtw_kmeans
from repro.cluster.linkage import linkage, linkage_from_series
from repro.core.matrix import distance_matrix
from repro.core.measures import MEASURES, ND_MEASURES
from repro.runtime import Runtime
from repro.search.nn_search import nearest_neighbor
from tests.conftest import make_series, make_vectors

MATRIX_KWARGS = {
    "dtw": {},
    "cdtw": {"window": 0.2},
    "fastdtw": {"radius": 1},
    "fastdtw_reference": {"radius": 1},
    "euclidean": {},
    "rle_dtw": {},
    "dtw_d": {},
    "cdtw_d": {"window": 0.2},
    "dtw_i": {},
    "cdtw_i": {"window": 0.2},
}


def labelled_set(count=8, length=24, seed=100):
    series = [make_series(length, seed=seed + i) for i in range(count)]
    labels = ["odd" if i % 2 else "even" for i in range(count)]
    return series, labels


class TestDistanceMatrix:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_workers_invariant(self, measure):
        if measure in ND_MEASURES:
            series = [make_vectors(20, 2, seed=s) for s in range(6)]
        else:
            series = [make_series(20, seed=s) for s in range(6)]
        serial = distance_matrix(
            series, measure=measure, **MATRIX_KWARGS[measure]
        )
        parallel = distance_matrix(
            series, measure=measure, runtime=Runtime(workers=2),
            **MATRIX_KWARGS[measure],
        )
        assert serial == parallel  # values, measure and cells


class TestClassification:
    @pytest.mark.parametrize("spec", [
        DistanceSpec("euclidean"),
        DistanceSpec("dtw"),
        DistanceSpec("cdtw", window=0.15),
        DistanceSpec("fastdtw", radius=1),
        DistanceSpec("fastdtw_reference", radius=1),
        DistanceSpec("rle_dtw"),
    ], ids=lambda s: s.describe())
    def test_1nn_labels_and_cells(self, spec):
        series, labels = labelled_set()
        queries = [make_series(24, seed=900 + i) for i in range(3)]
        serial = OneNearestNeighbor(spec).fit(series, labels)
        parallel = OneNearestNeighbor(
            spec, runtime=Runtime(workers=2)
        ).fit(series, labels)
        assert serial.predict(queries) == parallel.predict(queries)
        assert serial.cells_evaluated == parallel.cells_evaluated

    def test_1nn_tie_break_on_duplicate_training_series(self):
        base = make_series(20, seed=4)
        other = make_series(20, seed=5)
        # two identical nearest candidates with different labels: the
        # first must win, serially and in parallel
        series = [list(base), list(base), other]
        labels = ["first", "second", "far"]
        query = [v + 0.01 for v in base]
        spec = DistanceSpec("dtw")
        serial = OneNearestNeighbor(spec).fit(series, labels)
        parallel = OneNearestNeighbor(
            spec, runtime=Runtime(workers=3)
        ).fit(series, labels)
        assert serial.predict_one(query) == "first"
        assert parallel.predict_one(query) == "first"

    def test_knn_votes(self):
        series, labels = labelled_set()
        query = make_series(24, seed=999)
        spec = DistanceSpec("cdtw", window=0.2)
        serial = KNearestNeighbors(spec, k=3).fit(series, labels)
        parallel = KNearestNeighbors(
            spec, k=3, runtime=Runtime(workers=2)
        ).fit(series, labels)
        assert serial.predict_one(query) == parallel.predict_one(query)

    def test_loocv_error(self):
        series, labels = labelled_set(count=6)
        spec = DistanceSpec("cdtw", window=0.1)
        assert loocv_error(series, labels, spec) == loocv_error(
            series, labels, spec, runtime=Runtime(workers=2)
        )

    def test_best_window_search(self):
        series, labels = labelled_set(count=5, length=16)
        windows = (0.0, 0.1, 0.2)
        serial = best_window_search(
            series, labels, windows=windows, use_lower_bounds=False
        )
        parallel = best_window_search(
            series, labels, windows=windows, use_lower_bounds=False,
            runtime=Runtime(workers=2),
        )
        assert serial == parallel

    def test_lower_bound_cascade_ignores_workers(self):
        # the cascade is sequential by design; workers must neither
        # crash it nor change its (already exact) answer
        series, labels = labelled_set(count=6)
        spec = DistanceSpec("cdtw", window=0.1, use_lower_bounds=True)
        serial = OneNearestNeighbor(spec).fit(series, labels)
        parallel = OneNearestNeighbor(
            spec, runtime=Runtime(workers=2)
        ).fit(series, labels)
        query = make_series(24, seed=901)
        assert serial.predict_one(query) == parallel.predict_one(query)
        assert serial.cells_evaluated == parallel.cells_evaluated


class TestNnSearch:
    @pytest.mark.parametrize("strategy,kwargs", [
        ("cdtw", {"band": 3}),
        ("cdtw", {"window": 0.2}),
        ("fastdtw", {"radius": 1}),
        ("euclidean", {}),
    ])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_full_strategies_workers_invariant(
        self, strategy, kwargs, workers
    ):
        query = make_series(22, seed=50)
        candidates = [make_series(22, seed=60 + i) for i in range(7)]
        serial = nearest_neighbor(query, candidates, strategy=strategy,
                                  **kwargs)
        parallel = nearest_neighbor(
            query, candidates, strategy=strategy,
            runtime=Runtime(workers=workers), **kwargs,
        )
        assert serial.index == parallel.index
        assert serial.distance == parallel.distance
        assert serial.cells == parallel.cells

    def test_cdtw_lb_falls_back_to_serial(self):
        query = make_series(22, seed=50)
        candidates = [make_series(22, seed=60 + i) for i in range(7)]
        serial = nearest_neighbor(query, candidates, strategy="cdtw+lb",
                                  band=3)
        parallel = nearest_neighbor(
            query, candidates, strategy="cdtw+lb", band=3,
            runtime=Runtime(workers=4),
        )
        assert serial.index == parallel.index
        assert serial.distance == parallel.distance
        assert serial.cells == parallel.cells
        assert parallel.stats is not None  # cascade stats still there

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            nearest_neighbor(
                [1.0, 2.0], [[1.0, 2.0]], strategy="euclidean",
                runtime=Runtime(workers=0),
            )


class TestClustering:
    def test_linkage_from_series_matches_manual_composition(self):
        series = [make_series(18, seed=200 + i) for i in range(5)]
        manual = linkage(
            distance_matrix(series, measure="cdtw", window=0.2).as_lists(),
            method="average",
        )
        for workers in (1, 2):
            merges = linkage_from_series(
                series, measure="cdtw", window=0.2, method="average",
                runtime=Runtime(workers=workers),
            )
            assert merges == manual

    def test_dba_workers_invariant(self):
        series = [make_series(20, seed=300 + i) for i in range(5)]
        parallel = Runtime(workers=2)
        assert dba(series, band=3) == dba(series, band=3, runtime=parallel)
        assert dba(series) == dba(series, runtime=parallel)  # full DTW too

    def test_kmeans_workers_invariant(self):
        series = [make_series(16, seed=400 + i) for i in range(8)]
        serial = dtw_kmeans(series, 3, band=2, seed=7)
        parallel = dtw_kmeans(
            series, 3, band=2, seed=7, runtime=Runtime(workers=2)
        )
        assert serial == parallel

    def test_workers_validation(self):
        series = [make_series(10, seed=1) for _ in range(3)]
        with pytest.raises(ValueError, match="workers"):
            dba(series, runtime=Runtime(workers=0))
        with pytest.raises(ValueError, match="workers"):
            dtw_kmeans(series, 2, runtime=Runtime(workers=0))
