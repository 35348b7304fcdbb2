"""Unit tests for the 1-NN classifier and DistanceSpec."""

import pytest

from repro.classify.knn import DistanceSpec, OneNearestNeighbor
from repro.core.window import band_from_fraction
from repro.datasets.gestures import gesture_dataset
from repro.index import build_index
from tests.conftest import make_series


class TestDistanceSpec:
    def test_cdtw_requires_window(self):
        with pytest.raises(ValueError, match="window"):
            DistanceSpec("cdtw")

    def test_fastdtw_requires_radius(self):
        with pytest.raises(ValueError, match="radius"):
            DistanceSpec("fastdtw")

    def test_euclidean_rejects_window(self):
        with pytest.raises(ValueError):
            DistanceSpec("euclidean", window=0.1)

    def test_cdtw_rejects_radius(self):
        with pytest.raises(ValueError):
            DistanceSpec("cdtw", window=0.1, radius=2)

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            DistanceSpec("dtaidistance")

    def test_describe_paper_notation(self):
        assert DistanceSpec("cdtw", window=0.1).describe() == "cDTW_10"
        assert DistanceSpec("fastdtw", radius=20).describe() == "FastDTW_20"
        assert DistanceSpec("euclidean").describe() == "Euclidean"
        assert DistanceSpec("dtw").describe() == "Full DTW"


class TestClassifier:
    @pytest.fixture
    def tiny_task(self):
        # two trivially separable classes
        low = [[0.0 + 0.01 * i for i in range(10)] for _ in range(3)]
        high = [[5.0 + 0.01 * i for i in range(10)] for _ in range(3)]
        return low + high, ["low"] * 3 + ["high"] * 3

    @pytest.mark.parametrize("spec", [
        DistanceSpec("euclidean"),
        DistanceSpec("cdtw", window=0.1),
        DistanceSpec("cdtw", window=0.1, use_lower_bounds=True),
        DistanceSpec("dtw"),
        DistanceSpec("fastdtw", radius=2),
    ])
    def test_separable_task_perfect(self, tiny_task, spec):
        series, labels = tiny_task
        clf = OneNearestNeighbor(spec).fit(series, labels)
        assert clf.predict_one([0.2] * 10) == "low"
        assert clf.predict_one([4.9] * 10) == "high"

    def test_predict_batch(self, tiny_task):
        series, labels = tiny_task
        clf = OneNearestNeighbor(DistanceSpec("euclidean"))
        clf.fit(series, labels)
        assert clf.predict([[0.0] * 10, [5.0] * 10]) == ["low", "high"]

    def test_error_rate(self, tiny_task):
        series, labels = tiny_task
        clf = OneNearestNeighbor(DistanceSpec("euclidean"))
        clf.fit(series, labels)
        assert clf.error_rate(series, labels) == 0.0
        flipped = ["high" if l == "low" else "low" for l in labels]
        assert clf.error_rate(series, flipped) == 1.0

    def test_exclude_supports_loocv(self, tiny_task):
        series, labels = tiny_task
        clf = OneNearestNeighbor(DistanceSpec("euclidean"))
        clf.fit(series, labels)
        # excluding the identical self still classifies correctly here
        assert clf.predict_one(series[0], exclude=0) == "low"

    def test_unfitted_rejected(self):
        clf = OneNearestNeighbor(DistanceSpec("euclidean"))
        with pytest.raises(ValueError, match="not fitted"):
            clf.predict_one([1.0])

    def test_fit_validates_lengths(self):
        clf = OneNearestNeighbor(DistanceSpec("euclidean"))
        with pytest.raises(ValueError):
            clf.fit([[1.0]], ["a", "b"])

    def test_lb_accelerated_agrees_with_plain(self):
        data = gesture_dataset(
            n_classes=3, per_class=4, length=40, seed=2, name="t"
        )
        series = [list(s) for s in data.series]
        labels = list(data.labels)
        plain = OneNearestNeighbor(
            DistanceSpec("cdtw", window=0.1)
        ).fit(series, labels)
        fast = OneNearestNeighbor(
            DistanceSpec("cdtw", window=0.1, use_lower_bounds=True)
        ).fit(series, labels)
        queries = [make_series(40, s) for s in range(5)]
        assert plain.predict(queries) == fast.predict(queries)

    def test_cells_accumulate(self, tiny_task):
        series, labels = tiny_task
        clf = OneNearestNeighbor(DistanceSpec("cdtw", window=0.2))
        clf.fit(series, labels)
        clf.predict_one([0.0] * 10)
        assert clf.cells_evaluated > 0


class TestExcludeValidation:
    """``predict_one(exclude=)`` takes a training index or ``None`` on
    every route: anything else is a ``ValueError``, never an
    ``IndexError`` from the cascade or an exclusion that silently
    drops nothing."""

    SERIES = [make_series(10, seed) for seed in range(6)]
    LABELS = ["a", "b", "c", "d", "e", "f"]
    ROUTES = ("full-scan", "cascade", "indexed")

    def classifier(self, route):
        spec = DistanceSpec(
            "cdtw", window=0.2, use_lower_bounds=route != "full-scan",
        )
        index = (
            build_index(self.SERIES, band_from_fraction(0.2, 10))
            if route == "indexed" else None
        )
        return OneNearestNeighbor(spec, index=index).fit(
            self.SERIES, self.LABELS
        )

    @pytest.mark.parametrize("exclude", [6, 99, -1])
    @pytest.mark.parametrize("route", ROUTES)
    def test_out_of_range_rejected(self, route, exclude):
        clf = self.classifier(route)
        with pytest.raises(ValueError, match="exclude"):
            clf.predict_one(self.SERIES[0], exclude=exclude)

    @pytest.mark.parametrize("route", ROUTES)
    def test_last_index_excludes_the_query_copy(self, route):
        # the query is training series 5: excluded, its own label
        # cannot win at distance 0, and every route agrees
        want = self.classifier("full-scan").predict_one(
            self.SERIES[5], exclude=5
        )
        assert want != "f"
        got = self.classifier(route).predict_one(self.SERIES[5], exclude=5)
        assert got == want


class TestWindowBuiltOnce:
    """The cascade's exact stage runs many DPs over one lattice shape;
    the memoised band window is built once for all of them."""

    def test_loocv_builds_its_band_window_once(self, monkeypatch):
        from repro.core.window import Window
        from repro.obs import RunTrace

        data = gesture_dataset(
            n_classes=4, per_class=6, length=128, warp_fraction=0.04,
            seed=3,
        )
        series = [list(s) for s in data.series]
        clf = OneNearestNeighbor(
            DistanceSpec("cdtw", window=0.04, use_lower_bounds=True)
        ).fit(series, data.labels)
        builds = []
        original = Window.__post_init__

        def counting(self):
            builds.append((self.n, self.m))
            original(self)

        monkeypatch.setattr(Window, "__post_init__", counting)
        with RunTrace() as trace:
            for i, s in enumerate(series):
                clf.predict_one(s, exclude=i)
        assert trace.counter("dp.calls") >= len(series)
        # at most once: an earlier test may already have built it
        assert builds in ([], [(128, 128)])
