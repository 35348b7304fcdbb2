"""One per-pair DP engine: where each per-pair DP runs, per backend.

:func:`repro.core.kernels.stacked_kernels` is the rule.  A plain
per-pair distance on the numpy backend is a one-pair ``dtw_chunk``
call (a multivariate pair with a channel axis); every per-pair DP that
returns a path or may abandon runs the pure engine
(:func:`repro.core.engine.dp_over_window`) whatever the backend.  Spies on the engine's DP body and on the
stacked kernels count where each DP ran, the trace's ``dp.calls`` must
equal that count, and every answer must equal the python backend's.
"""

import pytest

import repro.core.engine as engine
import repro.core.numpy_backend as nb
from repro.classify.knn import DistanceSpec, OneNearestNeighbor
from repro.classify.learned_band import learn_band_radii, learned_band_dtw
from repro.cluster.dba import dba
from repro.core.kernels import get_kernels, stacked_kernels
from repro.core.measures import measure_fn
from repro.obs import RunTrace
from repro.runtime import Runtime
from repro.search.nn_search import nearest_neighbor
from repro.serve import QueryService
from tests.conftest import make_series, make_vectors

np = pytest.importorskip("numpy")

NUMPY = Runtime(backend="numpy")
PYTHON = Runtime(backend="python")


@pytest.fixture
def calls(monkeypatch):
    """Per-route DP call counts: ``engine`` (the pure DP body) and
    ``stacked`` (the numpy stacked kernels, one count per call)."""
    counts = {"engine": 0, "stacked": 0}

    def spy(real, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(
        engine, "_dp_over_window", spy(engine._dp_over_window, "engine")
    )
    # one stacked kernel for scalar and multivariate pairs alike
    monkeypatch.setattr(nb, "dtw_chunk", spy(nb.dtw_chunk, "stacked"))
    return counts


class TestRule:
    @pytest.mark.parametrize("abandon_above", [None, 1.0],
                             ids=["plain", "abandoning"])
    @pytest.mark.parametrize("return_path", [False, True],
                             ids=["distance", "path"])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_only_plain_numpy_distances_stack(
        self, backend, return_path, abandon_above
    ):
        picked = stacked_kernels(backend, return_path, abandon_above)
        if backend == "numpy" and not return_path and abandon_above is None:
            assert picked is get_kernels("numpy")
        else:
            assert picked is None


# -- exact stages: the cascade's abandoning DP ------------------------------

TRAIN = [make_series(32, 40 + s) for s in range(12)]
LABELS = [s % 3 for s in range(12)]
QUERY = make_series(32, 999)
TRAIN_ND = [make_vectors(24, 3, 60 + s) for s in range(10)]
QUERY_ND = make_vectors(24, 3, 998)


def _predict_one(rt):
    spec = DistanceSpec("cdtw", window=0.1, use_lower_bounds=True)
    clf = OneNearestNeighbor(spec, runtime=rt).fit(TRAIN, LABELS)
    return clf.predict_one(QUERY), clf.cells_evaluated


def _nearest(rt):
    r = nearest_neighbor(QUERY, TRAIN, band=3, runtime=rt)
    return r.index, r.distance, r.cells


def _nearest_nd(rt):
    r = nearest_neighbor(QUERY_ND, TRAIN_ND, band=2, runtime=rt)
    return r.index, r.distance, r.cells


def _run_traced(run, rt):
    with RunTrace() as trace:
        answer = run(rt)
    return answer, trace.counter("dp.calls")


def _serve_1nn(rt):
    with QueryService(runtime=rt, cache_results=False) as service:
        service.register("coll", TRAIN)
        response = service.execute(
            {"op": "1nn", "dataset": "coll", "band": 3, "query": QUERY}
        )
    assert response.ok, response.error
    return response.answer, response.telemetry.dtw_calls


EXACT_ROUTES = {
    "predict_one": lambda rt: _run_traced(_predict_one, rt),
    "nearest_neighbor": lambda rt: _run_traced(_nearest, rt),
    "nearest_neighbor_nd": lambda rt: _run_traced(_nearest_nd, rt),
    "serve_1nn": _serve_1nn,
}


class TestExactStagesRunTheEngine:
    @pytest.mark.parametrize("route", sorted(EXACT_ROUTES))
    def test_every_exact_dp_runs_the_engine(self, route, calls):
        run = EXACT_ROUTES[route]
        reference, reference_calls = run(PYTHON)
        calls["engine"] = 0
        answer, dp_calls = run(NUMPY)
        assert dp_calls > 0
        assert calls["engine"] == dp_calls
        assert calls["stacked"] == 0
        assert answer == reference
        assert dp_calls == reference_calls


# -- measure_fn: paths run the engine, plain distances stack ----------------

MEASURES = {
    "dtw": {},
    "cdtw": {"band": 3},
    "dtw_d": {},
    "cdtw_d": {"band": 3},
    "dtw_i": {},
    "cdtw_i": {"band": 3},
}


def _pair(measure):
    if measure.endswith(("_d", "_i")):
        return make_vectors(20, 3, 1), make_vectors(22, 3, 2)
    return make_series(20, 1), make_series(22, 2)


class TestMeasureFn:
    @pytest.mark.parametrize("cost", ["squared", "abs"])
    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_path_runs_the_engine(self, measure, cost, calls):
        x, y = _pair(measure)
        kwargs = dict(MEASURES[measure], cost=cost, return_path=True)
        reference = measure_fn(measure, backend="python", **kwargs)(x, y)
        calls["engine"] = 0
        got = measure_fn(measure, backend="numpy", **kwargs)(x, y)
        assert got == reference
        assert got.path is not None
        assert calls["engine"] == (3 if measure.endswith("_i") else 1)
        assert calls["stacked"] == 0

    @pytest.mark.parametrize("cost", ["squared", "abs"])
    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_plain_distance_is_a_one_pair_stack(self, measure, cost,
                                                calls):
        x, y = _pair(measure)
        kwargs = dict(MEASURES[measure], cost=cost)
        reference = measure_fn(measure, backend="python", **kwargs)(x, y)
        calls["engine"] = 0
        with RunTrace() as trace:
            got = measure_fn(measure, backend="numpy", **kwargs)(x, y)
        # result fields (distance, cells, cost name, no path) and the
        # dp.* counters equal the engine's
        assert got == reference
        channels = 3 if measure.endswith("_i") else 1
        assert calls["stacked"] == channels
        assert calls["engine"] == 0
        assert trace.counter("dp.calls") == channels
        assert trace.counter("dp.cells") == reference.cells

    def test_callable_cost_path_runs_on_numpy(self):
        # the engine takes any cost; only the stacked kernels need a
        # named one, so a plain distance still refuses it
        def cost(a, b):
            return abs(a - b)

        x, y = _pair("cdtw")
        path_fn = measure_fn("cdtw", band=3, cost=cost, return_path=True,
                             backend="numpy")
        reference = measure_fn("cdtw", band=3, cost=cost,
                               return_path=True)(x, y)
        assert path_fn(x, y) == reference
        with pytest.raises(ValueError, match="backend='python'"):
            measure_fn("cdtw", band=3, cost=cost, backend="numpy")(x, y)


# -- learned bands, DBA: the other path and abandon callers -----------------


class TestOtherCallers:
    @pytest.mark.parametrize("route", ["plain", "path", "abandon"])
    def test_learned_band_dtw(self, route, calls):
        x, y = make_series(24, 5), make_series(24, 6)
        radii = [3] * 24
        kwargs = {
            "plain": {},
            "path": {"return_path": True},
            "abandon": {"abandon_above": 1.0},
        }[route]
        reference = learned_band_dtw(x, y, radii, runtime=PYTHON, **kwargs)
        calls["engine"] = 0
        got = learned_band_dtw(x, y, radii, runtime=NUMPY, **kwargs)
        assert got == reference
        if route == "plain":
            assert (calls["stacked"], calls["engine"]) == (1, 0)
        else:
            assert (calls["stacked"], calls["engine"]) == (0, 1)

    def test_learned_radii_align_in_the_engine(self, calls):
        series = [make_series(16, 70 + s) for s in range(4)]
        reference = learn_band_radii(series, runtime=PYTHON)
        calls["engine"] = 0
        assert learn_band_radii(series, runtime=NUMPY) == reference
        assert calls["engine"] == 6  # one alignment per pair
        assert calls["stacked"] == 0

    def test_dba_aligns_in_the_engine(self, calls):
        series = [make_series(16, 80 + s) for s in range(5)]
        reference = dba(series, band=2, max_iterations=2, runtime=PYTHON)
        calls["engine"] = 0
        got = dba(series, band=2, max_iterations=2, runtime=NUMPY)
        assert got == reference
        # paths from the engine, inertia from one-pair stacks
        assert calls["engine"] == 5 * got.iterations
        assert calls["stacked"] == 5 * (got.iterations + 1)
