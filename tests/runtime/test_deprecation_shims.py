"""Execution keywords: ``runtime=`` only, and the native two stay silent.

Consumer entry points take their execution context only as
``runtime=``.  The per-knob ``workers=`` / ``backend=`` /
``executor=`` keywords they once accepted are gone: passing one is a
``TypeError`` naming it, never a silently ignored argument.  The
``runtime=`` form of each removed knob must stay warning-free and
return exactly what the default call returns.
``cdtw_cumulative_abandon`` has no execution context to take, so it
refuses ``runtime=`` too.  Two keywords are
native rather than legacy and must keep working silently: the batch
engine's own ``batch_distances(..., workers=)`` and the spec-level
``DistanceSpec(backend=)``.  Knobs the engine itself dropped are
refused the same way: the chunk plan (``chunksize=``, on the batch
entry points and ``Runtime``), the pool start method
(``start_method=``, which belongs to ``BatchExecutor``),
``rle_dtw``'s kernel ``backend=`` and ``CascadeBatch``'s five stage
and scan-order flags.
"""

from __future__ import annotations

import warnings

import pytest

from repro.batch import BatchExecutor, batch_distances, batch_lb_keogh
from repro.classify.knn import (
    DistanceSpec,
    KNearestNeighbors,
    OneNearestNeighbor,
)
from repro.classify.loocv import best_window_search, loocv_error
from repro.cluster.dba import dba
from repro.cluster.kmeans import dtw_kmeans
from repro.cluster.linkage import linkage_from_series
from repro.core.matrix import distance_matrix
from repro.core.rle import rle_dtw
from repro.lowerbounds.cascade import CascadeBatch
from repro.runtime import Runtime
from repro.search.cumulative import cdtw_cumulative_abandon
from repro.search.nn_search import nearest_neighbor
from tests.conftest import make_series

SERIES = [make_series(16, seed) for seed in range(6)]
LABELS = ["a", "b", "a", "b", "a", "b"]
QUERY = make_series(16, 99)
SPEC = DistanceSpec("cdtw", window=0.2)


def run_matrix(**kw):
    m = distance_matrix(SERIES, measure="cdtw", band=2, **kw)
    return (m.values, m.cells)


def run_nn(**kw):
    r = nearest_neighbor(QUERY, SERIES, strategy="cdtw", band=2, **kw)
    return (r.index, r.distance, r.cells)


def run_one_nn(**kw):
    clf = OneNearestNeighbor(SPEC, **kw).fit(SERIES, LABELS)
    return tuple(clf.predict([QUERY, SERIES[2]]))


def run_knn(**kw):
    clf = KNearestNeighbors(SPEC, k=3, **kw).fit(SERIES, LABELS)
    return tuple(clf.predict([QUERY, SERIES[2]]))


def run_loocv(**kw):
    return loocv_error(SERIES, LABELS, SPEC, **kw)


def run_window_search(**kw):
    return best_window_search(
        SERIES, LABELS, windows=(0.0, 0.2), **kw
    )


def run_linkage(**kw):
    return linkage_from_series(SERIES, measure="cdtw", band=2, **kw)


def run_dba(**kw):
    return dba(SERIES, band=2, max_iterations=2, **kw)


def run_kmeans(**kw):
    return dtw_kmeans(SERIES, 2, band=2, max_iterations=2, **kw)


def run_cascade(**kw):
    return CascadeBatch(SERIES, band=2, **kw).nearest(QUERY)


def run_cumulative(**kw):
    return cdtw_cumulative_abandon(
        SERIES[0], SERIES[1], band=2, threshold=50.0, **kw
    )


# entry point -> (runner, execution knobs it once took as keywords)
ENTRY_POINTS = {
    "distance_matrix": (run_matrix, ("workers", "backend", "executor")),
    "nearest_neighbor": (run_nn, ("workers", "backend", "executor")),
    "OneNearestNeighbor": (run_one_nn, ("workers", "executor")),
    "KNearestNeighbors": (run_knn, ("workers", "executor")),
    "loocv_error": (run_loocv, ("workers", "executor")),
    "best_window_search": (run_window_search, ("workers", "executor")),
    "linkage_from_series": (run_linkage, ("workers", "backend", "executor")),
    "dba": (run_dba, ("workers", "backend", "executor")),
    "dtw_kmeans": (run_kmeans, ("workers", "backend", "executor")),
    "CascadeBatch": (run_cascade, ("backend",)),
    "cdtw_cumulative_abandon": (run_cumulative, ("backend",)),
}

CASES = [
    (name, kwarg)
    for name, (_, kwargs) in sorted(ENTRY_POINTS.items())
    for kwarg in kwargs
]

# cdtw_cumulative_abandon takes no execution context at all: its
# abandoning DP runs the pure engine on every backend
RUNTIME_CASES = [
    (name, kwarg) for name, kwarg in CASES
    if name != "cdtw_cumulative_abandon"
]


@pytest.fixture(scope="module")
def shared_executor():
    with BatchExecutor(workers=2) as exe:
        yield exe


def _kwarg_value(kwarg, shared_executor):
    return {
        "workers": 2,
        "backend": "numpy",
        "executor": shared_executor,
    }[kwarg]


@pytest.mark.parametrize("name,kwarg", CASES)
def test_removed_kwarg_is_refused(name, kwarg, shared_executor):
    runner, _ = ENTRY_POINTS[name]
    value = _kwarg_value(kwarg, shared_executor)
    with pytest.raises(TypeError, match=kwarg):
        runner(**{kwarg: value})


@pytest.mark.parametrize("name,kwarg", RUNTIME_CASES)
def test_runtime_style_is_silent(name, kwarg, shared_executor):
    runner, _ = ENTRY_POINTS[name]
    value = _kwarg_value(kwarg, shared_executor)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        modern = runner(runtime=Runtime(**{kwarg: value}))
    assert modern == runner()


def test_cumulative_abandon_refuses_runtime():
    with pytest.raises(TypeError, match="runtime"):
        run_cumulative(runtime=Runtime(backend="numpy"))


def test_engine_workers_kwarg_is_native_not_deprecated():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = batch_distances(
            SERIES, measure="cdtw", band=2, workers=2
        )
    serial = batch_distances(SERIES, measure="cdtw", band=2)
    assert result.distances == serial.distances


def test_spec_backend_is_spec_level_not_deprecated():
    plain = OneNearestNeighbor(DistanceSpec("cdtw", window=0.2)).fit(
        SERIES, LABELS
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        spec = DistanceSpec("cdtw", window=0.2, backend="numpy")
        clf = OneNearestNeighbor(spec).fit(SERIES, LABELS)
        assert clf.predict([QUERY]) == plain.predict([QUERY])


# keywords the execution layer itself dropped: (callable, keyword,
# a value the old code accepted)
REMOVED_ENGINE_KWARGS = {
    "batch_distances-chunksize": (
        lambda **kw: batch_distances(SERIES, band=2, workers=2, **kw),
        "chunksize", 2,
    ),
    "batch_distances-start_method": (
        lambda **kw: batch_distances(SERIES, band=2, workers=2, **kw),
        "start_method", "spawn",
    ),
    "batch_lb_keogh-chunksize": (
        lambda **kw: batch_lb_keogh(SERIES, band=2, workers=2, **kw),
        "chunksize", "legacy",
    ),
    "batch_lb_keogh-start_method": (
        lambda **kw: batch_lb_keogh(SERIES, band=2, workers=2, **kw),
        "start_method", "fork",
    ),
    "Runtime-chunksize": (Runtime, "chunksize", "auto"),
    "Runtime.resolve-chunksize": (Runtime.resolve, "chunksize", 7),
    "rle_dtw-backend": (
        lambda **kw: rle_dtw(SERIES[0], SERIES[1], **kw),
        "backend", "python",
    ),
    # the cascade runs one stage list and picks its scan order from
    # what it holds; its per-caller stage and order flags are gone
    "CascadeBatch-squared": (run_cascade, "squared", True),
    "CascadeBatch-use_reversed": (run_cascade, "use_reversed", False),
    "CascadeBatch-use_cumulative": (run_cascade, "use_cumulative", False),
    "CascadeBatch-use_improved": (run_cascade, "use_improved", True),
    "CascadeBatch-best_first": (run_cascade, "best_first", False),
}


@pytest.mark.parametrize("case", sorted(REMOVED_ENGINE_KWARGS))
def test_removed_engine_kwarg_is_refused(case):
    call, kwarg, value = REMOVED_ENGINE_KWARGS[case]
    with pytest.raises(TypeError, match=kwarg):
        call(**{kwarg: value})
