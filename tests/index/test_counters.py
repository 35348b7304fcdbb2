"""``index.*`` observability counters: derived, flushed, and invariant.

The searcher's counters are *derived* from the same CascadeStats the
results carry, so a trace snapshot and the returned stats must
reconcile exactly, and the whole counter set must be identical across
worker counts, backends and the persistent executor (the indexed scan
is sequential; the runtime only contributes its backend, and every
stage it counts is bit-identical by construction).
"""

from dataclasses import astuple
from functools import lru_cache
from math import ceil

import pytest

from repro.datasets.synthetic_archive import synthetic_archive
from repro.index import build_index, build_stream_index
from repro.lowerbounds.cascade import CascadeBatch, CascadeStats
from repro.obs import RunTrace
from repro.runtime import Runtime
from repro.search.nn_search import nearest_neighbor
from repro.search.subsequence import subsequence_search_topk
from tests.conftest import make_series

BAND = 2
QUERY = make_series(20, seed=600)
CANDS = [make_series(20, seed=601 + i) for i in range(8)]
STREAM = make_series(64, seed=620)
WINDOW = 12

INDEX_COUNTERS = (
    "index.hits",
    "index.artifacts_reused",
    "index.reused_exact",
)

RUNTIMES = [
    pytest.param(Runtime(workers=1, backend="python"), id="w1-python"),
    pytest.param(Runtime(workers=2, backend="python"), id="w2-python"),
    pytest.param(Runtime(workers=4, backend="python"), id="w4-python"),
    pytest.param(Runtime(workers=1, backend="numpy"), id="w1-numpy"),
    pytest.param(Runtime(workers=2, backend="numpy"), id="w2-numpy"),
    pytest.param(Runtime(workers=4, backend="numpy"), id="w4-numpy"),
    pytest.param(
        Runtime(workers=4, backend="numpy", executor="default"),
        id="w4-numpy-executor",
    ),
]


def _skip_if_numpy_missing(rt):
    if rt.backend_name == "numpy":
        pytest.importorskip("numpy")


def _snapshot(trace):
    return {name: trace.counter(name) for name in INDEX_COUNTERS}


def _loocv_counters(rt):
    idx = build_index(CANDS, band=BAND)
    searcher = idx.searcher(runtime=rt, share_exact=True)
    stats_totals = {"reused_exact": 0, "artifacts": 0}
    with RunTrace() as trace:
        for i, q in enumerate(CANDS):
            hit = searcher.nearest(q, exclude=i, query_index=i)
            stats_totals["reused_exact"] += hit.stats.reused_exact
            stats_totals["artifacts"] += hit.artifacts_reused
    return _snapshot(trace), stats_totals


class TestCountersReconcile:
    def test_counters_derive_from_returned_stats(self):
        counters, totals = _loocv_counters(
            Runtime(workers=1, backend="python")
        )
        assert counters["index.hits"] == len(CANDS)
        assert counters["index.artifacts_reused"] == totals["artifacts"]
        assert counters["index.reused_exact"] == totals["reused_exact"]
        # the workload actually exercises the counters it checks
        assert totals["artifacts"] > 0
        assert totals["reused_exact"] > 0

    @pytest.mark.parametrize("rt", RUNTIMES)
    def test_counters_invariant_across_runtimes(self, rt):
        _skip_if_numpy_missing(rt)
        reference, _ = _loocv_counters(
            Runtime(workers=1, backend="python")
        )
        got, _ = _loocv_counters(rt)
        assert got == reference

    def test_nearest_neighbor_indexed_increments_hits(self):
        idx = build_index(CANDS, band=BAND)
        with RunTrace() as trace:
            nearest_neighbor(QUERY, CANDS, band=BAND, index=idx)
        assert trace.counter("index.hits") == 1
        assert trace.counter("index.artifacts_reused") > 0

    def test_scan_close_flushes_once(self):
        idx = build_stream_index(STREAM, window=WINDOW, band=BAND)
        searcher = idx.searcher()
        q = make_series(WINDOW, seed=630)
        with RunTrace() as trace:
            scan = searcher.scan(q)
            scan.distance(0)
            scan.close()
            scan.close()  # idempotent: no double counting
        assert trace.counter("index.hits") == 1

    def test_topk_scan_flushes_through_context_manager(self):
        idx = build_stream_index(STREAM, window=WINDOW, band=BAND)
        q = make_series(WINDOW, seed=631)
        with RunTrace() as trace:
            subsequence_search_topk(
                q, STREAM, band=BAND, k=2, index=idx
            )
        assert trace.counter("index.hits") == 1
        assert trace.counter("index.artifacts_reused") > 0


class TestNnStatsParity:
    """Satellite: ``NnResult.stats`` is populated -- identically -- on
    every ``"cdtw+lb"`` path, including the chunk-prefilter one."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_stats_populated_and_tuple_equal_across_workers(
        self, workers, backend
    ):
        if backend == "numpy":
            pytest.importorskip("numpy")
        reference = nearest_neighbor(
            QUERY, CANDS, band=BAND,
            runtime=Runtime(workers=1, backend=backend),
        )
        assert reference.stats is not None
        got = nearest_neighbor(
            QUERY, CANDS, band=BAND,
            runtime=Runtime(workers=workers, backend=backend),
        )
        assert got.stats is not None
        assert astuple(got.stats) == astuple(reference.stats)
        assert (got.index, got.distance, got.cells) == (
            reference.index, reference.distance, reference.cells
        )

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_indexed_stats_tuple_equal_across_runtimes(self, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        idx = build_index(CANDS, band=BAND)
        reference = nearest_neighbor(
            QUERY, CANDS, band=BAND, index=idx,
            runtime=Runtime(workers=1, backend="python"),
        )
        got = nearest_neighbor(
            QUERY, CANDS, band=BAND, index=idx,
            runtime=Runtime(workers=4, backend=backend,
                            executor="default"),
        )
        assert astuple(got.stats) == astuple(reference.stats)
        assert (got.index, got.distance, got.cells) == (
            reference.index, reference.distance, reference.cells
        )

    def test_stats_counters_account_every_candidate(self):
        result = nearest_neighbor(QUERY, CANDS, band=BAND)
        s = result.stats
        assert s.candidates == len(CANDS)
        assert (
            s.pruned_total() + s.full_dtw + s.reused_exact
            == s.candidates
        )


LOOCV_SCANS = ("index_free", "indexed")


@lru_cache(maxsize=None)
def _pruning_loocv(backend):
    """Neighbours and summed cascade stats of the index-free and the
    indexed scan over the synthetic archive's leave-one-out 1-NN."""
    rt = Runtime(backend=backend)
    totals = {label: CascadeStats() for label in LOOCV_SCANS}
    winners = {label: [] for label in LOOCV_SCANS}
    for entry in synthetic_archive(
        n_datasets=3, length_range=(40, 72), classes=3, per_class=5,
        seed=0,
    ):
        series = [list(s) for s in entry.dataset.series]
        band = ceil(0.1 * len(series[0]))
        idx = build_index(series, band, runtime=rt)
        scans = {
            "index_free": CascadeBatch(series, band, runtime=rt).nearest,
            "indexed": idx.searcher(runtime=rt).nearest,
        }
        for label, nearest in scans.items():
            for i, q in enumerate(series):
                hit = nearest(q, query_index=i, exclude=i)
                winners[label].append((hit.index, hit.distance))
                totals[label] = CascadeStats(*(
                    a + b for a, b in zip(
                        astuple(totals[label]), astuple(hit.stats)
                    )
                ))
    return totals, winners


def _dtw_calls(stats):
    """Completed plus abandoned DPs."""
    return stats.full_dtw + stats.abandoned_dtw


@pytest.fixture(scope="module", params=["python", "numpy"])
def pruning(request):
    if request.param == "numpy":
        pytest.importorskip("numpy")
    return _pruning_loocv(request.param)


class TestPruningPower:
    """What the index changes on the synthetic archive's LOOCV 1-NN (3
    datasets, length 40-72, 3 classes x 5 series, window 0.1, seed 0).

    An index only serves stored envelopes, so the index-free and the
    indexed scan return the same neighbour for every query and do the
    same cascade work, stage by stage; the work is pinned exactly.
    """

    def test_same_answers_with_and_without_the_index(self, pruning):
        _, winners = pruning
        assert len(winners["index_free"]) == 45
        assert winners["indexed"] == winners["index_free"]

    def test_same_work_with_and_without_the_index(self, pruning):
        totals, _ = pruning
        assert totals["indexed"] == totals["index_free"]

    def test_dtw_calls_and_cells_are_pinned(self, pruning):
        totals, _ = pruning
        assert {
            label: (_dtw_calls(s), s.cells) for label, s in totals.items()
        } == {
            "index_free": (240, 123_199), "indexed": (240, 123_199),
        }

    def test_every_candidate_is_accounted_for(self, pruning):
        # 45 queries, each against the 14 other series of its dataset
        totals, _ = pruning
        for s in totals.values():
            assert s.candidates == 45 * 14
            assert s.pruned_total() + s.full_dtw + s.reused_exact == (
                s.candidates
            )

    def test_backends_agree(self):
        pytest.importorskip("numpy")
        assert _pruning_loocv("numpy") == _pruning_loocv("python")
