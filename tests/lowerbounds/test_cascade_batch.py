"""CascadeBatch: lossless many-query driving of the LB cascade.

The batch driver reorders candidates best-first, serves precomputed
envelopes and (for self-joins) shares exact distances across queries.
All of it must be invisible in the results: for every flag combination
and backend, ``nearest`` returns the same ``(index, distance)`` as the
plain in-order serial scan, with the documented min-index tie-break.
"""

import itertools
from collections.abc import Sequence
from dataclasses import astuple
from math import inf

import pytest

from repro.core.cdtw import cdtw
from repro.lowerbounds.cascade import BatchNearest, CascadeBatch
from repro.runtime import Runtime
from tests.conftest import make_series

BAND = 3
CANDS = [make_series(24, seed=100 + i) for i in range(10)]
QUERIES = [make_series(24, seed=200 + i) for i in range(4)]


def serial_nearest(query, candidates, band, exclude=None):
    """The reference: exact cDTW to every candidate in order,
    first-wins tie-break."""
    best, best_idx = inf, -1
    for j, cand in enumerate(candidates):
        if j == exclude:
            continue
        d = cdtw(query, cand, band=band).distance
        if d < best:
            best, best_idx = d, j
    return best_idx, best


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize(
        "use_improved,best_first",
        list(itertools.product([False, True], repeat=2)),
    )
    def test_matches_serial_scan(self, backend, use_improved, best_first):
        if backend == "numpy":
            pytest.importorskip("numpy")
        batch = CascadeBatch(
            CANDS, BAND, use_improved=use_improved,
            best_first=best_first, runtime=Runtime(backend=backend),
        )
        for q in QUERIES:
            want = serial_nearest(q, CANDS, BAND)
            hit = batch.nearest(q)
            assert isinstance(hit, BatchNearest)
            assert (hit.index, hit.distance) == want

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_exclude_matches_leave_one_out(self, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        batch = CascadeBatch(
            CANDS, BAND, runtime=Runtime(backend=backend)
        )
        for i in range(len(CANDS)):
            want = serial_nearest(CANDS[i], CANDS, BAND, exclude=i)
            hit = batch.nearest(CANDS[i], exclude=i)
            assert (hit.index, hit.distance) == want

    def test_duplicate_candidates_min_index_wins(self):
        dup = [CANDS[0], CANDS[1], CANDS[1], CANDS[1], CANDS[2]]
        hit = CascadeBatch(dup, BAND).nearest(CANDS[1])
        assert hit.index == 1
        assert hit.distance == 0.0

    def test_duplicate_with_self_excluded(self):
        dup = [CANDS[0], CANDS[1], CANDS[2], CANDS[1]]
        hit = CascadeBatch(dup, BAND).nearest(
            CANDS[1], exclude=1, query_index=1
        )
        assert hit.index == 3
        assert hit.distance == 0.0


class TestShareExact:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_self_join_reuses_and_stays_exact(self, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        batch = CascadeBatch(
            CANDS, BAND, share_exact=True,
            runtime=Runtime(backend=backend),
        )
        reused = 0
        for i, q in enumerate(CANDS):
            want = serial_nearest(q, CANDS, BAND, exclude=i)
            hit = batch.nearest(q, exclude=i, query_index=i)
            assert (hit.index, hit.distance) == want
            reused += hit.stats.reused_exact
        # cDTW is symmetric: later queries must be served from the
        # cache at least once on this workload
        assert reused > 0

    def test_cache_off_reports_no_reuse(self):
        batch = CascadeBatch(CANDS, BAND, share_exact=False)
        total = 0
        for i, q in enumerate(CANDS):
            total += batch.nearest(
                q, exclude=i, query_index=i
            ).stats.reused_exact
        assert total == 0


class TestPrecomputedEnvelopes:
    def test_provided_envelopes_identical_results(self):
        rt = Runtime(backend="python")
        up, lo = rt.kernels().envelope_chunk(CANDS, BAND)
        plain = CascadeBatch(CANDS, BAND, runtime=rt)
        primed = CascadeBatch(
            CANDS, BAND, runtime=rt, candidate_envelopes=(up, lo)
        )
        for q in QUERIES:
            a = plain.nearest(q)
            b = primed.nearest(q)
            assert (a.index, a.distance) == (b.index, b.distance)
            assert astuple(a.stats) == astuple(b.stats)

    def test_artifacts_reused_counts_served_envelopes(self):
        rt = Runtime(backend="python")
        up, lo = rt.kernels().envelope_chunk(CANDS, BAND)
        primed = CascadeBatch(
            CANDS, BAND, runtime=rt, candidate_envelopes=(up, lo)
        )
        hit = primed.nearest(QUERIES[0])
        # every candidate that reached the reversed stage consumed a
        # precomputed envelope
        assert hit.artifacts_reused >= hit.stats.full_dtw

    def test_wrong_envelope_count_rejected(self):
        rt = Runtime(backend="python")
        up, lo = rt.kernels().envelope_chunk(CANDS[:3], BAND)
        with pytest.raises(ValueError, match="every candidate"):
            CascadeBatch(
                CANDS, BAND, runtime=rt, candidate_envelopes=(up, lo)
            )


class TestErrors:
    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="no candidates"):
            CascadeBatch([], BAND)

    def test_negative_band(self):
        with pytest.raises(ValueError, match="band"):
            CascadeBatch(CANDS, -1)

    def test_ragged_candidates(self):
        with pytest.raises(ValueError, match="equal-length"):
            CascadeBatch([CANDS[0], CANDS[1][:10]], BAND)

    def test_exclude_everything(self):
        batch = CascadeBatch([CANDS[0]], BAND)
        with pytest.raises(ValueError, match="no candidates"):
            batch.nearest(QUERIES[0], exclude=0)


class _CountingView(Sequence):
    """A non-list candidate sequence that counts element reads."""

    def __init__(self, rows):
        self.rows, self.reads = rows, 0

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, j):
        self.reads += 1
        return list(self.rows[j])


@pytest.fixture
def envelope_builds(monkeypatch):
    """Every envelope the (python-backend) cascade builds, in order."""
    import repro.lowerbounds.cascade as cascade_module

    builds = []
    real = cascade_module.envelope

    def counting(x, band):
        builds.append(list(x))
        return real(x, band)

    monkeypatch.setattr(cascade_module, "envelope", counting)
    return builds


def reached_reversed(stats):
    return stats.candidates - stats.pruned_kim - stats.pruned_keogh


class TestLazyArtifacts:
    """Candidate envelopes are built only when the reversed stage asks,
    kept for the life of a batch that holds its candidates, and never
    kept for a view."""

    PY = Runtime(backend="python")

    def test_one_shot_nearest_builds_envelopes_on_demand(
        self, envelope_builds
    ):
        from repro.search.nn_search import nearest_neighbor

        hit = nearest_neighbor(
            QUERIES[0], CANDS, "cdtw+lb", band=BAND, runtime=self.PY,
        )
        reached = reached_reversed(hit.stats)
        assert reached < len(CANDS)  # some pruned before the reversed stage
        # the query's envelope, then one per candidate that got there
        assert envelope_builds[0] == QUERIES[0]
        assert len(envelope_builds) == 1 + reached

    def test_held_candidates_keep_their_envelopes(self, envelope_builds):
        batch = CascadeBatch(
            CANDS, BAND, use_improved=False, best_first=False,
            runtime=self.PY,
        )
        first = batch.nearest(QUERIES[0])
        built = len(envelope_builds)
        again = batch.nearest(QUERIES[0])
        assert (again.index, again.distance) == (first.index, first.distance)
        assert len(envelope_builds) == built + 1  # the query's only

    def test_self_join_query_reuses_its_candidate_envelope(
        self, envelope_builds
    ):
        batch = CascadeBatch(CANDS, BAND, runtime=self.PY)
        batch.nearest(CANDS[2], query_index=2, exclude=2)
        assert CANDS[2] in envelope_builds
        built = len(envelope_builds)
        batch.nearest(CANDS[2], query_index=2, exclude=2)
        assert len(envelope_builds) == built

    def test_view_candidates_keep_nothing(self, envelope_builds):
        view = _CountingView(CANDS)
        batch = CascadeBatch(
            view, BAND, use_improved=False, best_first=False,
            runtime=self.PY,
        )
        view.reads = 0
        hits = [batch.nearest(QUERIES[0]) for _ in range(2)]
        # each query reads every candidate once and rebuilds the
        # envelopes it needs: nothing per candidate outlives a read
        assert view.reads == 2 * len(CANDS)
        assert len(envelope_builds) == 2 * (
            1 + reached_reversed(hits[0].stats)
        )
        assert hits[0] == hits[1]
        want = CascadeBatch(
            CANDS, BAND, use_improved=False, best_first=False,
            runtime=self.PY,
        ).nearest(QUERIES[0])
        assert (hits[0].index, hits[0].distance) == (want.index, want.distance)
        assert astuple(hits[0].stats) == astuple(want.stats)

    def test_subsequence_search_reads_each_window_once(
        self, monkeypatch, envelope_builds
    ):
        from repro.search import subsequence as subsequence_module

        reads = []
        real = subsequence_module._Windows.__getitem__

        def counting(view, j):
            reads.append(j)
            return real(view, j)

        monkeypatch.setattr(
            subsequence_module._Windows, "__getitem__", counting
        )
        stream = make_series(120, seed=300)
        match = subsequence_module.subsequence_search(
            QUERIES[0], stream, band=BAND, runtime=self.PY,
        )
        # window 0 once at construction, then every window once, in
        # stream order; envelopes only for the windows that reached
        # the reversed stage
        assert reads == [0] + list(range(match.windows))
        assert len(envelope_builds) == 1 + reached_reversed(match.stats)
