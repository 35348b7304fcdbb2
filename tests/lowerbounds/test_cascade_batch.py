"""CascadeBatch: lossless many-query driving of the LB cascade.

The batch scans held candidates best-first, serves precomputed
envelopes and (for self-joins) shares exact distances across queries.
All of it must be invisible in the results: on every backend,
``nearest`` returns the same ``(index, distance)`` as the plain
in-order full scan, with the documented min-index tie-break, and an
index changes nothing but where the envelopes come from.
"""

from collections.abc import Sequence
from dataclasses import astuple
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cdtw import cdtw
from repro.core.multivariate import cdtw_nd
from repro.index import build_index
from repro.lowerbounds.cascade import BatchNearest, CascadeBatch
from repro.lowerbounds.lb_kim import lb_kim
from repro.lowerbounds.nd import envelopes_nd, lb_keogh_nd
from repro.runtime import Runtime
from tests.conftest import make_series

BAND = 3
CANDS = [make_series(24, seed=100 + i) for i in range(10)]
QUERIES = [make_series(24, seed=200 + i) for i in range(4)]


def serial_nearest(query, candidates, band, exclude=None):
    """The reference: exact cDTW to every candidate in order,
    first-wins tie-break (the dependent measure on vector samples)."""
    exact = cdtw_nd if hasattr(query[0], "__len__") else cdtw
    best, best_idx = inf, -1
    for j, cand in enumerate(candidates):
        if j == exclude:
            continue
        d = exact(query, cand, band=band).distance
        if d < best:
            best, best_idx = d, j
    return best_idx, best


def _runtime(backend):
    if backend == "numpy":
        pytest.importorskip("numpy")
    return Runtime(backend=backend)


#: integer-valued samples keep sums of squares exact, so distinct
#: series can tie exactly
small_ints = st.integers(min_value=-3, max_value=3).map(float)
finite = st.floats(
    min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
)


def _collection(draw, shape):
    """Equal-length scalar or ``(n, 2)`` candidates, the sample and
    series strategies that made them, and a band.

    Drawn candidates are copied, or permuted, to drawn positions.
    Against a constant query every path must pay each candidate
    sample at least once and the diagonal pays each exactly once, so
    a permutation of integer samples is an exact tie at any band --
    one whose LB_Kim, and so scan position, can differ.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    scalar = draw(st.sampled_from([small_ints, finite]))
    point = scalar if shape == "scalar" else st.tuples(scalar, scalar)
    series = st.lists(point, min_size=n, max_size=n)
    cands = draw(st.lists(series, min_size=2, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        source = draw(st.sampled_from(cands))
        copy = draw(st.one_of(st.just(source), st.permutations(source)))
        cands.insert(draw(st.integers(0, len(cands))), list(copy))
    return cands, point, series, draw(st.integers(min_value=0, max_value=n))


@st.composite
def tied_workloads(draw, shape):
    """Candidates, a query, a band and an ``exclude``.

    The query is a fresh series, a constant one (with a permuted
    candidate added), or a copy of a candidate that also has a
    duplicate; ``exclude`` is ``None``, any position, or (for a copied
    query) one of the query's copies.
    """
    cands, point, series, band = _collection(draw, shape)
    kind = draw(st.sampled_from(["fresh", "constant", "member"]))
    copies = range(len(cands))
    if kind == "fresh":
        query = draw(series)
    elif kind == "constant":
        query = [draw(point)] * len(cands[0])
        tie = draw(st.permutations(draw(st.sampled_from(cands))))
        cands.insert(draw(st.integers(0, len(cands))), list(tie))
    else:
        query = list(draw(st.sampled_from(cands)))
        cands.insert(draw(st.integers(0, len(cands))), list(query))
        copies = [j for j, c in enumerate(cands) if c == query]
    exclude = draw(st.one_of(
        st.none(), st.sampled_from(range(len(cands))),
        st.sampled_from(copies),
    ))
    return cands, query, band, exclude


@st.composite
def self_joins(draw, shape):
    """Candidates, a band and the member that queries them."""
    cands, _, _, band = _collection(draw, shape)
    return cands, band, draw(st.integers(0, len(cands) - 1))


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_matches_serial_scan(self, backend):
        batch = CascadeBatch(CANDS, BAND, runtime=_runtime(backend))
        for q in QUERIES:
            want = serial_nearest(q, CANDS, BAND)
            hit = batch.nearest(q)
            assert isinstance(hit, BatchNearest)
            assert (hit.index, hit.distance) == want

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_exclude_matches_leave_one_out(self, backend):
        batch = CascadeBatch(CANDS, BAND, runtime=_runtime(backend))
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

    @pytest.mark.parametrize("shape", ["scalar", "nd"])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_best_first_returns_the_full_scan_answer(
        self, backend, shape, data
    ):
        cands, query, band, exclude = data.draw(tied_workloads(shape))
        # a query that is the excluded candidate declares it, as LOOCV
        # does, so its envelope is the candidate's
        member = (
            exclude
            if exclude is not None and cands[exclude] == query
            else None
        )
        hit = CascadeBatch(cands, band, runtime=_runtime(backend)).nearest(
            query, query_index=member, exclude=exclude,
        )
        assert (hit.index, hit.distance) == serial_nearest(
            query, cands, band, exclude
        )


def _ulp_ties():
    """Exact ties that a bound rounds one ulp above, keyed by shape:
    ``(query, candidates, bound)``, where ``bound`` computes the bound
    that rounds above candidate 0's distance.  Every candidate but the
    first scans before it best-first."""
    a, b = 1.6387404682481874, 0.10112585398000185
    c, d = 0.3136281280020833, 2.664352066970587
    scalar = [[a, -b, c, -d], [-c, b, -a, d], [-a, b, -c, d], [-d, -b, c, a]]
    o, e = (0.0, 0.0), 1.2884296913575035
    nd = [
        [o] * 9 + [(0.0, 1.0), o, (0.0, e)],
        [o] * 12,
        [o] * 10 + [(0.0, 1.0), (0.0, e)],
    ]
    flat = [(1.0, 1.0)] * 12
    return {
        # LB_Kim adds both corners before the second and penultimate
        # steps; the DP adds them in path order
        "scalar": ([0.0] * 4, scalar, lambda q, x: lb_kim(q, x)),
        # the summed nd LB_Keogh adds channel by channel, the DP
        # sample by sample
        "nd": (flat, nd, lambda q, x: lb_keogh_nd(envelopes_nd(q, 0), x)),
    }


class TestRoundingAllowance:
    """A bound may round a few ulps above the distance it bounds; the
    cascade prunes only past an allowance for that, so an exact tie is
    never pruned and the first-wins winner survives any scan order."""

    @pytest.mark.parametrize("shape", ["scalar", "nd"])
    def test_the_bound_rounds_above_the_tie(self, shape):
        query, cands, bound = _ulp_ties()[shape]
        index, distance = serial_nearest(query, cands, 0)
        assert index == 0
        assert bound(query, cands[0]) > distance

    @pytest.mark.parametrize("shape", ["scalar", "nd"])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_first_tie_wins_with_and_without_the_index(self, backend, shape):
        query, cands, _ = _ulp_ties()[shape]
        rt = _runtime(backend)
        want = serial_nearest(query, cands, 0)
        free = CascadeBatch(cands, 0, runtime=rt).nearest(query)
        searcher = build_index(cands, 0, runtime=rt).searcher(runtime=rt)
        indexed = searcher.nearest(query)
        assert (free.index, free.distance) == want
        assert (indexed.index, indexed.distance) == want


class TestIndexServesOnlyEnvelopes:
    """An index changes where envelopes come from and nothing else:
    same neighbour, distance and every :class:`CascadeStats` field."""

    @pytest.mark.parametrize("shape", ["scalar", "nd"])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_indexed_scan_equals_index_free(self, backend, shape, data):
        cands, band, i = data.draw(self_joins(shape))
        rt = _runtime(backend)
        free = CascadeBatch(cands, band, runtime=rt).nearest(
            cands[i], query_index=i, exclude=i,
        )
        searcher = build_index(cands, band, runtime=rt).searcher(runtime=rt)
        indexed = searcher.nearest(cands[i], query_index=i, exclude=i)
        assert (indexed.index, indexed.distance) == (
            free.index, free.distance
        )
        assert astuple(indexed.stats) == astuple(free.stats)
        assert free.artifacts_reused == 0


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
        batch = CascadeBatch(CANDS, BAND, runtime=self.PY)
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
        batch = CascadeBatch(view, BAND, runtime=self.PY)
        for query in QUERIES:
            view.reads = 0
            envelope_builds.clear()
            hits = [batch.nearest(query) for _ in range(2)]
            # each query reads every candidate once and rebuilds the
            # envelopes it needs: nothing per candidate outlives a read
            assert view.reads == 2 * len(CANDS)
            assert len(envelope_builds) == 2 * (
                1 + reached_reversed(hits[0].stats)
            )
            assert hits[0] == hits[1]
            # a view is scanned in stream order: the same answer and
            # work as an in-order scan with the running best
            want = self.in_order_scan(query)
            assert (hits[0].index, hits[0].distance) == want[:2]
            assert astuple(hits[0].stats) == astuple(want[2])

    def in_order_scan(self, query):
        """``(index, distance, stats)`` of the held candidates scanned
        in order through ``scan().distance`` with the running best."""
        best, best_idx = inf, -1
        batch = CascadeBatch(CANDS, BAND, runtime=self.PY)
        with batch.scan(query) as scan:
            for j in range(len(CANDS)):
                d = scan.distance(j, best)
                if d < best:
                    best, best_idx = d, j
        return best_idx, best, scan.stats

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


class TestExcludeValidation:
    """An ``exclude`` outside the candidates is a ``ValueError`` on
    every route, never an ignored argument."""

    @pytest.mark.parametrize("exclude", [len(CANDS), 99, -1])
    def test_held_candidates(self, exclude):
        batch = CascadeBatch(CANDS, BAND)
        with pytest.raises(ValueError, match="exclude"):
            batch.nearest(QUERIES[0], exclude=exclude)

    @pytest.mark.parametrize("exclude", [len(CANDS), -1])
    def test_view_candidates(self, exclude):
        batch = CascadeBatch(_CountingView(CANDS), BAND)
        with pytest.raises(ValueError, match="exclude"):
            batch.nearest(QUERIES[0], exclude=exclude)

    @pytest.mark.parametrize("exclude", [len(CANDS), -1])
    def test_index_searcher(self, exclude):
        searcher = build_index(CANDS, BAND).searcher()
        with pytest.raises(ValueError, match="exclude"):
            searcher.nearest(QUERIES[0], exclude=exclude)

    def test_last_position_is_valid(self):
        last = len(CANDS) - 1
        hit = CascadeBatch(CANDS, BAND).nearest(CANDS[last], exclude=last)
        assert (hit.index, hit.distance) == serial_nearest(
            CANDS[last], CANDS, BAND, exclude=last
        )
