"""Property-based tests across module boundaries.

The core invariants are property-tested in ``tests/core``; these
target the composed layers: search consistency, cluster correctness
against a naive reference, preprocessing round-trips, and the
multivariate lift of the DTW contracts.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.cluster.linkage import linkage
from repro.core.cdtw import cdtw
from repro.core.dtw import dtw
from repro.core.multivariate import cdtw_nd, dtw_nd, fastdtw_nd
from repro.lowerbounds.cascade import CascadeBatch
from repro.preprocess.normalize import znorm
from repro.search.nn_search import nearest_neighbor

finite = st.floats(
    min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
)


# -- search ------------------------------------------------------------------

workloads = st.integers(min_value=2, max_value=8).flatmap(
    lambda k: st.tuples(
        st.lists(finite, min_size=6, max_size=6),
        st.lists(
            st.lists(finite, min_size=6, max_size=6),
            min_size=k, max_size=k,
        ),
        st.integers(min_value=0, max_value=4),
    )
)


@settings(deadline=None, max_examples=40)
@given(workloads)
def test_cascade_search_matches_brute_force(args):
    query, candidates, band = args
    res = nearest_neighbor(query, candidates, "cdtw+lb", band=band)
    distances = [
        cdtw(query, c, band=band).distance for c in candidates
    ]
    best = min(distances)
    assert math.isclose(res.distance, best, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(
        distances[res.index], best, rel_tol=1e-9, abs_tol=1e-9
    )


@settings(deadline=None, max_examples=40)
@given(workloads)
def test_cascade_distance_exact_or_inf(args):
    query, candidates, band = args
    scan = CascadeBatch(candidates, band).scan(query)
    for j, c in enumerate(candidates):
        true = cdtw(query, c, band=band).distance
        got = scan.distance(j, best_so_far=true * 0.75)
        assert got == math.inf or math.isclose(
            got, true, rel_tol=1e-9, abs_tol=1e-9
        )
        if got == math.inf:
            assert true > true * 0.75 or true == 0.0


# -- clustering --------------------------------------------------------------


@st.composite
def distance_matrices(draw):
    k = draw(st.integers(min_value=2, max_value=7))
    entries = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100,
                      allow_nan=False, allow_infinity=False),
            min_size=k * (k - 1) // 2,
            max_size=k * (k - 1) // 2,
        )
    )
    m = [[0.0] * k for _ in range(k)]
    idx = 0
    for i in range(k):
        for j in range(i + 1, k):
            m[i][j] = m[j][i] = entries[idx]
            idx += 1
    return m


@settings(deadline=None, max_examples=50)
@given(distance_matrices(), st.sampled_from(["single", "complete",
                                             "average"]))
def test_linkage_structural_invariants(m, method):
    merges = linkage(m, method=method)
    k = len(m)
    assert len(merges) == k - 1
    assert merges[-1].size == k
    # single-linkage merge heights are non-decreasing
    if method == "single":
        heights = [x.distance for x in merges]
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))
    # first merge is always the global minimum distance
    lo = min(m[i][j] for i in range(k) for j in range(i + 1, k))
    assert math.isclose(merges[0].distance, lo, rel_tol=1e-12)


@settings(deadline=None, max_examples=30)
@given(distance_matrices())
def test_single_linkage_first_merge_pair_is_argmin(m):
    merges = linkage(m, method="single")
    k = len(m)
    lo = min(m[i][j] for i in range(k) for j in range(i + 1, k))
    a, b = merges[0].left, merges[0].right
    assert math.isclose(m[a][b], lo, rel_tol=1e-12)


# -- preprocessing ------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.lists(finite, min_size=2, max_size=50))
def test_znorm_idempotent(x):
    once = znorm(x)
    twice = znorm(once)
    assert all(
        math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
        for a, b in zip(once, twice)
    )


@settings(deadline=None, max_examples=60)
@given(
    st.lists(finite, min_size=2, max_size=50),
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_znorm_affine_invariant(x, scale, shift):
    if max(x) - min(x) < 1e-6:
        return  # constant series normalise to zeros either way
    a = znorm(x)
    b = znorm([scale * v + shift for v in x])
    assert all(
        math.isclose(p, q, rel_tol=1e-6, abs_tol=1e-6)
        for p, q in zip(a, b)
    )


# -- multivariate -------------------------------------------------------------

vector_pairs = st.integers(min_value=1, max_value=3).flatmap(
    lambda dim: st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(finite, min_size=dim, max_size=dim),
                min_size=n, max_size=n,
            ),
            st.lists(
                st.lists(finite, min_size=dim, max_size=dim),
                min_size=n, max_size=n,
            ),
        )
    )
)


@settings(deadline=None, max_examples=40)
@given(vector_pairs)
def test_multivariate_dtw_symmetric_nonnegative(pair):
    x, y = pair
    d = dtw_nd(x, y).distance
    assert d >= 0
    assert math.isclose(d, dtw_nd(y, x).distance, rel_tol=1e-9,
                        abs_tol=1e-9)


@settings(deadline=None, max_examples=40)
@given(vector_pairs, st.integers(min_value=0, max_value=4))
def test_multivariate_fastdtw_upper_bounds(pair, radius):
    x, y = pair
    assert fastdtw_nd(x, y, radius=radius).distance >= (
        dtw_nd(x, y).distance - 1e-9
    )


@settings(deadline=None, max_examples=40)
@given(vector_pairs, st.integers(min_value=0, max_value=5))
def test_multivariate_cdtw_sandwich(pair, band):
    x, y = pair
    d = cdtw_nd(x, y, band=band).distance
    assert d >= dtw_nd(x, y).distance - 1e-9
    wider = cdtw_nd(x, y, band=band + 2).distance
    assert wider <= d + 1e-9
