"""Property tests for subsequence search (Hypothesis).

Exactness of the pruned search against a brute-force scan, for
arbitrary streams, queries, bands and strides.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.core.cdtw import cdtw
from repro.preprocess.normalize import znorm
from repro.preprocess.sliding import sliding_windows
from repro.search.subsequence import (
    subsequence_search,
    subsequence_search_topk,
)

finite = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)


@st.composite
def search_tasks(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    extra = draw(st.integers(min_value=1, max_value=25))
    stream = draw(
        st.lists(finite, min_size=m + extra, max_size=m + extra)
    )
    query = draw(st.lists(finite, min_size=m, max_size=m))
    band = draw(st.integers(min_value=0, max_value=3))
    step = draw(st.integers(min_value=1, max_value=3))
    return query, stream, band, step


@settings(deadline=None, max_examples=40)
@given(search_tasks())
# window 1 (5.999999999999997) beats window 0 (5.999999999999998) by
# one ulp; the cumulative bound's rounding once abandoned it
@example((
    [0.0] * 6, [0.0, 2.093058495226801, -2.5, 0.0, 0.0, -1.0, 0.0], 0, 1,
))
def test_search_matches_brute_force(task):
    query, stream, band, step = task
    match = subsequence_search(query, stream, band=band, step=step)
    q = znorm(query)
    best = math.inf
    best_start = None
    for start, w in sliding_windows(stream, len(query), step):
        d = cdtw(q, znorm(w), band=band).distance
        if d < best:
            best, best_start = d, start
    assert math.isclose(match.distance, best, rel_tol=1e-9, abs_tol=1e-9)
    assert match.start == best_start


@settings(deadline=None, max_examples=30)
@given(search_tasks())
def test_topk_first_equals_single_best(task):
    query, stream, band, step = task
    single = subsequence_search(query, stream, band=band, step=step)
    top = subsequence_search_topk(
        query, stream, band=band, k=2, step=step
    )
    assert top, "top-k returned nothing"
    assert top[0].start == single.start
    assert math.isclose(
        top[0].distance, single.distance, rel_tol=1e-9, abs_tol=1e-9
    )


@settings(deadline=None, max_examples=30)
@given(search_tasks(), st.integers(min_value=1, max_value=4))
def test_topk_sorted_and_disjoint(task, k):
    query, stream, band, step = task
    matches = subsequence_search_topk(
        query, stream, band=band, k=k, step=step
    )
    distances = [m.distance for m in matches]
    assert distances == sorted(distances)
    starts = [m.start for m in matches]
    m_len = len(query)
    for i, a in enumerate(starts):
        for b in starts[i + 1:]:
            assert abs(a - b) >= m_len
