"""Property-based tests (Hypothesis) for the DTW core invariants.

These encode the mathematical contracts every implementation must
satisfy, checked on arbitrary generated series:

* full DTW == naive reference, is symmetric, non-negative, and zero
  iff a cost-free alignment exists;
* cDTW is monotone non-increasing in the band and sandwiched between
  full DTW and Euclidean;
* FastDTW upper-bounds full DTW for every radius and converges to it;
* recovered paths are valid, respect their windows, and re-evaluate to
  the reported distance;
* the NumPy backend agrees with the pure engine.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.cdtw import cdtw
from repro.core.dtw import dtw
from repro.core.euclidean import euclidean
from repro.core.fastdtw import fastdtw
from repro.core.naive import naive_dtw
from repro.core.numpy_backend import dtw_chunk
from repro.core.paa import halve, paa
from repro.core.window import Window

finite = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
series = st.lists(finite, min_size=1, max_size=24)
series_pair_equal = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.tuples(
        st.lists(finite, min_size=n, max_size=n),
        st.lists(finite, min_size=n, max_size=n),
    )
)

DEADLINE = None  # pure-python DP can be slow on CI boxes


@settings(deadline=DEADLINE, max_examples=60)
@given(series, series)
def test_full_dtw_matches_naive(x, y):
    assert math.isclose(
        dtw(x, y).distance, naive_dtw(x, y), rel_tol=1e-9, abs_tol=1e-9
    )


@settings(deadline=DEADLINE, max_examples=60)
@given(series, series)
def test_full_dtw_symmetric(x, y):
    assert math.isclose(
        dtw(x, y).distance, dtw(y, x).distance, rel_tol=1e-9, abs_tol=1e-9
    )


@settings(deadline=DEADLINE, max_examples=60)
@given(series, series)
def test_full_dtw_nonnegative(x, y):
    assert dtw(x, y).distance >= 0.0


@settings(deadline=DEADLINE, max_examples=60)
@given(series)
def test_identity_of_indiscernibles(x):
    assert dtw(x, x).distance == 0.0


@settings(deadline=DEADLINE, max_examples=60)
@given(series, series)
def test_path_revaluates_to_distance(x, y):
    r = dtw(x, y, return_path=True)
    assert math.isclose(
        r.path.cost(x, y), r.distance, rel_tol=1e-9, abs_tol=1e-9
    )
    assert r.path[0] == (0, 0)
    assert r.path[-1] == (len(x) - 1, len(y) - 1)


@settings(deadline=DEADLINE, max_examples=40)
@given(series_pair_equal, st.integers(min_value=0, max_value=10))
def test_cdtw_sandwich(pair, band):
    x, y = pair
    d = cdtw(x, y, band=band).distance
    assert d >= dtw(x, y).distance - 1e-9
    assert d <= euclidean(x, y) + 1e-9


@settings(deadline=DEADLINE, max_examples=40)
@given(series_pair_equal, st.integers(min_value=0, max_value=8))
def test_cdtw_monotone_in_band(pair, band):
    x, y = pair
    assert (
        cdtw(x, y, band=band + 1).distance
        <= cdtw(x, y, band=band).distance + 1e-9
    )


@settings(deadline=DEADLINE, max_examples=40)
@given(series_pair_equal, st.integers(min_value=0, max_value=8))
def test_cdtw_path_respects_band(pair, band):
    x, y = pair
    r = cdtw(x, y, band=band, return_path=True)
    assert r.path.max_band_deviation() <= band


@settings(deadline=DEADLINE, max_examples=40)
@given(series, series, st.integers(min_value=0, max_value=6))
def test_fastdtw_upper_bounds_full(x, y, radius):
    assert fastdtw(x, y, radius=radius).distance >= (
        dtw(x, y).distance - 1e-9
    )


@settings(deadline=DEADLINE, max_examples=40)
@given(series, series)
def test_fastdtw_converges_at_large_radius(x, y):
    radius = max(len(x), len(y))
    assert math.isclose(
        fastdtw(x, y, radius=radius).distance,
        dtw(x, y).distance,
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


@settings(deadline=DEADLINE, max_examples=40)
@given(series, series, st.integers(min_value=0, max_value=6))
def test_fastdtw_path_is_valid(x, y, radius):
    r = fastdtw(x, y, radius=radius)
    assert r.path[0] == (0, 0)
    assert r.path[-1] == (len(x) - 1, len(y) - 1)
    assert math.isclose(
        r.path.cost(x, y), r.distance, rel_tol=1e-9, abs_tol=1e-9
    )


@settings(deadline=DEADLINE, max_examples=40)
@given(series, series)
def test_numpy_backend_agrees(x, y):
    import numpy as np

    win = Window.full(len(x), len(y))
    assert float(dtw_chunk(np.array([x]), np.array([y]), win)[0]) == (
        dtw(x, y).distance
    )


@settings(deadline=DEADLINE, max_examples=60)
@given(st.lists(finite, min_size=2, max_size=40))
def test_halve_preserves_pair_means(x):
    h = halve(x)
    assert len(h) == len(x) // 2
    for i, v in enumerate(h):
        assert math.isclose(
            v, (x[2 * i] + x[2 * i + 1]) / 2, rel_tol=1e-12, abs_tol=1e-12
        )


@settings(deadline=DEADLINE, max_examples=60)
@given(
    st.lists(finite, min_size=1, max_size=30),
    st.integers(min_value=1, max_value=30),
)
def test_paa_mean_preserved(x, segments):
    if segments > len(x):
        segments = len(x)
    r = paa(x, segments)
    assert len(r) == segments
    assert math.isclose(
        sum(r) / len(r), sum(x) / len(x), rel_tol=1e-6, abs_tol=1e-6
    )


@settings(deadline=DEADLINE, max_examples=60)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=12),
)
def test_band_window_always_feasible(n, m, band):
    w = Window.band(n, m, band)
    # validation in __post_init__ passed; additionally the corners hold
    assert w.contains(0, 0)
    assert w.contains(n - 1, m - 1)
    assert 0 < w.cell_count() <= n * m


@settings(deadline=DEADLINE, max_examples=40)
@given(series_pair_equal)
def test_windowed_result_within_any_band_window(pair):
    x, y = pair
    n = len(x)
    full = dtw(x, y).distance
    for band in (0, max(1, n // 4), n):
        w = Window.band(n, n, band)
        from repro.core.dtw import windowed_dtw

        assert windowed_dtw(x, y, w).distance >= full - 1e-9
