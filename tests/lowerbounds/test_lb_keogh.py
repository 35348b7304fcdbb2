"""Unit tests for LB_Keogh and its reversed variant."""

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.cdtw import cdtw
from repro.lowerbounds.envelope import Envelope, envelope
from repro.lowerbounds.lb_keogh import lb_keogh, lb_keogh_reversed
from tests.conftest import make_series


class TestLbKeogh:
    def test_zero_when_candidate_inside_envelope(self):
        q = [0.0, 5.0, 0.0, -5.0, 0.0]
        env = envelope(q, 2)
        candidate = [0.0, 1.0, 0.0, -1.0, 0.0]
        assert lb_keogh(env, candidate) == 0.0

    def test_known_gap_cost(self):
        q = [0.0, 0.0, 0.0]
        env = envelope(q, 0)
        assert lb_keogh(env, [2.0, 0.0, -1.0]) == 4.0 + 1.0

    def test_abs_gap(self):
        q = [0.0, 0.0, 0.0]
        env = envelope(q, 0)
        assert lb_keogh(env, [2.0, 0.0, -1.0], squared=False) == 3.0

    @pytest.mark.parametrize("band", [0, 1, 3, 7])
    @pytest.mark.parametrize("seed", range(10))
    def test_lower_bounds_cdtw_same_band(self, band, seed):
        q = make_series(20, seed)
        c = make_series(20, seed + 1000)
        env = envelope(q, band)
        lb = lb_keogh(env, c)
        assert lb <= cdtw(q, c, band=band).distance + 1e-9

    def test_tightens_as_band_narrows(self):
        q = make_series(25, 3)
        c = make_series(25, 4)
        lbs = [lb_keogh(envelope(q, b), c) for b in (0, 2, 5, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(lbs, lbs[1:]))

    def test_band_zero_equals_euclidean(self):
        from repro.core.euclidean import euclidean

        q = make_series(15, 5)
        c = make_series(15, 6)
        assert lb_keogh(envelope(q, 0), c) == pytest.approx(
            euclidean(q, c)
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lb_keogh(envelope([1.0, 2.0], 1), [1.0])

    def test_early_abandon(self):
        q = [0.0] * 10
        env = envelope(q, 0)
        c = [10.0] * 10
        assert lb_keogh(env, c, abandon_above=5.0) == math.inf

    def test_no_abandon_below_threshold(self):
        q = make_series(10, 7)
        c = make_series(10, 8)
        env = envelope(q, 1)
        exact = lb_keogh(env, c)
        assert lb_keogh(env, c, abandon_above=exact + 1) == pytest.approx(
            exact
        )


class TestLbKeoghReversed:
    @pytest.mark.parametrize("band", [0, 2, 5])
    def test_lower_bounds_cdtw(self, band):
        for seed in range(10):
            q = make_series(18, seed)
            c = make_series(18, seed + 1100)
            lb = lb_keogh_reversed(q, c, band)
            assert lb <= cdtw(q, c, band=band).distance + 1e-9

    def test_differs_from_forward_in_general(self):
        q = make_series(20, 9)
        c = make_series(20, 10)
        fwd = lb_keogh(envelope(q, 3), c)
        rev = lb_keogh_reversed(q, c, 3)
        # both are valid bounds; they are rarely identical
        assert fwd >= 0 and rev >= 0

    def test_max_of_both_is_still_a_bound(self):
        for seed in range(10):
            q = make_series(16, seed)
            c = make_series(16, seed + 1200)
            band = 2
            combined = max(
                lb_keogh(envelope(q, band), c),
                lb_keogh_reversed(q, c, band),
            )
            assert combined <= cdtw(q, c, band=band).distance + 1e-9


# -- bit-identity of the inlined loop ---------------------------------------

_VALUE = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200]
    ),
)


def _gap(v, lo, hi, squared):
    if v > hi:
        d = v - hi
    elif v < lo:
        d = lo - v
    else:
        return 0.0
    return d * d if squared else d


def _lb_keogh_per_sample(env, candidate, squared=True, abandon_above=None):
    """Reference: add every sample's gap, then test the threshold."""
    total = 0.0
    for i, v in enumerate(candidate):
        total += _gap(v, env.lower[i], env.upper[i], squared)
        if abandon_above is not None and total > abandon_above:
            return math.inf
    return total


def _bits(value):
    return struct.pack("<d", value)


class TestLbKeoghMatchesPerSampleLoop:
    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), squared=st.booleans())
    def test_same_bits_and_same_abandons(self, data, squared):
        n = data.draw(st.integers(1, 24), label="n")
        query = data.draw(st.lists(_VALUE, min_size=n, max_size=n))
        candidate = data.draw(st.lists(_VALUE, min_size=n, max_size=n))
        env = envelope(query, data.draw(st.integers(0, n), label="band"))
        # thresholds at every running sum hit the strict-> boundary
        running, sums = 0.0, []
        for i, v in enumerate(candidate):
            running += _gap(v, env.lower[i], env.upper[i], squared)
            sums.append(running)
        threshold = data.draw(st.one_of(
            st.none(),
            st.sampled_from(
                [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan] + sums
            ),
            st.floats(-5.0, 500.0),
        ), label="threshold")
        want = _lb_keogh_per_sample(env, candidate, squared, threshold)
        got = lb_keogh(env, candidate, squared=squared,
                       abandon_above=threshold)
        assert _bits(got) == _bits(want)
        assert (got == math.inf) == (want == math.inf)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, -math.inf])
    def test_inside_envelope_abandons_only_below_zero(self, threshold):
        env = envelope([0.0, 5.0, 0.0], 1)
        inside = [1.0, 2.0, 3.0]
        want = _lb_keogh_per_sample(env, inside, abandon_above=threshold)
        assert lb_keogh(env, inside, abandon_above=threshold) == want
        assert want == (0.0 if threshold == 0.0 else math.inf)

    @example(threshold=-1.0)
    @given(threshold=st.one_of(st.none(), st.floats(allow_nan=True)))
    def test_empty_candidate_never_abandons(self, threshold):
        empty = Envelope(0, [], [])
        assert lb_keogh(empty, [], abandon_above=threshold) == 0.0
        assert _lb_keogh_per_sample(empty, [], True, threshold) == 0.0
