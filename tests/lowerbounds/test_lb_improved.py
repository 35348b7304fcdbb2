"""LB_Improved: admissibility and dominance.

Lemire's two-pass bound is an exported library function (the cascade
does not run it: on the benchmark workloads it cost more than the DPs
it pruned), so its contract gets the same adversarial coverage as the
cascade's bounds: property-tested ``<= cDTW`` and provably
``>= LB_Keogh``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cdtw import cdtw
from repro.lowerbounds.envelope import Envelope, envelope
from repro.lowerbounds.lb_improved import clip_to_envelope, lb_improved
from repro.lowerbounds.lb_keogh import lb_keogh
from tests.conftest import make_series

finite = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
pair_and_band = st.integers(min_value=1, max_value=18).flatmap(
    lambda n: st.tuples(
        st.lists(finite, min_size=n, max_size=n),
        st.lists(finite, min_size=n, max_size=n),
        st.integers(min_value=0, max_value=n),
    )
)


@settings(deadline=None, max_examples=60)
@given(pair_and_band)
def test_lb_improved_below_banded_dtw(args):
    x, y, band = args
    assert lb_improved(x, y, band) <= cdtw(x, y, band=band).distance + 1e-9


@settings(deadline=None, max_examples=60)
@given(pair_and_band)
def test_lb_improved_below_banded_dtw_abs_cost(args):
    x, y, band = args
    assert (
        lb_improved(x, y, band, squared=False)
        <= cdtw(x, y, band=band, cost="abs").distance + 1e-9
    )


@settings(deadline=None, max_examples=60)
@given(pair_and_band)
def test_lb_improved_dominates_lb_keogh(args):
    x, y, band = args
    keogh = lb_keogh(envelope(x, band), y)
    assert lb_improved(x, y, band) >= keogh


class TestClipToEnvelope:
    def test_inside_values_unchanged(self):
        env = Envelope(1, [2.0, 3.0, 4.0], [0.0, 1.0, 2.0])
        assert clip_to_envelope([1.0, 2.0, 3.0], env) == [1.0, 2.0, 3.0]

    def test_outside_values_clamped(self):
        env = Envelope(0, [1.0, 1.0], [-1.0, -1.0])
        assert clip_to_envelope([5.0, -5.0], env) == [1.0, -1.0]

    def test_length_mismatch_raises(self):
        env = Envelope(0, [1.0], [0.0])
        with pytest.raises(ValueError, match="length"):
            clip_to_envelope([1.0, 2.0], env)

    def test_matches_numpy_clip_bit_for_bit(self):
        np = pytest.importorskip("numpy")
        x = make_series(40, seed=1)
        env = envelope(make_series(40, seed=2), 3)
        scalar = clip_to_envelope(x, env)
        vector = np.clip(
            np.asarray(x), np.asarray(env.lower), np.asarray(env.upper)
        )
        assert scalar == list(vector)


class TestScalarSemantics:
    def test_equals_keogh_plus_second_pass(self):
        # the two passes combine with one addition; reusing a
        # precomputed first pass must not change the value
        x = make_series(30, seed=5)
        y = make_series(30, seed=6)
        band = 3
        env = envelope(x, band)
        keogh = lb_keogh(env, y)
        full = lb_improved(x, y, band)
        assert full == lb_improved(x, y, band, keogh=keogh)
        assert full == lb_improved(x, y, band, query_envelope=env)
        assert full >= keogh

    def test_identical_series_bound_is_zero(self):
        x = make_series(20, seed=7)
        assert lb_improved(x, x, 2) == 0.0

    def test_constant_series(self):
        # degenerate envelope: upper == lower == the constant
        q = [2.5] * 8
        c = make_series(8, seed=8)
        band = 2
        got = lb_improved(q, c, band)
        assert got <= cdtw(q, c, band=band).distance + 1e-9
        assert got >= lb_keogh(envelope(q, band), c)

    def test_length_two_series(self):
        q = [0.0, 1.0]
        c = [3.0, -2.0]
        for band in (0, 1, 2):
            got = lb_improved(q, c, band)
            assert got <= cdtw(q, c, band=band).distance + 1e-9

    def test_band_wider_than_series_still_admissible(self):
        x = make_series(10, seed=9)
        y = make_series(10, seed=10)
        assert lb_improved(x, y, 50) <= cdtw(x, y, band=50).distance + 1e-9

    def test_band_zero_reduces_to_pointwise(self):
        # band 0 envelopes are the series themselves: the first pass is
        # the full squared distance and the second pass adds nothing
        x = make_series(12, seed=11)
        y = make_series(12, seed=12)
        pointwise = sum((a - b) ** 2 for a, b in zip(x, y))
        assert lb_improved(x, y, 0) == pointwise

    def test_abandon_decision_matches_full_bound(self):
        x = make_series(25, seed=13)
        y = make_series(25, seed=14)
        full = lb_improved(x, y, 2)
        assert full > 0
        # threshold == bound: not provably above, must not abandon
        assert lb_improved(x, y, 2, abandon_above=full) == full
        # threshold just below: must abandon
        assert lb_improved(x, y, 2, abandon_above=full * 0.999) == math.inf

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="equal-length"):
            lb_improved([1.0, 2.0], [1.0, 2.0, 3.0], 1)

    def test_mismatched_query_envelope_raises(self):
        x = make_series(10, seed=15)
        with pytest.raises(ValueError, match="query_envelope"):
            lb_improved(x, x, 2, query_envelope=envelope(x, 3))
        with pytest.raises(ValueError, match="query_envelope"):
            lb_improved(x, x, 2, query_envelope=envelope(x[:5], 2))
