"""Unit tests for cumulative-suffix-bound early abandoning."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cdtw import cdtw
from repro.index import build_index
from repro.lowerbounds.envelope import envelope
from repro.preprocess.normalize import znorm
from repro.runtime import Runtime
from repro.search.cumulative import (
    cdtw_cumulative_abandon,
    suffix_gap_bounds,
)
from repro.search.nn_search import nearest_neighbor
from repro.search.subsequence import subsequence_search
from tests.conftest import make_series


def _suffix_two_pass(x, env, squared):
    """Reference: every gap first, then sums from the tail."""
    gaps = []
    for i, v in enumerate(x):
        if v > env.upper[i]:
            d = v - env.upper[i]
        elif v < env.lower[i]:
            d = env.lower[i] - v
        else:
            d = 0.0
        gaps.append(d * d if squared else d)
    out = [0.0] * len(x)
    acc = 0.0
    for i in range(len(x) - 1, -1, -1):
        out[i] = acc
        acc += gaps[i]
    return out


class TestSuffixGapBounds:
    def test_last_entry_zero(self):
        x = make_series(10, 1)
        env = envelope(make_series(10, 2), 2)
        assert suffix_gap_bounds(x, env)[-1] == 0.0

    def test_non_increasing(self):
        x = make_series(20, 3)
        env = envelope(make_series(20, 4), 2)
        suffix = suffix_gap_bounds(x, env)
        assert all(a >= b - 1e-12 for a, b in zip(suffix, suffix[1:]))

    def test_zero_when_inside_envelope(self):
        y = make_series(15, 5)
        env = envelope(y, 3)
        assert suffix_gap_bounds(list(y), env) == [0.0] * 15

    def test_first_entry_is_lb_keogh_minus_own_gap(self):
        from repro.lowerbounds.lb_keogh import lb_keogh

        x = make_series(12, 6)
        y = make_series(12, 7)
        env = envelope(y, 1)
        suffix = suffix_gap_bounds(x, env)
        total = lb_keogh(env, x)
        # suffix[0] excludes x[0]'s own gap
        assert suffix[0] <= total + 1e-12

    def test_length_mismatch_rejected(self):
        env = envelope([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            suffix_gap_bounds([1.0], env)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), squared=st.booleans())
    def test_same_bits_as_gaps_then_tail_sums(self, data, squared):
        value = st.one_of(
            st.floats(-10.0, 10.0),
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e200]),
        )
        n = data.draw(st.integers(1, 24), label="n")
        x = data.draw(st.lists(value, min_size=n, max_size=n))
        y = data.draw(st.lists(value, min_size=n, max_size=n))
        env = envelope(y, data.draw(st.integers(0, n), label="band"))
        got = suffix_gap_bounds(x, env, squared=squared)
        want = _suffix_two_pass(x, env, squared)
        assert [struct.pack("<d", v) for v in got] == [
            struct.pack("<d", v) for v in want
        ]


class TestCumulativeAbandon:
    def test_exact_when_completing(self):
        x = make_series(20, 8)
        y = make_series(20, 9)
        exact = cdtw(x, y, band=3).distance
        r = cdtw_cumulative_abandon(x, y, band=3, threshold=exact + 1)
        assert not r.abandoned
        assert r.distance == pytest.approx(exact)

    def test_abandons_far_pair(self):
        r = cdtw_cumulative_abandon(
            [0.0] * 20, [9.0] * 20, band=2, threshold=1.0
        )
        assert r.abandoned
        assert r.distance == math.inf

    def test_abandons_no_later_than_plain(self):
        # the suffix bound only ever tightens the abandon test
        for seed in range(10):
            x = make_series(30, seed)
            y = make_series(30, seed + 400)
            exact = cdtw(x, y, band=3).distance
            threshold = exact * 0.5
            plain = cdtw(x, y, band=3, abandon_above=threshold)
            cumulative = cdtw_cumulative_abandon(
                x, y, band=3, threshold=threshold
            )
            assert cumulative.cells <= plain.cells

    def test_soundness(self):
        # whenever it abandons, the true distance really exceeds the
        # threshold
        for seed in range(20):
            x = make_series(25, seed)
            y = make_series(25, seed + 800)
            exact = cdtw(x, y, band=2).distance
            r = cdtw_cumulative_abandon(
                x, y, band=2, threshold=exact * 0.8
            )
            if r.abandoned:
                assert exact > exact * 0.8 or exact == 0.0

    def test_rounding_never_abandons_a_pair_within_threshold(self):
        # min(row) + suffix rounds above this pair's completed distance
        # (5.999999999999997); a threshold at or one ulp above that
        # distance must still let the DP complete
        x = znorm([2.093058495226801, -2.5, 0.0, 0.0, -1.0, 0.0])
        y = [0.0] * 6
        exact = cdtw(x, y, band=0).distance
        assert exact == 5.999999999999997
        for threshold in (exact, math.nextafter(exact, math.inf)):
            r = cdtw_cumulative_abandon(x, y, band=0, threshold=threshold)
            assert not r.abandoned
            assert r.distance == exact

    @pytest.mark.parametrize("squared", [True, False],
                             ids=["squared", "abs"])
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_never_abandons_at_the_completed_distance(self, squared,
                                                      data):
        # the rounding allowance's contract: a threshold at (or one ulp
        # above) the completed distance lets the DP finish, exactly
        n = data.draw(st.integers(1, 12), label="n")
        values = st.floats(-5.0, 5.0, allow_nan=False)
        x = data.draw(st.lists(values, min_size=n, max_size=n), label="x")
        y = data.draw(st.lists(values, min_size=n, max_size=n), label="y")
        band = data.draw(st.integers(0, n), label="band")
        env = envelope(y, data.draw(st.integers(band, n), label="env"))
        exact = cdtw(
            x, y, band=band, cost="squared" if squared else "abs"
        ).distance
        for threshold in (exact, math.nextafter(exact, math.inf)):
            r = cdtw_cumulative_abandon(
                x, y, band=band, threshold=threshold, y_envelope=env,
                squared=squared,
            )
            assert not r.abandoned
            assert r.distance == exact

    def test_precomputed_envelope_accepted(self):
        x = make_series(15, 10)
        y = make_series(15, 11)
        env = envelope(y, 2)
        exact = cdtw(x, y, band=2).distance
        r = cdtw_cumulative_abandon(
            x, y, band=2, threshold=exact + 1, y_envelope=env
        )
        assert r.distance == pytest.approx(exact)

    def test_narrow_envelope_rejected(self):
        x = make_series(10, 12)
        y = make_series(10, 13)
        env = envelope(y, 1)
        with pytest.raises(ValueError, match="narrower"):
            cdtw_cumulative_abandon(
                x, y, band=3, threshold=1.0, y_envelope=env
            )

    def test_wider_envelope_allowed(self):
        x = make_series(10, 14)
        y = make_series(10, 15)
        env = envelope(y, 5)
        exact = cdtw(x, y, band=2).distance
        r = cdtw_cumulative_abandon(
            x, y, band=2, threshold=exact + 1, y_envelope=env
        )
        assert r.distance == pytest.approx(exact)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            cdtw_cumulative_abandon(
                [1.0, 2.0], [1.0, 2.0, 3.0], band=1, threshold=1.0
            )


class TestCascadeWithCumulative:
    """The cascade's exact stage runs the cumulative suffix bound; the
    reference is the ``"cdtw"`` strategy's full scan."""

    def test_nearest_unchanged_by_cumulative_stage(self):
        from repro.lowerbounds.cascade import CascadeBatch
        from repro.search.nn_search import nearest_neighbor

        query = make_series(24, 16)
        candidates = [make_series(24, s + 900) for s in range(12)]
        hit = CascadeBatch(candidates, band=3).nearest(query)
        full = nearest_neighbor(query, candidates, "cdtw", band=3)
        assert (hit.index, hit.distance) == (full.index, full.distance)

    def test_cumulative_stage_comparable_cell_work(self):
        from repro.lowerbounds.cascade import CascadeBatch
        from repro.search.nn_search import nearest_neighbor

        query = make_series(24, 17)
        candidates = [make_series(24, s + 950) for s in range(15)]
        hit = CascadeBatch(candidates, band=3).nearest(query)
        full = nearest_neighbor(query, candidates, "cdtw", band=3)
        assert hit.stats.cells < full.cells
        assert hit.stats.abandoned_dtw >= 1
        assert hit.stats.pruned_total() >= 1


#: two z-normalised windows whose band-0 distances to a flat query
#: differ in the last ulp: 5.999999999999998 then 5.999999999999997.
#: With the first as best-so-far, min(row) + suffix for the second
#: once rounded above it and the closer window was abandoned.
TIE_STREAM = [0.0, 2.093058495226801, -2.5, 0.0, 0.0, -1.0, 0.0]
TIE_QUERY = [0.0] * 6
TIE_CANDIDATES = [znorm(TIE_STREAM[i:i + 6]) for i in range(2)]


class TestOneUlpTie:
    """Every consumer of the cumulative bound returns the window that
    is closer by one ulp."""

    def test_the_distances_differ_by_one_ulp(self):
        far, near = (
            cdtw(TIE_QUERY, c, band=0).distance for c in TIE_CANDIDATES
        )
        assert near == 5.999999999999997
        assert math.nextafter(near, math.inf) == far

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_nearest_neighbor(self, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        hit = nearest_neighbor(
            TIE_QUERY, TIE_CANDIDATES, band=0,
            runtime=Runtime(backend=backend),
        )
        assert (hit.index, hit.distance) == (1, 5.999999999999997)

    def test_index_searcher(self):
        hit = build_index(TIE_CANDIDATES, 0).searcher().nearest(TIE_QUERY)
        assert (hit.index, hit.distance) == (1, 5.999999999999997)

    def test_subsequence_search(self):
        match = subsequence_search(TIE_QUERY, TIE_STREAM, band=0, step=1)
        assert (match.start, match.distance) == (1, 5.999999999999997)
        assert match.stats.abandoned_dtw == 0
