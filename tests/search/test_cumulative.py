"""Unit tests for cumulative-suffix-bound early abandoning."""

import math

import pytest

from repro.core.cdtw import cdtw
from repro.lowerbounds.envelope import envelope
from repro.search.cumulative import (
    cdtw_cumulative_abandon,
    suffix_gap_bounds,
)
from tests.conftest import make_series


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
    def test_nearest_unchanged_by_cumulative_stage(self):
        from repro.lowerbounds.cascade import CascadeBatch

        query = make_series(24, 16)
        candidates = [make_series(24, s + 900) for s in range(12)]
        with_cum = CascadeBatch(candidates, band=3, use_cumulative=True)
        without = CascadeBatch(candidates, band=3, use_cumulative=False)
        a, b = with_cum.nearest(query), without.nearest(query)
        assert (a.index, a.distance) == pytest.approx((b.index, b.distance))

    def test_cumulative_stage_comparable_cell_work(self):
        # per-call the suffix bound abandons no later in the *same*
        # orientation (tested above); at cascade level the orientations
        # differ (the cumulative stage scans candidate rows against the
        # precomputed query envelope), so only comparable totals are
        # guaranteed
        from repro.lowerbounds.cascade import CascadeBatch

        query = make_series(24, 17)
        candidates = [make_series(24, s + 950) for s in range(15)]
        flags = dict(use_improved=False, best_first=False)
        with_cum = CascadeBatch(
            candidates, band=3, use_cumulative=True, **flags
        ).nearest(query)
        without = CascadeBatch(
            candidates, band=3, use_cumulative=False, **flags
        ).nearest(query)
        assert with_cum.stats.cells <= without.stats.cells * 1.5
        assert with_cum.stats.pruned_total() >= 1
