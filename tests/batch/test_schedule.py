"""Cost-model chunk planning: the scheduler prices pairs correctly.

The planner's promise is twofold: (1) its per-pair cost predictions
for the exact measures are the *same* cell counts the DP ends up
reporting, and (2) regrouping pairs into cost-balanced chunks never
reorders them -- the flattened plan is always the input pair order.
The cost model is the engine's only chunk plan.
"""

import math

import pytest

from repro.batch import BatchExecutor, batch_distances
from repro.batch.schedule import (
    OVERSUBSCRIBE,
    chunk_band,
    chunk_cost_summary,
    distance_pair_cost,
    group_chunk,
    lb_pair_cost,
    plan_chunks,
)
from tests.conftest import make_series


class TestDistancePairCost:
    def test_cdtw_cost_equals_reported_cells(self):
        # the planner's prediction and the engine's provenance must be
        # the same number, cell for cell -- same Window geometry
        series = [make_series(n, s) for s, n in enumerate((20, 31, 27))]
        lengths = tuple(len(s) for s in series)
        result = batch_distances(series, measure="cdtw", band=4)
        cost = distance_pair_cost(lengths, "cdtw", band=4)
        for (i, j), cells in zip(result.pairs, result.cells_per_pair):
            assert cost(i, j) == cells

    def test_cdtw_window_fraction_cost_matches(self):
        series = [make_series(n, s) for s, n in enumerate((24, 24, 36))]
        lengths = tuple(len(s) for s in series)
        result = batch_distances(series, measure="cdtw", window=0.15)
        cost = distance_pair_cost(lengths, "cdtw", window=0.15)
        for (i, j), cells in zip(result.pairs, result.cells_per_pair):
            assert cost(i, j) == cells

    def test_dtw_cost_equals_reported_cells(self):
        series = [make_series(n, s) for s, n in enumerate((18, 25, 22))]
        lengths = tuple(len(s) for s in series)
        result = batch_distances(series, measure="dtw")
        cost = distance_pair_cost(lengths, "dtw")
        for (i, j), cells in zip(result.pairs, result.cells_per_pair):
            assert cost(i, j) == cells

    def test_fastdtw_cost_uses_salvador_chan_model(self):
        from repro.timing.cells import fastdtw_cell_model

        lengths = (100, 200)
        cost = distance_pair_cost(lengths, "fastdtw", radius=2)
        assert cost(0, 1) == fastdtw_cell_model(200, 2)

    def test_euclidean_cost_is_linear(self):
        cost = distance_pair_cost((10, 30), "euclidean")
        assert cost(0, 1) == 10  # min(n, m)

    def test_costs_are_positive(self):
        cost = distance_pair_cost((1, 1), "euclidean")
        assert cost(0, 1) >= 1

    def test_lb_cost_is_candidate_length(self):
        cost = lb_pair_cost((10, 25, 40))
        assert cost(0, 2) == 40
        assert cost(2, 0) == 10


class TestRegistryCostModel:
    """The planner prices from the measure registry (no fallback)."""

    def test_unknown_measure_raises(self):
        # the old hardcoded branch silently fell back to a wrong
        # model; unknown measures must now fail loudly
        with pytest.raises(ValueError, match="unknown measure"):
            distance_pair_cost((10, 10), "edr")

    def test_rle_requires_run_counts(self):
        with pytest.raises(ValueError, match="run_counts"):
            distance_pair_cost((10, 10), "rle_dtw")

    def test_rle_cost_is_boundary_cells(self):
        cost = distance_pair_cost(
            (100, 80), "rle_dtw", run_counts=(5, 4)
        )
        assert cost(0, 1) == 5 * 80 + 4 * 100

    def test_rle_cost_equals_reported_cells(self):
        from repro.core.rle import RleSeries

        series = [
            [0.0] * 6 + [1.0] * 8 + [2.0] * 4,
            [1.0] * 9 + [0.5] * 9,
            [0.0] * 3 + [2.0] * 3 + [0.0] * 12,
        ]
        lengths = tuple(len(s) for s in series)
        run_counts = tuple(
            RleSeries.encode(s).run_count for s in series
        )
        result = batch_distances(series, measure="rle_dtw")
        cost = distance_pair_cost(
            lengths, "rle_dtw", run_counts=run_counts
        )
        for (i, j), cells in zip(result.pairs, result.cells_per_pair):
            assert cost(i, j) == cells


class TestPlanChunks:
    def test_flatten_preserves_input_order(self):
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        chunks = plan_chunks(pairs, lambda i, j: (i + j) ** 2, workers=3)
        assert [p for c in chunks for p in c] == pairs
        assert all(chunks)  # no empty chunks

    def test_expensive_pair_gets_small_chunk(self):
        # one pair costing more than the whole rest must sit alone (or
        # at the end of a chunk), never drag cheap pairs behind it
        pairs = [(0, 1), (0, 2), (0, 3), (0, 4)]
        costs = {(0, 1): 1, (0, 2): 1000, (0, 3): 1, (0, 4): 1}
        chunks = plan_chunks(
            pairs, lambda i, j: costs[(i, j)], workers=2
        )
        heavy = next(c for c in chunks if (0, 2) in c)
        assert heavy[-1] == (0, 2)  # the heavy pair closes its chunk

    def test_uniform_costs_match_legacy_granularity(self):
        # equal costs degrade to ~oversubscribe chunks per worker,
        # i.e. the shape of a fixed ceil(pairs / (workers * 4)) split
        pairs = [(0, i) for i in range(1, 33)]
        chunks = plan_chunks(pairs, lambda i, j: 10, workers=2)
        legacy = math.ceil(len(pairs) / (2 * OVERSUBSCRIBE))
        assert all(len(c) <= legacy for c in chunks)
        assert len(chunks) >= len(pairs) // legacy

    def test_balance_improves_on_blind_chunking(self):
        # skewed lengths: cost-model chunks are more level than
        # fixed-pair-count chunks of the same count
        lengths = tuple([400] * 2 + [20] * 10)
        pairs = [
            (i, j)
            for i in range(len(lengths))
            for j in range(i + 1, len(lengths))
        ]
        cost = distance_pair_cost(lengths, "dtw")
        planned = plan_chunks(pairs, cost, workers=4)
        size = max(1, len(pairs) // len(planned))
        blind = [
            pairs[k:k + size] for k in range(0, len(pairs), size)
        ]
        assert (
            chunk_cost_summary(planned, cost)["imbalance"]
            <= chunk_cost_summary(blind, cost)["imbalance"]
        )

    def test_empty_pairs(self):
        assert plan_chunks([], lambda i, j: 1, workers=2) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            plan_chunks([(0, 1)], lambda i, j: 1, workers=0)
        with pytest.raises(ValueError, match="oversubscribe"):
            plan_chunks([(0, 1)], lambda i, j: 1, workers=1,
                        oversubscribe=0)

    def test_summary_of_empty_plan(self):
        summary = chunk_cost_summary([], lambda i, j: 1)
        assert summary["chunks"] == 0
        assert summary["imbalance"] == 1.0


class TestEngineChunkPlan:
    """The engine hands the executor the cost model's plan."""

    def test_engine_plans_by_cost_model(self, monkeypatch):
        # one long series among short ones: every pair touching it
        # costs more than all the others together, so the cost model
        # ends a chunk right after each, which a pair-count split
        # cannot do
        series = [make_series(8, s) for s in range(5)]
        series[2] = make_series(400, 2)
        plans = []
        with BatchExecutor(workers=2, cap=None) as exe:
            run_job = exe.run_job

            def recording(kind, params, series_t, chunks, traced=False):
                plans.append([list(c) for c in chunks])
                return run_job(kind, params, series_t, chunks,
                               traced=traced)

            monkeypatch.setattr(exe, "run_job", recording)
            result = batch_distances(series, measure="dtw", executor=exe)
        [chunks] = plans
        assert [p for c in chunks for p in c] == list(result.pairs)
        heavy = [pair for pair in result.pairs if 2 in pair]
        for pair in heavy:
            chunk = next(c for c in chunks if pair in c)
            assert chunk[-1] == pair
        lengths = tuple(len(s) for s in series)
        assert chunks == plan_chunks(
            list(result.pairs), distance_pair_cost(lengths, "dtw"), 2
        )


class TestChunkBand:
    def test_dtw_is_unconstrained(self):
        band_for = chunk_band("dtw")
        assert band_for(10, 20) is None

    def test_fraction_matches_window_geometry(self):
        # must agree with Window.from_fraction's ceil convention, or a
        # group's shared Window would disagree with the per-pair path
        from repro.core.window import Window

        band_for = chunk_band("cdtw", window=0.13)
        for n, m in ((10, 10), (17, 23), (100, 99), (3, 3)):
            expected = Window.from_fraction(n, m, 0.13)
            got = Window.band(n, m, band_for(n, m))
            assert got.ranges == expected.ranges

    def test_fraction_grid_matches_from_fraction_band(self):
        # over every whole percent, including the products that binary
        # floating point rounds above an integer (0.07 * 100, 0.14 * 50)
        from repro.core.window import Window, band_from_fraction

        shapes = ((7, 7), (50, 50), (96, 96), (100, 100), (128, 128),
                  (17, 23), (100, 99), (50, 150))
        for percent in range(1, 101):
            window = percent / 100
            band_for = chunk_band("cdtw", window=window)
            for n, m in shapes:
                band = band_for(n, m)
                assert band == band_from_fraction(window, max(n, m))
                # the same memo key, hence the very window the
                # per-pair path builds
                assert (Window.band(n, m, band)
                        is Window.from_fraction(n, m, window))
        assert chunk_band("cdtw", window=0.07)(100, 100) == 7
        assert chunk_band("cdtw", window=0.14)(50, 50) == 7

    def test_absolute_band_shape_independent(self):
        band_for = chunk_band("cdtw", band=5)
        assert band_for(10, 10) == band_for(500, 700) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            chunk_band("cdtw")
        with pytest.raises(ValueError, match="exactly one"):
            chunk_band("cdtw", window=0.1, band=3)
        with pytest.raises(ValueError, match="euclidean"):
            chunk_band("euclidean", band=3)


class TestGroupChunk:
    LENGTHS = (20, 20, 13, 13, 20, 8)

    def mixed_chunk(self):
        return [(0, 1), (2, 3), (0, 4), (5, 2), (4, 1), (3, 2), (0, 5)]

    def test_mixed_shapes_produce_multiple_groups(self):
        groups = group_chunk(self.mixed_chunk(), self.LENGTHS)
        assert len(groups) >= 2

    def test_no_pair_dropped_or_duplicated(self):
        chunk = self.mixed_chunk()
        groups = group_chunk(chunk, self.LENGTHS)
        positions = sorted(p for g in groups for p in g.positions)
        assert positions == list(range(len(chunk)))
        rebuilt = sorted(p for g in groups for p in g.pairs)
        assert rebuilt == sorted(chunk)

    def test_groups_are_shape_homogeneous(self):
        band_for = chunk_band("cdtw", window=0.1)
        for g in group_chunk(
            self.mixed_chunk(), self.LENGTHS, band_for=band_for
        ):
            for i, j in g.pairs:
                assert (self.LENGTHS[i], self.LENGTHS[j]) == (g.n, g.m)
                assert band_for(g.n, g.m) == g.band

    def test_first_occurrence_order_and_ascending_positions(self):
        chunk = self.mixed_chunk()
        groups = group_chunk(chunk, self.LENGTHS)
        firsts = [g.positions[0] for g in groups]
        assert firsts == sorted(firsts)
        for g in groups:
            assert list(g.positions) == sorted(g.positions)
            assert g.pairs == tuple(chunk[t] for t in g.positions)

    def test_band_splits_otherwise_equal_shapes(self):
        # same (n, m) but different resolved band -> different Window
        # -> must not share a group
        chunk = [(0, 1), (0, 1)]
        groups = group_chunk(
            chunk, (10, 10),
            band_for=lambda n, m, _c=iter((1, 2)): next(_c),
        )
        assert len(groups) == 2

    def test_cost_totals_preserved(self):
        # regrouping must not change the cost model's view of a chunk
        chunk = self.mixed_chunk()
        cost = distance_pair_cost(self.LENGTHS, "cdtw", window=0.1)
        groups = group_chunk(
            chunk, self.LENGTHS,
            band_for=chunk_band("cdtw", window=0.1),
        )
        group_total = sum(
            sum(cost(i, j) for i, j in g.pairs) for g in groups
        )
        assert group_total == sum(cost(i, j) for i, j in chunk)

    def test_reassembly_deterministic_under_any_completion_order(self):
        # simulate imap_unordered steals: whatever order groups (or
        # chunks) complete in, writing through `positions` rebuilds
        # exactly the input order
        import random as _random

        chunk = self.mixed_chunk()
        groups = group_chunk(chunk, self.LENGTHS)
        expected = list(chunk)
        for seed in range(5):
            shuffled = list(groups)
            _random.Random(seed).shuffle(shuffled)
            out = [None] * len(chunk)
            for g in shuffled:
                for pos, pair in zip(g.positions, g.pairs):
                    out[pos] = pair
            assert out == expected

    def test_uniform_chunk_is_one_group(self):
        chunk = [(0, 1), (1, 4), (4, 0)]
        groups = group_chunk(chunk, self.LENGTHS)
        assert len(groups) == 1
        assert groups[0].positions == (0, 1, 2)
