"""The compressed-domain exact DTW (:mod:`repro.core.rle`).

Three layers of contract:

* **Encoding** -- ``RleSeries`` round-trips float64 bit-exactly
  (signed zeros included), rejects non-finite input with the
  ``validate.py`` wording, and validates its own construction.
* **Exactness** -- on the dyadic grid the block DP's distances and
  cell accounting are ``==``-identical to the dense engine, and the
  batch engine's ``rle_dtw`` route keeps that on every backend and
  pool size.
* **Cost model** -- cells are exactly ``k*m + l*n`` for the full
  measure, and the adversarial all-runs-length-1 input costs exactly
  twice the dense lattice (the small-constant-overhead guarantee).
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from math import inf

import pytest

from repro.batch.engine import batch_distances
from repro.core.dtw import dtw
from repro.core.rle import (
    RleSeries,
    as_rle,
    rle_block_python,
    rle_dtw,
)
from repro.datasets.power import midnight_hour_pair
from repro.obs import RunTrace

BACKENDS = ("python", "numpy")

#: dyadic value grid where block DP == dense DP is provable
GRID = 2.0 ** -6


def step_series(rng, length, grid=GRID, runs=(1, 7)):
    """A random step function on the dyadic grid."""
    out = []
    while len(out) < length:
        value = rng.randrange(-512, 513) * grid
        out.extend([value] * rng.randrange(*runs))
    return out[:length]


#: the midnight-hour power sweep's dyadic steps, fine grid (runs of
#: length ~1) to coarse grid (compression ratio 12.5)
POWER_STEPS = (2.0 ** -8, 2.0 ** -6, 2.0 ** -4, 2.0 ** -2)


@lru_cache(maxsize=None)
def power_pair(quantize):
    """The quantised midnight-hour traces at length 300 (peaks scaled
    from the length-450 defaults)."""
    pair = midnight_hour_pair(
        length=300, peaks_a=(40, 113, 173), peaks_b=(60, 93, 275),
        quantize=quantize,
    )
    return pair.night_a, pair.night_b


class TestEncodeDecode:
    def test_round_trip_is_bit_exact(self):
        rng = random.Random(0)
        x = [rng.uniform(-100.0, 100.0) for _ in range(64)]
        x[10:20] = [x[10]] * 10
        decoded = RleSeries.encode(x).decode()
        assert decoded == x
        assert all(
            math.copysign(1.0, a) == math.copysign(1.0, b)
            for a, b in zip(decoded, x)
        )

    def test_signed_zeros_are_distinct_runs(self):
        rs = RleSeries.encode([0.0, 0.0, -0.0, 0.0])
        assert rs.run_count == 3
        assert rs.lengths == (2, 1, 1)
        decoded = rs.decode()
        assert math.copysign(1.0, decoded[2]) == -1.0

    def test_run_structure(self):
        rs = RleSeries.encode([1.0, 1.0, 2.0, 2.0, 2.0, 1.0])
        assert rs.values == (1.0, 2.0, 1.0)
        assert rs.lengths == (2, 3, 1)
        assert rs.n == 6
        assert len(rs) == 6
        assert rs.compression_ratio == 2.0

    def test_constant_series_is_one_run(self):
        rs = RleSeries.encode([3.5] * 40)
        assert rs.run_count == 1
        assert rs.compression_ratio == 40.0

    def test_length_one_series(self):
        rs = RleSeries.encode([2.0])
        assert rs.run_count == 1
        assert rs.decode() == [2.0]

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="is empty"):
            RleSeries.encode([], name="x")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected_like_validate(self, bad):
        # same wording as repro.core.validate.validate_series
        with pytest.raises(ValueError, match="sample 2 is not finite"):
            RleSeries.encode([0.0, 1.0, bad], name="x")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            RleSeries.encode([1.0], tolerance=-0.1)

    def test_positive_tolerance_merges_near_values(self):
        rs = RleSeries.encode([1.0, 1.05, 0.95, 2.0], tolerance=0.1)
        assert rs.run_count == 2
        assert rs.values[0] == 1.0  # the run's anchor value

    def test_as_rle_passes_encoded_through(self):
        rs = RleSeries.encode([1.0, 1.0, 2.0])
        assert as_rle(rs, "x") is rs
        assert as_rle([1.0, 1.0, 2.0], "x").values == rs.values


class TestConstructionValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="run values but"):
            RleSeries(values=(1.0, 2.0), lengths=(3,))

    def test_empty(self):
        with pytest.raises(ValueError, match="is empty"):
            RleSeries(values=(), lengths=())

    def test_non_positive_run_length(self):
        with pytest.raises(ValueError, match="positive"):
            RleSeries(values=(1.0,), lengths=(0,))

    def test_bool_run_length_rejected(self):
        with pytest.raises(ValueError, match="int"):
            RleSeries(values=(1.0,), lengths=(True,))

    def test_non_finite_value(self):
        with pytest.raises(ValueError, match="finite"):
            RleSeries(values=(float("inf"),), lengths=(2,))


class TestExactnessGrid:
    def test_dyadic_values_pass(self):
        rs = RleSeries.encode([k * GRID for k in (-64, 0, 511)])
        assert rs.exactness_grid()

    def test_off_grid_values_fail(self):
        assert not RleSeries.encode([math.pi]).exactness_grid()

    def test_magnitude_bound(self):
        assert not RleSeries.encode([128.0]).exactness_grid(
            magnitude=64.0
        )


class TestBitExactAgainstDense:
    """On the dyadic grid: ``==`` on distances and cells, never close."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_dtw_agrees(self, seed):
        rng = random.Random(seed)
        x = step_series(rng, 40 + seed * 7)
        y = step_series(rng, 35 + seed * 5)
        dense = dtw(x, y)
        rle = rle_dtw(x, y)
        assert rle.distance == dense.distance

    @pytest.mark.parametrize("cost", ["squared", "abs"])
    def test_costs_agree(self, cost):
        rng = random.Random(11)
        x = step_series(rng, 30)
        y = step_series(rng, 30)
        assert (
            rle_dtw(x, y, cost=cost).distance
            == dtw(x, y, cost=cost).distance
        )

    @pytest.mark.parametrize("quantize", POWER_STEPS)
    def test_quantized_power_pair_agrees(self, quantize):
        x, y = power_pair(quantize)
        assert RleSeries.encode(x).exactness_grid()
        assert RleSeries.encode(y).exactness_grid()
        assert rle_dtw(x, y).distance == dtw(x, y).distance

    def test_constant_vs_constant(self):
        assert rle_dtw([2.0] * 30, [2.0] * 50).distance == 0.0
        dense = dtw([1.0] * 12, [3.0] * 9)
        assert rle_dtw([1.0] * 12, [3.0] * 9).distance == dense.distance

    def test_length_one_inputs(self):
        assert (
            rle_dtw([1.0], [2.0, 2.0, 3.0]).distance
            == dtw([1.0], [2.0, 2.0, 3.0]).distance
        )


class TestCellAccounting:
    def test_full_cells_are_km_plus_ln(self):
        rng = random.Random(5)
        x = step_series(rng, 48)
        y = step_series(rng, 31)
        rx, ry = RleSeries.encode(x), RleSeries.encode(y)
        result = rle_dtw(x, y)
        assert result.cells == (
            rx.run_count * ry.n + ry.run_count * rx.n
        )

    def test_all_runs_length_one_costs_twice_dense(self):
        # the adversarial input: no run longer than 1 sample.  The
        # block DP must degrade to a small constant over dense, never
        # blow up -- here exactly 2 * n * m boundary cells.
        n = 24
        x = [float(i % 2) + i * GRID for i in range(n)]
        y = [float((i + 1) % 2) + i * GRID for i in range(n)]
        assert RleSeries.encode(x).run_count == n
        dense = dtw(x, y)
        rle = rle_dtw(x, y)
        assert rle.distance == dense.distance
        assert rle.cells == 2 * dense.cells

    @pytest.mark.parametrize("quantize", POWER_STEPS)
    def test_quantized_power_pair_cells(self, quantize):
        # k*m + l*n at every level, and never past twice the dense
        # lattice even where runs are ~1 sample long
        x, y = power_pair(quantize)
        rx, ry = RleSeries.encode(x), RleSeries.encode(y)
        cells = rle_dtw(x, y).cells
        assert cells == rx.run_count * ry.n + ry.run_count * rx.n
        assert 0 < cells <= 2 * dtw(x, y).cells

    def test_coarse_power_pair_computes_fewer_cells_than_dense(self):
        # where rle_dtw's wall-clock win comes from: at compression
        # ratio 12.5 the block DP touches under a fifth of the lattice
        x, y = power_pair(POWER_STEPS[-1])
        assert 5 * rle_dtw(x, y).cells < dtw(x, y).cells


class TestPaths:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_path_is_valid_and_optimal(self, seed):
        rng = random.Random(40 + seed)
        x = step_series(rng, 28)
        y = step_series(rng, 22)
        result = rle_dtw(x, y, return_path=True)
        # WarpingPath construction already validates monotonicity and
        # endpoints; the DP cross-check is cost-sum == distance
        assert result.path.cost(x, y) == result.distance

    def test_unique_path_matches_dense(self):
        # a staircase with one clearly optimal alignment
        x = [0.0] * 4 + [4.0] * 4 + [8.0] * 4
        y = [0.0] * 2 + [4.0] * 6 + [8.0] * 4
        dense = dtw(x, y, return_path=True)
        rle = rle_dtw(x, y, return_path=True)
        assert rle.distance == dense.distance
        assert rle.path.cost(x, y) == dense.path.cost(x, y)

    @pytest.mark.parametrize("quantize", POWER_STEPS)
    def test_quantized_power_pair_path_is_optimal(self, quantize):
        x, y = power_pair(quantize)
        result = rle_dtw(x, y, return_path=True)
        assert result.path.cost(x, y) == result.distance
        assert result.distance == dtw(x, y).distance


def dense_block(T, L, c, h, w):
    """The block's bottom row and right column by the dense DP:
    ``D(r, s) = c + min(D(r-1, s), D(r, s-1), D(r-1, s-1))`` over the
    ``h x w`` cells, with ``T``/``L`` as row 0/column 0."""
    D = [[inf] * (w + 1) for _ in range(h + 1)]
    D[0] = list(T)
    for r in range(1, h + 1):
        D[r][0] = L[r]
        for s in range(1, w + 1):
            D[r][s] = c + min(D[r - 1][s], D[r][s - 1], D[r - 1][s - 1])
    return D[h][1:], [D[r][w] for r in range(1, h + 1)]


class TestBlockKernel:
    """``rle_block_python`` -- the one block sweep -- against the
    dense DP over the same block, on the dyadic grid where the two
    forms are provably ``==``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_block_dp(self, seed):
        rng = random.Random(300 + seed)

        def entry():
            # unreachable boundary cells are inf, as in the sweep
            if rng.random() < 0.15:
                return inf
            return rng.randrange(0, 4096) * GRID

        for _ in range(200):
            h, w = rng.randrange(1, 13), rng.randrange(1, 13)
            corner = rng.randrange(0, 4096) * GRID
            T = [corner] + [entry() for _ in range(w)]
            L = [corner] + [entry() for _ in range(h)]
            c = rng.randrange(0, 512) * GRID  # zero cost included
            assert rle_block_python(T, L, c, h, w) == dense_block(
                T, L, c, h, w
            ), (T, L, c, h, w)


class TestBatchPath:
    """The batch engine's ``rle_dtw`` route keeps the exactness
    contract on every backend and pool size."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_distances_equal_dense_dtw(self, backend, workers):
        rng = random.Random(60)
        series = [step_series(rng, 30 + 3 * i) for i in range(5)]
        rle = batch_distances(
            series, measure="rle_dtw", backend=backend, workers=workers
        )
        dense = batch_distances(series, measure="dtw")
        assert rle.pairs == dense.pairs
        assert rle.distances == dense.distances
        assert rle.cells_per_pair == tuple(
            rle_dtw(series[i], series[j]).cells for i, j in rle.pairs
        )


class TestPoisonedScratch:
    """Mirror of the chunk kernels' ``count=`` padding contract: the
    block kernel must read only the declared ``w+1``/``h+1`` boundary
    entries, never scratch beyond them."""

    @pytest.mark.parametrize("poison", [float("nan"), 1e308, -1e308])
    def test_trailing_poison_never_read(self, poison):
        kernel = rle_block_python
        rng = random.Random(31)
        h, w = 4, 6
        corner = rng.uniform(-5, 5)
        T = [corner] + [rng.uniform(-5, 5) for _ in range(w)]
        L = [corner] + [rng.uniform(-5, 5) for _ in range(h)]
        clean = kernel(list(T), list(L), 2.5, h, w)
        # hand the kernel views sliced out of poisoned buffers: any
        # out-of-bounds read would drag NaN/1e308 into a min
        pt = T + [poison] * 8
        pl = L + [poison] * 8
        poisoned = kernel(pt[:w + 1], pl[:h + 1], 2.5, h, w)
        assert poisoned == clean


class TestObsCounters:
    def test_rle_counters_recorded(self):
        rng = random.Random(3)
        x = step_series(rng, 30)
        y = step_series(rng, 25)
        rx, ry = RleSeries.encode(x), RleSeries.encode(y)
        with RunTrace() as trace:
            result = rle_dtw(x, y)
        assert trace.counter("dp.calls") == 1
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("rle.runs") == (
            rx.run_count + ry.run_count
        )
        assert trace.counter("rle.block_cells") == result.cells

    def test_untraced_calls_have_no_overhead_path(self):
        assert rle_dtw([1.0, 1.0], [1.0]).distance == 0.0


class TestCostValidation:
    def test_negative_local_cost_rejected(self):
        # negative block costs break the staircase optimality proof
        with pytest.raises(ValueError, match="non-negative"):
            rle_dtw([0.0, 1.0], [1.0], cost=lambda a, b: a - b - 5.0)
