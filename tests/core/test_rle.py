"""The compressed-domain exact DTW (:mod:`repro.core.rle`).

Three layers of contract:

* **Encoding** -- ``RleSeries`` round-trips float64 bit-exactly
  (signed zeros included), rejects non-finite input with the
  ``validate.py`` wording, and validates its own construction.
* **Exactness** -- on the dyadic grid the block DP's distances and
  cell accounting are ``==``-identical to the dense engine on both
  kernel backends; the python and numpy block kernels are
  bit-identical for *all* float inputs.
* **Cost model** -- cells are exactly ``k*m + l*n`` for the full
  measure, and the adversarial all-runs-length-1 input costs exactly
  twice the dense lattice (the small-constant-overhead guarantee).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.batch.engine import batch_distances
from repro.core.dtw import dtw
from repro.core.rle import (
    RleSeries,
    as_rle,
    rle_block_python,
    rle_dtw,
)
from repro.core.rle_numpy import rle_block_numpy
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

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_dtw_agrees(self, backend, seed):
        rng = random.Random(seed)
        x = step_series(rng, 40 + seed * 7)
        y = step_series(rng, 35 + seed * 5)
        dense = dtw(x, y)
        rle = rle_dtw(x, y, backend=backend)
        assert rle.distance == dense.distance

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cost", ["squared", "abs"])
    def test_costs_agree(self, backend, cost):
        rng = random.Random(11)
        x = step_series(rng, 30)
        y = step_series(rng, 30)
        assert (
            rle_dtw(x, y, cost=cost, backend=backend).distance
            == dtw(x, y, cost=cost).distance
        )

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


class TestBackendParity:
    """python and numpy are bit-identical for ALL floats, not just
    the exactness grid -- both evaluate the same expressions."""

    @pytest.mark.parametrize("seed", range(8))
    def test_block_kernels_identical(self, seed):
        rng = random.Random(seed)
        h, w = rng.randrange(1, 9), rng.randrange(1, 9)
        corner = rng.uniform(-10, 10)
        T = [corner] + [rng.uniform(-1e3, 1e3) for _ in range(w)]
        L = [corner] + [rng.uniform(-1e3, 1e3) for _ in range(h)]
        c = rng.uniform(0.0, 5.0)
        assert rle_block_python(T, L, c, h, w) == rle_block_numpy(
            T, L, c, h, w
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_measures_identical_on_arbitrary_floats(self, seed):
        rng = random.Random(200 + seed)

        def rough_steps(length):
            out = []
            while len(out) < length:
                out.extend(
                    [rng.uniform(-5, 5)] * rng.randrange(1, 6)
                )
            return out[:length]

        x, y = rough_steps(33), rough_steps(29)
        py = rle_dtw(x, y, backend="python")
        np_ = rle_dtw(x, y, backend="numpy")
        assert py.distance == np_.distance
        assert py.cells == np_.cells

    def test_kernel_outputs_are_plain_floats(self):
        # serve answers are JSON-serialised; np.float64 must never
        # leak out of the numpy kernel
        B, R = rle_block_numpy([0.0, 1.0, 2.0], [0.0, 3.0], 1.0, 1, 2)
        for v in B + R:
            assert type(v) is float


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

    @pytest.mark.parametrize("kernel", [rle_block_python,
                                        rle_block_numpy],
                             ids=["python", "numpy"])
    @pytest.mark.parametrize("poison", [float("nan"), 1e308, -1e308])
    def test_trailing_poison_never_read(self, kernel, poison):
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
