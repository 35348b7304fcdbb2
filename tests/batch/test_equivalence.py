"""Serial-vs-parallel equivalence: the batch engine's core contract.

The engine promises that ``workers`` is an execution detail, never a
semantic one: for any series set, any measure and any worker count,
the batch returns *identical* distances (exact ``==``, not
approximate), identical per-pair and total DP-cell counts, and
identical orderings/tie-breaks.  These tests fuzz that contract with
seeded random series sets across all five measures and
``workers in {1, 2, 4}``.
"""

from __future__ import annotations

import random

import pytest

from repro.batch import (
    BatchExecutor,
    BatchSpec,
    all_pairs,
    argmin_first,
    batch_distances,
    batch_lb_keogh,
)
from repro.core.measures import MEASURES, ND_MEASURES

WORKER_COUNTS = (1, 2, 4)

# Measure name -> engine kwargs, covering every registry entry.
MEASURE_CONFIGS = {
    "dtw": {},
    "cdtw": {"window": 0.2},
    "fastdtw": {"radius": 1},
    "fastdtw_reference": {"radius": 1},
    "euclidean": {},
    "rle_dtw": {},
    "dtw_d": {},
    "cdtw_d": {"window": 0.2},
    "dtw_i": {},
    "cdtw_i": {"window": 0.2},
}


def fuzz_series(seed: int, count: int, length: int):
    """Seeded random series set, values in a DTW-typical range."""
    rng = random.Random(seed)
    return [
        [rng.uniform(-3.0, 3.0) for _ in range(length)]
        for _ in range(count)
    ]


def fuzz_vector_series(seed: int, count: int, length: int, dims: int = 3):
    """Seeded random multivariate series set, (length, dims) samples."""
    rng = random.Random(seed)
    return [
        [
            tuple(rng.uniform(-3.0, 3.0) for _ in range(dims))
            for _ in range(length)
        ]
        for _ in range(count)
    ]


def series_for(measure: str, seed: int, count: int, length: int):
    """Fixture data matched to the measure's dimensionality."""
    if measure in ND_MEASURES:
        return fuzz_vector_series(seed, count, length)
    return fuzz_series(seed, count, length)


def test_every_measure_is_configured():
    assert set(MEASURE_CONFIGS) == set(MEASURES)


class TestDistancesAndCells:
    """Identical distances and cell totals for workers in {1, 2, 4}."""

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_serial_parallel_identical(self, measure, seed):
        series = series_for(measure, seed, count=7, length=30 + 3 * seed)
        kwargs = MEASURE_CONFIGS[measure]
        results = [
            batch_distances(series, measure=measure, workers=w, **kwargs)
            for w in WORKER_COUNTS
        ]
        serial = results[0]
        assert serial.workers == 1
        assert serial.pairs == tuple(all_pairs(len(series)))
        for result in results[1:]:
            # exact equality -- the parallel path must run the very
            # same per-pair computation, not a float-close variant
            assert result.distances == serial.distances
            assert result.cells_per_pair == serial.cells_per_pair
            assert result.cells == serial.cells
            assert result.pairs == serial.pairs

    def test_explicit_pair_order_is_preserved(self):
        series = fuzz_series(4, count=5, length=20)
        # a deliberately scrambled, duplicated pair list
        pairs = [(3, 1), (0, 4), (2, 2), (0, 4), (1, 0)]
        serial = batch_distances(
            series, pairs=pairs, measure="cdtw", window=0.25
        )
        parallel = batch_distances(
            series, pairs=pairs, measure="cdtw", window=0.25,
            workers=4,
        )
        assert serial.pairs == tuple(pairs) == parallel.pairs
        assert serial.distances == parallel.distances
        assert serial.distances[1] == serial.distances[3]  # duplicate pair
        assert serial.distances[2] == 0.0  # self-pair

    def test_normalized_batches_agree(self):
        series = fuzz_series(5, count=6, length=25)
        serial = batch_distances(
            series, measure="euclidean", normalize=True
        )
        parallel = batch_distances(
            series, measure="euclidean", normalize=True, workers=4
        )
        assert serial.distances == parallel.distances


class TestExplicitChunkLists:
    """Any chunk list reassembles to the serial answers.

    The engine's chunks come from the cost model; the executor must
    return the same per-pair outputs in input order for *any* split,
    including one-pair chunks that complete out of order.
    """

    @staticmethod
    def run_chunks(exe, series, spec, chunks):
        results = exe.run_job("distance", spec, series, chunks)
        return [item for part, _, _ in results for item in part]

    @pytest.mark.parametrize("measure", ["cdtw", "fastdtw"])
    def test_chunk_lists_never_change_results(self, measure):
        series = fuzz_series(3, count=6, length=24)
        kwargs = MEASURE_CONFIGS[measure]
        serial = batch_distances(series, measure=measure, **kwargs)
        spec = BatchSpec(measure=measure, **kwargs)
        pairs = list(serial.pairs)
        with BatchExecutor(workers=2, cap=None) as exe:
            for size in (1, 2, 7, 100):
                chunks = [
                    pairs[k:k + size] for k in range(0, len(pairs), size)
                ]
                outputs = self.run_chunks(exe, series, spec, chunks)
                assert tuple(d for d, _, _ in outputs) == serial.distances
                assert sum(c for _, c, _ in outputs) == serial.cells

    def test_one_pair_chunks_under_four_workers(self):
        series = fuzz_series(4, count=5, length=20)
        # scrambled and duplicated, one pair per chunk: completions
        # arrive out of order and must land back in input order
        pairs = [(3, 1), (0, 4), (2, 2), (0, 4), (1, 0), (4, 3),
                 (2, 0), (1, 3)]
        serial = batch_distances(
            series, pairs=pairs, measure="cdtw", window=0.25
        )
        spec = BatchSpec(measure="cdtw", window=0.25)
        with BatchExecutor(workers=4, cap=None) as exe:
            for _ in range(3):
                outputs = self.run_chunks(
                    exe, series, spec, [[pair] for pair in pairs]
                )
                assert (
                    tuple(d for d, _, _ in outputs) == serial.distances
                )
                assert (
                    tuple(c for _, c, _ in outputs)
                    == serial.cells_per_pair
                )
            assert exe.stats.chunks == 3 * len(pairs)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_lb_chunk_lists_never_change_bounds(self, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        series = fuzz_series(5, count=6, length=22)
        serial = batch_lb_keogh(series, band=2, backend=backend)
        pairs = list(serial.pairs)
        with BatchExecutor(workers=4, cap=None) as exe:
            for size in (1, 3, 100):
                chunks = [
                    pairs[k:k + size] for k in range(0, len(pairs), size)
                ]
                results = exe.run_job(
                    "lb", (2, True, backend), series, chunks
                )
                bounds = [b for part, _, _ in results for b in part]
                assert tuple(bounds) == serial.distances


class TestStartMethodAndExecutorColumns:
    """The same contract across the remaining execution columns.

    A ``start_method="spawn"`` executor in inline mode (fresh
    interpreters, the dataset pickled through the pool initializer)
    and a warm :class:`~repro.batch.BatchExecutor` (persistent pool +
    shared-memory datasets, cold then warm call) are execution
    details exactly like ``workers``: every column must reproduce the
    serial distances and cell counts bit for bit.
    """

    @pytest.mark.parametrize("measure", MEASURES)
    def test_spawn_column_identical(self, measure):
        series = series_for(measure, 21, count=5, length=24)
        kwargs = MEASURE_CONFIGS[measure]
        serial = batch_distances(series, measure=measure, **kwargs)
        with BatchExecutor(workers=2, cap=None, start_method="spawn",
                           use_shm=False) as exe:
            spawned = batch_distances(
                series, measure=measure, executor=exe, **kwargs,
            )
        assert spawned.distances == serial.distances
        assert spawned.cells_per_pair == serial.cells_per_pair
        assert spawned.cells == serial.cells

    @pytest.mark.parametrize("measure", MEASURES)
    def test_executor_cold_and_warm_identical(self, measure):
        from repro.batch import BatchExecutor

        series = series_for(measure, 22, count=6, length=26)
        kwargs = MEASURE_CONFIGS[measure]
        serial = batch_distances(series, measure=measure, **kwargs)
        with BatchExecutor(workers=2, cap=None) as exe:
            cold = batch_distances(series, measure=measure,
                                   executor=exe, **kwargs)
            warm = batch_distances(series, measure=measure,
                                   executor=exe, **kwargs)
        for result in (cold, warm):
            assert result.distances == serial.distances
            assert result.cells_per_pair == serial.cells_per_pair
            assert result.cells == serial.cells

    def test_executor_numpy_column_identical(self):
        pytest.importorskip("numpy")
        from repro.batch import BatchExecutor

        series = fuzz_series(23, count=6, length=26)
        serial = batch_distances(series, measure="cdtw", window=0.2)
        with BatchExecutor(workers=2, cap=None) as exe:
            for _ in range(2):  # cold then warm
                result = batch_distances(
                    series, measure="cdtw", window=0.2,
                    backend="numpy", executor=exe,
                )
                assert result.distances == serial.distances
                assert result.cells == serial.cells

    @pytest.mark.parametrize("backend, count, length", [
        ("python", 6, 128), ("numpy", 8, 1000),
    ], ids=["python-6x128", "numpy-8x1000"])
    def test_timed_gate_workloads_identical(self, backend, count, length):
        # the random walks the warm-executor wall-clock gates time: a
        # speed-up only counts if the warm pool returns the serial
        # answers on the very same workload
        if backend == "numpy":
            pytest.importorskip("numpy")
        from repro.batch import BatchExecutor
        from repro.datasets.random_walk import random_walks

        series = random_walks(count, length, seed=0)
        serial = batch_distances(
            series, measure="cdtw", window=0.1, backend=backend
        )
        with BatchExecutor(workers=2, cap=None) as exe:
            for _ in range(2):  # cold then warm
                result = batch_distances(
                    series, measure="cdtw", window=0.1,
                    backend=backend, executor=exe,
                )
                assert result.distances == serial.distances
                assert result.cells_per_pair == serial.cells_per_pair


class TestTieBreaking:
    """First-wins tie-breaks survive parallel execution."""

    def tied_series(self, seed: int, nd: bool = False):
        """A query plus candidates containing exact duplicates."""
        rng = random.Random(seed)
        if nd:
            def draw():
                return [
                    tuple(rng.uniform(-2, 2) for _ in range(3))
                    for _ in range(20)
                ]
        else:
            def draw():
                return [rng.uniform(-2, 2) for _ in range(20)]
        query = draw()
        unique = [draw() for _ in range(3)]
        # candidates 1 and 3 are identical, as are 2 and 4: every
        # distance value appears at least twice
        candidates = [
            unique[0], unique[1], unique[0], unique[1], unique[2]
        ]
        return query, candidates

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_argmin_prefers_first_duplicate(self, measure, workers):
        query, candidates = self.tied_series(
            seed=11, nd=measure in ND_MEASURES
        )
        kwargs = MEASURE_CONFIGS[measure]
        series = [query] + candidates
        pairs = [(0, i + 1) for i in range(len(candidates))]
        result = batch_distances(
            series, pairs=pairs, measure=measure, workers=workers,
            **kwargs,
        )
        idx, best = argmin_first(result.distances)
        # ties exist by construction; the winner must be the first
        # index attaining the minimum, exactly like the serial scans
        assert idx == min(
            i for i, d in enumerate(result.distances) if d == best
        )
        if result.distances.count(best) > 1:
            # a duplicated winner must resolve to its first copy
            assert idx in (0, 1)

    def test_identical_series_all_zero(self):
        base = [float(v) for v in range(12)]
        series = [list(base) for _ in range(4)]
        for workers in WORKER_COUNTS:
            result = batch_distances(
                series, measure="dtw", workers=workers
            )
            assert set(result.distances) == {0.0}


class TestDegenerateBatches:
    def test_empty_pair_list(self):
        series = fuzz_series(0, count=3, length=10)
        for workers in WORKER_COUNTS:
            result = batch_distances(
                series, pairs=[], window=0.2, workers=workers
            )
            assert result.distances == ()
            assert result.cells == 0
            assert result.workers == 1  # nothing to fan out

    def test_single_pair(self):
        series = fuzz_series(1, count=2, length=15)
        serial = batch_distances(series, measure="dtw")
        parallel = batch_distances(series, measure="dtw", workers=4)
        assert serial.distances == parallel.distances
        assert len(serial) == 1


class TestNumpyBackendColumns:
    """The same contract with ``backend="numpy"`` in the grid.

    The numpy backend adds a second execution detail that must stay
    semantics-free: distances and cells match the python backend
    exactly (not approximately), for every worker count, with and
    without the chunk-level vectorised path.
    """

    @pytest.mark.parametrize("measure", ["dtw", "cdtw"])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_python_backend(self, measure, workers):
        series = fuzz_series(11, count=7, length=32)
        kwargs = MEASURE_CONFIGS[measure]
        reference = batch_distances(series, measure=measure, **kwargs)
        result = batch_distances(
            series, measure=measure, workers=workers,
            backend="numpy", **kwargs,
        )
        assert result.distances == reference.distances
        assert result.cells_per_pair == reference.cells_per_pair
        assert result.cells == reference.cells

    def test_ragged_series_group_by_shape(self):
        # unequal lengths force the vectorised path to group pairs by
        # shape; order and values must still match the python backend
        rng = random.Random(12)
        series = [
            [rng.uniform(-3.0, 3.0) for _ in range(length)]
            for length in (20, 28, 20, 24, 28, 20)
        ]
        reference = batch_distances(series, measure="dtw")
        result = batch_distances(series, measure="dtw", backend="numpy")
        assert result.distances == reference.distances
        assert result.cells_per_pair == reference.cells_per_pair

    def test_return_paths_identical(self):
        # paths disable the chunk vectorisation; the per-pair numpy
        # kernel must still recover bit-identical paths
        series = fuzz_series(13, count=5, length=26)
        reference = batch_distances(
            series, measure="cdtw", window=0.2, return_paths=True
        )
        result = batch_distances(
            series, measure="cdtw", window=0.2, return_paths=True,
            backend="numpy",
        )
        assert result.distances == reference.distances
        assert result.paths == reference.paths

    def test_normalized_batches_agree(self):
        series = fuzz_series(14, count=6, length=25)
        reference = batch_distances(
            series, measure="cdtw", window=0.3, normalize=True
        )
        result = batch_distances(
            series, measure="cdtw", window=0.3, normalize=True,
            backend="numpy",
        )
        assert result.distances == reference.distances
        assert result.cells == reference.cells

    def test_callable_cost_rejected_with_guidance(self):
        series = fuzz_series(15, count=3, length=12)
        with pytest.raises(ValueError, match="backend='python'"):
            batch_distances(
                series, measure="dtw", backend="numpy",
                cost=lambda a, b: abs(a - b),
            )

    def test_unknown_backend_rejected(self):
        series = fuzz_series(16, count=3, length=12)
        with pytest.raises(ValueError, match="unknown backend"):
            batch_distances(series, measure="dtw", backend="rust")

    def test_lb_keogh_backend_bounds_valid_and_worker_invariant(self):
        from repro.batch import batch_lb_keogh
        from repro.core.cdtw import cdtw

        series = fuzz_series(17, count=6, length=30)
        band = 3
        python = batch_lb_keogh(series, band=band)
        serial = batch_lb_keogh(series, band=band, backend="numpy")
        pooled = batch_lb_keogh(
            series, band=band, backend="numpy", workers=2
        )
        # worker-invariance is exact within the backend
        assert serial.distances == pooled.distances
        # the chunk kernel folds gap costs in the scalar order, so the
        # numpy bounds are bit-identical to the scalar path -- and of
        # course remain valid lower bounds of the true distance
        assert serial.distances == python.distances
        for (i, j), np_bound in zip(serial.pairs, serial.distances):
            true_d = cdtw(series[i], series[j], band=band).distance
            assert np_bound <= true_d + 1e-9


class TestChunkKernelPath:
    """The stacked chunk-kernel route vs per-pair python dispatch.

    ``backend="numpy"`` distance batches collapse chunks into
    ``dtw_chunk`` calls grouped by ``(n, m, band)``; everything --
    distances, per-pair cells, order -- must stay bit-identical to the
    per-pair python path for every worker count and executor regime.
    """

    def ragged_series(self, seed):
        rng = random.Random(seed)
        lengths = [rng.choice((18, 24, 31)) for _ in range(8)]
        return [
            [rng.uniform(-3.0, 3.0) for _ in range(n)] for n in lengths
        ]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("measure,kwargs", [
        ("dtw", {}),
        ("cdtw", {"window": 0.1}),
        ("cdtw", {"band": 4}),
    ])
    def test_ragged_chunked_matches_python(self, workers, measure,
                                           kwargs):
        series = self.ragged_series(21)
        reference = batch_distances(series, measure=measure, **kwargs)
        chunked = batch_distances(
            series, measure=measure, backend="numpy", workers=workers,
            **kwargs,
        )
        assert chunked.distances == reference.distances
        assert chunked.cells_per_pair == reference.cells_per_pair

    @pytest.mark.parametrize("workers", (1, 2))
    def test_executor_chunked_matches_python(self, workers):
        from repro.batch.executor import BatchExecutor

        series = self.ragged_series(22)
        reference = batch_distances(series, measure="cdtw", window=0.1)
        exe = BatchExecutor(workers=workers, cap=None)
        try:
            # twice: the second call hits the warm dataset + contexts
            for _ in range(2):
                chunked = batch_distances(
                    series, measure="cdtw", window=0.1,
                    backend="numpy", executor=exe,
                )
                assert chunked.distances == reference.distances
                assert (
                    chunked.cells_per_pair == reference.cells_per_pair
                )
        finally:
            exe.shutdown()

    @pytest.mark.parametrize("workers", (1, 2))
    def test_normalized_chunked_matches_python(self, workers):
        series = self.ragged_series(23)
        reference = batch_distances(
            series, measure="cdtw", window=0.2, normalize=True
        )
        chunked = batch_distances(
            series, measure="cdtw", window=0.2, normalize=True,
            backend="numpy", workers=workers,
        )
        assert chunked.distances == reference.distances
        assert chunked.cells == reference.cells

    @pytest.mark.parametrize("workers", (1, 2))
    def test_lb_chunked_bit_equal_to_scalar(self, workers):
        from repro.batch import batch_lb_keogh
        from repro.lowerbounds.envelope import envelope
        from repro.lowerbounds.lb_keogh import lb_keogh

        series = fuzz_series(24, count=6, length=26)
        band = 2
        result = batch_lb_keogh(
            series, band=band, backend="numpy", workers=workers
        )
        for (i, j), bound in zip(result.pairs, result.distances):
            assert bound == lb_keogh(
                envelope(series[i], band), series[j]
            )
