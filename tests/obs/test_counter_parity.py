"""The counter-parity contract: traces agree with result provenance.

The ``dp.*`` counters are only trustworthy if they reconcile *exactly*
-- bit-exactly, not approximately -- with the cell counts the results
themselves carry, for every backend and worker count the engine
supports.  These are the property tests the ISSUE acceptance names.
"""

import pytest

from repro.batch.engine import batch_distances, batch_lb_keogh
from repro.core.cdtw import cdtw
from repro.core.fastdtw import fastdtw
from repro.core.fastdtw_reference import fastdtw_reference
from repro.lowerbounds.cascade import CascadeBatch
from repro.obs import RunTrace, active_trace
from repro.search.nn_search import nearest_neighbor
from tests.conftest import make_series

BACKENDS = ("python", "numpy")
WORKER_COUNTS = (1, 2, 4)


def _numpy_or_skip(backend):
    if backend == "numpy":
        pytest.importorskip("numpy")


class TestBatchCounterParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("measure", ["dtw", "cdtw"])
    def test_dp_cells_match_batch_result(self, backend, workers, measure):
        _numpy_or_skip(backend)
        series = [make_series(24, s) for s in range(6)]
        kwargs = {"measure": measure, "backend": backend}
        if measure == "cdtw":
            kwargs["band"] = 3
        with RunTrace() as trace:
            result = batch_distances(series, workers=workers, **kwargs)
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("dp.calls") == len(result.pairs)
        assert trace.counter("batch.pairs") == len(result.pairs)
        assert trace.counter("batch.jobs") == 1
        if workers > 1:
            assert trace.counter("pool.chunks") > 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_fastdtw_measure_parity(self, workers):
        series = [make_series(32, s + 10) for s in range(5)]
        with RunTrace() as trace:
            result = batch_distances(
                series, measure="fastdtw", radius=1, workers=workers
            )
        assert trace.counter("dp.cells") == result.cells

    @pytest.mark.parametrize("workers", (1, 2))
    def test_fastdtw_reference_measure_parity(self, workers):
        series = [make_series(32, s + 20) for s in range(4)]
        with RunTrace() as trace:
            result = batch_distances(
                series, measure="fastdtw_reference", radius=1,
                workers=workers,
            )
        assert trace.counter("dp.cells") == result.cells

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_backend_invariant(self, backend):
        # the numpy kernels must report the same dp.* numbers as the
        # pure engine (distances/cells are already bit-identical)
        _numpy_or_skip(backend)
        series = [make_series(24, s) for s in range(5)]
        with RunTrace() as trace:
            batch_distances(series, measure="cdtw", band=3,
                            backend=backend)
        with RunTrace() as reference:
            batch_distances(series, measure="cdtw", band=3,
                            backend="python")
        assert (
            trace.counter("dp.cells") == reference.counter("dp.cells")
        )
        assert (
            trace.counter("dp.calls") == reference.counter("dp.calls")
        )


class TestExecutorCounterParity:
    """A warm executor reconciles exactly like a call-scoped one."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_cold_and_warm_parity(self, start_method):
        import multiprocessing

        from repro.batch import BatchExecutor

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        series = [make_series(24, s) for s in range(6)]
        with BatchExecutor(workers=2, cap=None,
                           start_method=start_method) as exe:
            for call in ("cold", "warm"):
                with RunTrace() as trace:
                    result = batch_distances(
                        series, measure="cdtw", band=3, executor=exe
                    )
                assert trace.counter("dp.cells") == result.cells, call
                assert trace.counter("dp.calls") == len(result.pairs)
                # the executor's scheduling counters mirror the pool's
                assert (
                    trace.counter("sched.chunks")
                    == trace.counter("pool.chunks")
                )
            assert trace.counter("pool.reused") == 1
            assert trace.counter("shm.datasets") == 0  # shipped cold

    def test_shipping_counters_recorded(self):
        from repro.batch import BatchExecutor

        series = [make_series(24, s) for s in range(5)]
        with RunTrace() as trace:
            with BatchExecutor(workers=2, cap=None) as exe:
                batch_distances(series, measure="cdtw", band=3,
                                executor=exe)
        assert trace.counter("pool.created") == 1
        if exe.use_shm:
            assert trace.counter("shm.datasets") == 1
            assert trace.counter("shm.bytes") == exe.stats.bytes_shipped
        assert trace.counter("sched.chunks") == exe.stats.chunks
        assert trace.counter("sched.steals") == exe.stats.steals

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_executor_backend_parity(self, backend):
        _numpy_or_skip(backend)
        from repro.batch import BatchExecutor

        series = [make_series(24, s) for s in range(6)]
        with BatchExecutor(workers=2, cap=None) as exe:
            with RunTrace() as trace:
                result = batch_distances(
                    series, measure="cdtw", band=3, backend=backend,
                    executor=exe,
                )
        assert trace.counter("dp.cells") == result.cells


class TestRuntimeCounterParity:
    """The runtime=-constructed column reconciles like every other.

    The unified execution context must be counter-transparent: a
    batch configured through a ``Runtime`` value reports the same
    ``dp.*`` numbers as the engine-native kwargs, and an activated
    runtime's process default reaches traced consumers unchanged.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_runtime_constructed_batch_parity(self, backend, workers):
        _numpy_or_skip(backend)
        from repro.runtime import Runtime

        series = [make_series(24, s) for s in range(6)]
        rt = Runtime(workers=workers, backend=backend)
        with RunTrace() as trace:
            result = batch_distances(
                series, measure="cdtw", band=3, runtime=rt
            )
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("dp.calls") == len(result.pairs)
        assert trace.counter("batch.pairs") == len(result.pairs)
        with RunTrace() as native:
            batch_distances(
                series, measure="cdtw", band=3, workers=workers,
                backend=backend,
            )
        assert trace.counter("dp.cells") == native.counter("dp.cells")
        assert trace.counter("dp.calls") == native.counter("dp.calls")

    def test_activated_runtime_default_parity(self):
        from repro.runtime import Runtime, use_runtime

        series = [make_series(24, s) for s in range(6)]
        with use_runtime(Runtime(workers=2)):
            with RunTrace() as trace:
                result = batch_distances(series, measure="cdtw", band=3)
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("pool.chunks") > 0

    def test_runtime_consumer_parity(self):
        from repro.core.matrix import distance_matrix
        from repro.runtime import Runtime

        series = [make_series(24, s) for s in range(6)]
        with RunTrace() as trace:
            matrix = distance_matrix(
                series, measure="cdtw", band=3,
                runtime=Runtime(workers=2),
            )
        assert trace.counter("dp.cells") == matrix.cells


class TestSingleCallParity:
    def test_fastdtw_cells(self):
        x, y = make_series(128, 1), make_series(128, 2)
        with RunTrace() as trace:
            result = fastdtw(x, y, radius=2, keep_levels=True)
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("fastdtw.levels") == len(result.levels)
        assert trace.counter("fastdtw.calls") == 1

    def test_fastdtw_reference_cells(self):
        x, y = make_series(64, 3), make_series(64, 4)
        with RunTrace() as trace:
            result = fastdtw_reference(x, y, radius=1)
        assert trace.counter("dp.cells") == result.cells

    def test_cdtw_cells(self):
        x, y = make_series(48, 5), make_series(48, 6)
        with RunTrace() as trace:
            result = cdtw(x, y, band=4)
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("dp.calls") == 1

    def test_cascade_counters_match_stats(self):
        query = make_series(48, 7)
        candidates = [make_series(48, s + 30) for s in range(8)]
        cascade = CascadeBatch(candidates, 4)
        with RunTrace() as trace:
            stats = cascade.nearest(query).stats
        assert trace.counter("lb.candidates") == stats.candidates
        assert trace.counter("lb.pruned_kim") == stats.pruned_kim
        assert trace.counter("lb.pruned_keogh") == stats.pruned_keogh
        assert (
            trace.counter("lb.pruned_keogh_reversed")
            == stats.pruned_keogh_reversed
        )
        assert trace.counter("lb.abandoned_dtw") == stats.abandoned_dtw
        assert trace.counter("lb.full_dtw") == stats.full_dtw
        assert trace.counter("dp.cells") == stats.cells

    def test_nn_search_cells(self):
        query = make_series(40, 8)
        candidates = [make_series(40, s + 50) for s in range(6)]
        with RunTrace() as trace:
            result = nearest_neighbor(
                query, candidates, strategy="cdtw", band=4
            )
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("nn.queries") == 1
        assert trace.counter("nn.candidates") == len(candidates)


class TestDisabledTraceUntouched:
    def test_no_trace_no_counters(self):
        # computations outside any RunTrace must leave a subsequently
        # opened trace empty -- nothing buffers or leaks
        x, y = make_series(48, 9), make_series(48, 10)
        fastdtw(x, y, radius=1)
        cdtw(x, y, band=4)
        batch_distances([x, y], measure="cdtw", band=4)
        with RunTrace() as trace:
            pass
        assert trace.counters() == {}
        assert trace.spans() == {}

    def test_results_identical_with_and_without_trace(self):
        x, y = make_series(64, 11), make_series(64, 12)
        plain = fastdtw(x, y, radius=1)
        with RunTrace():
            traced = fastdtw(x, y, radius=1)
        assert plain.distance == traced.distance
        assert plain.cells == traced.cells
        assert plain.path.cells == traced.path.cells

    def test_worker_initializer_clears_inherited_trace(self):
        # fork-started workers inherit the parent's _ACTIVE; the
        # initializer must reset it, and the parent's trace must end
        # up with exactly the merged worker counts (no double counting)
        series = [make_series(24, s) for s in range(6)]
        plain = batch_distances(series, measure="cdtw", band=3, workers=2)
        with RunTrace() as trace:
            traced = batch_distances(
                series, measure="cdtw", band=3, workers=2
            )
        assert traced.distances == plain.distances
        assert trace.counter("dp.cells") == traced.cells
        assert active_trace() is None


class TestChunkCounterParity:
    """The stacked chunk-kernel path: new ``chunk.*`` counters plus
    unchanged ``dp.*`` parity across workers and executor regimes."""

    def ragged(self):
        return [make_series(n, s) for s, n in enumerate(
            (24, 24, 17, 17, 24, 17, 24, 17)
        )]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_chunk_counters_and_dp_parity(self, workers):
        pytest.importorskip("numpy")
        series = self.ragged()
        with RunTrace() as trace:
            result = batch_distances(
                series, measure="cdtw", window=0.1,
                backend="numpy", workers=workers,
            )
        # every pair passes through exactly one stacked kernel call
        assert trace.counter("chunk.pairs") == len(result.pairs)
        assert trace.counter("chunk.groups") >= 1
        assert trace.counter("chunk.calls") == trace.counter(
            "chunk.groups"
        )
        assert trace.counter("chunk.pad_rows") >= 0
        # dp.* parity is untouched by the chunked route
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("dp.calls") == len(result.pairs)
        with RunTrace() as py_trace:
            batch_distances(
                series, measure="cdtw", window=0.1, workers=workers
            )
        assert trace.counter("dp.cells") == py_trace.counter("dp.cells")
        assert trace.counter("dp.calls") == py_trace.counter("dp.calls")

    def test_per_pair_python_path_has_no_chunk_counters(self):
        series = self.ragged()
        with RunTrace() as trace:
            batch_distances(series, measure="cdtw", window=0.1)
        assert trace.counter("chunk.calls") == 0
        assert trace.counter("chunk.groups") == 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_executor_chunk_counters(self, workers):
        pytest.importorskip("numpy")
        from repro.batch.executor import BatchExecutor

        series = self.ragged()
        exe = BatchExecutor(workers=workers, cap=None)
        try:
            batch_distances(
                series, measure="cdtw", window=0.1,
                backend="numpy", executor=exe,
            )  # untimed warm-up: attach dataset, build contexts
            with RunTrace() as trace:
                result = batch_distances(
                    series, measure="cdtw", window=0.1,
                    backend="numpy", executor=exe,
                )
        finally:
            exe.shutdown()
        assert trace.counter("chunk.pairs") == len(result.pairs)
        assert trace.counter("chunk.groups") >= 1
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("dp.calls") == len(result.pairs)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_lb_chunk_counters(self, workers):
        pytest.importorskip("numpy")
        series = [make_series(20, s) for s in range(6)]
        with RunTrace() as trace:
            result = batch_lb_keogh(
                series, band=2, backend="numpy", workers=workers
            )
        assert trace.counter("chunk.pairs") == len(result.pairs)
        assert trace.counter("chunk.groups") >= 1
        assert trace.counter("lb.invocations") == len(result.pairs)


class TestCascadeChunkPrefilterParity:
    """The cascade's chunked prefilter replays the scalar decisions."""

    def workload(self):
        query = make_series(40, 70)
        candidates = [make_series(40, s + 71) for s in range(12)]
        return query, candidates

    @staticmethod
    def logical_invocations(stats):
        """One kim per candidate, one keogh per kim survivor and one
        reversed keogh per keogh survivor."""
        kim_survivors = stats.candidates - stats.pruned_kim
        return (
            stats.candidates + kim_survivors
            + (kim_survivors - stats.pruned_keogh)
        )

    def cascade(self, candidates, backend):
        from repro.runtime import Runtime

        return CascadeBatch(candidates, 3, runtime=Runtime(backend=backend))

    def test_stats_identical_across_backends(self):
        pytest.importorskip("numpy")
        query, candidates = self.workload()
        outcomes = {}
        for backend in BACKENDS:
            hit = self.cascade(candidates, backend).nearest(query)
            outcomes[backend] = (hit.index, float(hit.distance), hit.stats)
        assert outcomes["python"] == outcomes["numpy"]

    def test_numpy_trace_reconciles_with_stats(self):
        pytest.importorskip("numpy")
        query, candidates = self.workload()
        cascade = self.cascade(candidates, "numpy")
        with RunTrace() as trace:
            stats = cascade.nearest(query).stats
        assert trace.counter("lb.candidates") == stats.candidates
        assert trace.counter("lb.pruned_kim") == stats.pruned_kim
        assert trace.counter("lb.pruned_keogh") == stats.pruned_keogh
        assert (
            trace.counter("lb.pruned_keogh_reversed")
            == stats.pruned_keogh_reversed
        )
        assert trace.counter("lb.abandoned_dtw") == stats.abandoned_dtw
        assert trace.counter("lb.full_dtw") == stats.full_dtw
        assert trace.counter("dp.cells") == stats.cells
        # one stacked kernel call each for the kim and keogh bounds
        assert trace.counter("lb.chunk_prefilter") == 2
        # lb.invocations counts logical stage evaluations in replay
        # order, whether or not a prefilter computed them up front
        assert (
            trace.counter("lb.invocations")
            == self.logical_invocations(stats)
        )

    def test_python_prefilter_is_scalar_and_uncounted(self):
        query, candidates = self.workload()
        cascade = self.cascade(candidates, "python")
        with RunTrace() as trace:
            stats = cascade.nearest(query).stats
        assert trace.counter("lb.chunk_prefilter") == 0
        assert (
            trace.counter("lb.invocations")
            == self.logical_invocations(stats)
        )
