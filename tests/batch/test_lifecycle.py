"""Regression tests for the executor/shm lifecycle bug sweep.

Three latent bugs, each of which used to pass silently:

* the module-level ``default_executor()`` singleton had no pid guard
  of its own, so a forked child inherited and reused the parent's
  executor handle (stale pool fds; ``/dev/shm`` double-unlink risk
  when the child's globals were garbage collected);
* a worker exception mid-``imap_unordered`` abandoned the warm pool
  half-drained, and the next job on the same executor could hang or
  see the orphaned tasks' results;
* ``ShmDataset.close()`` unlinked unconditionally, so a forked child
  closing an inherited handle took the parent's live segment down.

Every test here fails on the pre-fix code.
"""

import gc
import multiprocessing
import os

import pytest

from repro.batch import (
    BatchExecutor,
    batch_distances,
    batch_lb_keogh,
    default_executor,
    shutdown_default_executor,
)
from repro.batch import executor as executor_mod
from repro.batch.executor import _resolve_workers
from repro.batch.shm import ShmDataset, pack_dataset, shm_available
from tests.conftest import make_series

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _series(count=5, length=20, offset=0):
    return [make_series(length, s + offset) for s in range(count)]


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    from repro.batch.shm import _suppress_tracking

    try:
        with _suppress_tracking():
            seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


def _run_in_fork(child) -> int:
    """``os.fork`` + run ``child()`` + ``os._exit`` with its result.

    ``os._exit`` skips atexit/GC in the child so the *only* effects we
    observe are the ones ``child`` performs explicitly.
    """
    pid = os.fork()
    if pid == 0:  # pragma: no cover - exits before coverage writes
        code = 1
        try:
            code = int(child())
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestDefaultExecutorForkSafety:
    def teardown_method(self):
        shutdown_default_executor()

    def test_forked_child_gets_fresh_singleton(self):
        parent_exe = default_executor()

        def child():
            inherited = executor_mod._DEFAULT
            fresh = default_executor()
            return 0 if (
                inherited is parent_exe
                and fresh is not inherited
                and executor_mod._DEFAULT_PID == os.getpid()
            ) else 1

        assert _run_in_fork(child) == 0
        # the parent's singleton is untouched by the child's re-key
        assert default_executor() is parent_exe

    @pytest.mark.skipif(not shm_available(), reason="no shared memory")
    def test_child_shutdown_spares_parent_segments(self):
        series = _series()
        exe = default_executor()
        serial = batch_distances(series, measure="cdtw", band=3)
        warm = batch_distances(series, measure="cdtw", band=3,
                               executor=exe)
        names = exe.segment_names()
        assert names

        def child():
            # pre-fix: this shut down the *parent's* executor object,
            # and the child's exit could unlink the parent's segments
            shutdown_default_executor()
            fresh = default_executor()
            return 0 if fresh._state["pid"] == os.getpid() else 1

        assert _run_in_fork(child) == 0
        assert all(_segment_exists(n) for n in names)
        again = batch_distances(series, measure="cdtw", band=3,
                                executor=exe)
        assert warm.distances == serial.distances == again.distances


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
@pytest.mark.skipif(not shm_available(), reason="no shared memory")
class TestShmOwnerPidGuard:
    def test_child_close_detaches_without_unlink(self):
        payload, lengths, fp = pack_dataset(_series(count=2, length=8))
        dataset = ShmDataset(payload, lengths, fp)
        try:
            assert _run_in_fork(lambda: 0 if (
                dataset.close() or _segment_exists(dataset.name)
            ) else 1) == 0
            # parent's segment survived the child's close()
            assert _segment_exists(dataset.name)
        finally:
            dataset.close()
        assert not _segment_exists(dataset.name)

    def test_child_gc_spares_inherited_registry(self):
        exe = BatchExecutor(workers=2, cap=None)
        try:
            series = _series(offset=7)
            batch_distances(series, measure="cdtw", band=3, executor=exe)
            names = exe.segment_names()
            assert names

            def child():
                # drop every reference the child holds and force the
                # collector: pre-fix, ShmDataset.__del__ unlinked the
                # parent's live segments from here
                exe._state["datasets"].clear()
                gc.collect()
                return 0

            assert _run_in_fork(child) == 0
            assert all(_segment_exists(n) for n in names)
        finally:
            exe.shutdown()
        assert not any(_segment_exists(n) for n in names)


class TestErrorPathPoolRecycling:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_crashing_task_recycles_pool_keeps_residency(
        self, start_method
    ):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        series = _series()
        serial = batch_distances(series, measure="cdtw", band=3)
        with BatchExecutor(workers=2, cap=None,
                           start_method=start_method) as exe:
            warm = batch_distances(series, measure="cdtw", band=3,
                                   executor=exe)
            names = exe.segment_names()
            # a chunk naming a series that does not exist crashes in
            # the worker mid-drain (same shape as any task exception)
            with pytest.raises(IndexError):
                exe.run_job(
                    "lb", (3, True, "python"), series,
                    chunks=[[(0, 1)], [(0, 999)]],
                )
            assert exe.stats.pools_poisoned == 1
            # residency survives the recycle: nothing re-shipped...
            assert exe.segment_names() == names
            shipped = exe.stats.datasets_shipped
            # ...and the next job gets a fresh pool and exact results
            again = batch_distances(series, measure="cdtw", band=3,
                                    executor=exe)
            assert again.distances == warm.distances == serial.distances
            assert exe.stats.pools_created == 2
            assert exe.stats.datasets_shipped == shipped

    def test_repeated_failures_keep_recycling(self):
        series = _series(offset=3)
        with BatchExecutor(workers=2, cap=None) as exe:
            for expected in (1, 2):
                with pytest.raises(IndexError):
                    exe.run_job(
                        "lb", (3, True, "python"), series,
                        chunks=[[(0, 999)]],
                    )
                assert exe.stats.pools_poisoned == expected
            result = batch_distances(series, measure="cdtw", band=3,
                                     executor=exe)
        serial = batch_distances(series, measure="cdtw", band=3)
        assert result.distances == serial.distances


#: a sample value :func:`_exploding_cost` refuses
_POISON = 999.0


def _exploding_cost(a, b):
    """The squared cost, failing on :data:`_POISON` like any error a
    worker can raise mid-job."""
    if a == _POISON or b == _POISON:
        raise ValueError("poisoned sample")
    return (a - b) * (a - b)


def _child_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _shm_names():
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(os.listdir("/dev/shm"))


class TestCallScopedExecutor:
    """``workers=N`` without an executor runs on a ``BatchExecutor``
    scoped to the call, which leaves no process or segment behind on
    any exit."""

    @pytest.fixture
    def made(self, monkeypatch):
        """Every BatchExecutor built while the test runs."""
        made = []
        init = BatchExecutor.__init__

        def recording(exe, *args, **kwargs):
            init(exe, *args, **kwargs)
            made.append(exe)

        monkeypatch.setattr(BatchExecutor, "__init__", recording)
        return made

    @pytest.mark.parametrize("entry", ["distances", "lb_keogh"])
    def test_no_child_or_segment_left(self, entry, made):
        series = _series(offset=50)
        children, segments = _child_pids(), _shm_names()
        if entry == "distances":
            result = batch_distances(series, band=3, workers=2)
            serial = batch_distances(series, band=3)
        else:
            result = batch_lb_keogh(series, band=3, workers=2)
            serial = batch_lb_keogh(series, band=3)
        assert result.distances == serial.distances
        assert result.workers == 2
        [exe] = made
        assert exe.closed and not exe.use_shm
        assert exe.stats.pools_created == 1
        assert _child_pids() <= children
        assert _shm_names() <= segments

    def test_worker_error_still_shuts_the_pool_down(self, made):
        series = _series(offset=60)
        series[3] = list(series[3])
        series[3][5] = _POISON
        children, segments = _child_pids(), _shm_names()
        with pytest.raises(ValueError, match="poisoned sample"):
            batch_distances(series, measure="dtw", cost=_exploding_cost,
                            workers=2)
        [exe] = made
        assert exe.closed
        assert exe.stats.pools_poisoned == 1
        assert _child_pids() <= children
        assert _shm_names() <= segments

    def test_workers_capped_at_eight_per_cpu(self, made, monkeypatch):
        # the job is refused before dispatch, so no pool is started:
        # the scoped executor still takes cap=None's bound and still
        # shuts down on the way out
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)

        def refuse(exe, *args, **kwargs):
            raise RuntimeError("dispatch refused")

        monkeypatch.setattr(BatchExecutor, "_run_once", refuse)
        with pytest.raises(RuntimeError, match="dispatch refused"):
            batch_distances(_series(), band=3, workers=9)
        [exe] = made
        assert exe.workers == 8
        assert exe.closed

    def test_each_call_builds_and_ends_its_own_pool(self, made):
        series = _series(offset=70)
        first = batch_distances(series, band=3, workers=2)
        second = batch_distances(series, band=3, workers=2)
        assert first.distances == second.distances
        assert len(made) == 2
        assert all(exe.closed for exe in made)

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    @pytest.mark.parametrize("measure", ["cdtw", "dtw", "fastdtw"])
    def test_unpicklable_cost_callable(self, measure, made):
        # a lambda cannot be pickled; the job rides in the pool
        # initializer, which a forked worker inherits unpickled
        series = _series(count=6, offset=80)
        cost = lambda a, b: abs(a - b)  # noqa: E731
        kwargs = {"band": 3} if measure == "cdtw" else {}
        serial = batch_distances(series, measure=measure, cost=cost,
                                 **kwargs)
        result = batch_distances(series, measure=measure, cost=cost,
                                 workers=2, **kwargs)
        assert result.distances == serial.distances
        assert result.cells == serial.cells
        [exe] = made
        assert exe.closed and exe.stats.pools_created == 1

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_distance_matrix_with_a_closure_cost(self):
        from repro.core.matrix import distance_matrix
        from repro.runtime import Runtime

        scale = 0.5

        def cost(a, b):
            return scale * (a - b) * (a - b)

        series = _series(count=6, offset=90)
        serial = distance_matrix(series, band=3, cost=cost)
        parallel = distance_matrix(series, band=3, cost=cost,
                                   runtime=Runtime(workers=2))
        assert parallel.values == serial.values

    def test_one_job_pool_ends_with_its_job(self):
        series = _series(offset=95)
        with BatchExecutor(workers=2, cap=None, use_shm=False) as exe:
            results = exe._run_once(
                "lb", (3, True, "python"), series, [[(0, 1)], [(1, 2)]],
            )
            assert exe.closed
            with pytest.raises(RuntimeError, match="shut down"):
                exe._run_once("lb", (3, True, "python"), series,
                              [[(0, 1)]])
        serial = batch_lb_keogh(series, pairs=[(0, 1), (1, 2)], band=3)
        assert [out for part, _, _ in results for out in part] == list(
            serial.distances
        )

    def test_one_job_route_refuses_a_warm_pool(self):
        series = _series(offset=97)
        with BatchExecutor(workers=2, cap=None, use_shm=False) as exe:
            exe.run_job("lb", (3, True, "python"), series, [[(0, 1)]])
            with pytest.raises(RuntimeError, match="already run a job"):
                exe._run_once("lb", (3, True, "python"), series,
                              [[(0, 1)]])


class TestWorkerCountValidation:
    @pytest.mark.parametrize("cap", ["cpu", None])
    @pytest.mark.parametrize("bad", [0, -1, -8, True, False, 2.5])
    def test_rejects_degenerate_requests(self, bad, cap):
        with pytest.raises(ValueError, match="workers"):
            _resolve_workers(bad, cap)
        with pytest.raises(ValueError, match="workers"):
            BatchExecutor(workers=bad, cap=cap)

    def test_none_still_means_cpu_count(self):
        cpus = os.cpu_count() or 1
        assert _resolve_workers(None, "cpu") == cpus
        assert _resolve_workers(None, None) == cpus
