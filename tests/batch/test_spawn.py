"""End-to-end coverage of the ``spawn`` start method.

Linux CI defaults to ``fork``, so until now ``spawn`` -- the only
method on Windows/macOS-default, and the one that exercises real
pickling of every initializer argument and task -- was never run.
These tests drive the executor under ``spawn`` in both shipping
modes: inline (the dataset pickled through the pool initializer) and
shared memory (attach/detach from freshly-started interpreters), plus
the one-job pool ``workers=N`` builds on a platform without ``fork``
(the dataset and the job pickled through the initializer), with
trace-snapshot merging and no segment or fd leaks.

Spawn pools are expensive to start (a fresh interpreter per worker),
so the executor tests share one module-scoped warm executor.
"""

import gc
import multiprocessing
import os

import pytest

from repro.batch import BatchExecutor, batch_distances, batch_lb_keogh
from repro.batch import executor as executor_mod
from repro.obs import RunTrace
from tests.conftest import make_series

pytestmark = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)


def _series(count=5, length=20, offset=0):
    return [make_series(length, s + offset) for s in range(count)]


@pytest.fixture(scope="module")
def spawn_executor():
    exe = BatchExecutor(workers=2, cap=None, start_method="spawn")
    yield exe
    exe.shutdown()


def _inline_spawn_executor():
    return BatchExecutor(workers=2, cap=None, start_method="spawn",
                         use_shm=False)


class TestInlineSpawn:
    def test_distances_identical(self):
        series = _series()
        serial = batch_distances(series, measure="cdtw", band=3)
        with _inline_spawn_executor() as exe:
            spawned = batch_distances(series, measure="cdtw", band=3,
                                      executor=exe)
        assert spawned.distances == serial.distances
        assert spawned.cells_per_pair == serial.cells_per_pair

    def test_trace_snapshots_merge(self):
        series = _series()
        with RunTrace() as trace:
            with _inline_spawn_executor() as exe:
                result = batch_distances(series, measure="cdtw", band=3,
                                         executor=exe)
        assert trace.counter("dp.cells") == result.cells
        assert trace.counter("pool.chunks") > 0

    def test_lb_keogh_identical(self):
        series = _series(offset=5)
        serial = batch_lb_keogh(series, band=3)
        with _inline_spawn_executor() as exe:
            spawned = batch_lb_keogh(series, band=3, executor=exe)
        assert spawned.distances == serial.distances


class TestOneJobSpawn:
    def test_workers_without_fork(self, monkeypatch):
        # where fork is missing, the call-scoped executor spawns: the
        # job's BatchSpec pickles into the initializer with the dataset
        monkeypatch.setattr(executor_mod, "_resolve_start_method",
                            lambda method: method or "spawn")
        series = _series(offset=7)
        serial = batch_distances(series, measure="cdtw", band=3)
        with RunTrace() as trace:
            spawned = batch_distances(series, measure="cdtw", band=3,
                                      workers=2)
        assert spawned.distances == serial.distances
        assert spawned.cells_per_pair == serial.cells_per_pair
        assert trace.counter("dp.cells") == spawned.cells
        assert trace.counter("pool.created") == 1


class TestSpawnExecutor:
    def test_shm_attach_from_spawned_workers(self, spawn_executor):
        # spawned workers import the module fresh and attach the
        # segment by name -- the full zero-copy path, no fork cheats
        series = _series()
        serial = batch_distances(series, measure="cdtw", band=3)
        warm = batch_distances(series, measure="cdtw", band=3,
                               executor=spawn_executor)
        again = batch_distances(series, measure="cdtw", band=3,
                                executor=spawn_executor)
        assert warm.distances == serial.distances == again.distances
        assert warm.cells == serial.cells

    def test_lb_keogh_under_spawn(self, spawn_executor):
        series = _series(offset=10)
        serial = batch_lb_keogh(series, band=3)
        warm = batch_lb_keogh(series, band=3, executor=spawn_executor)
        assert warm.distances == serial.distances

    def test_trace_merge_under_spawn(self, spawn_executor):
        series = _series(offset=20)
        with RunTrace() as trace:
            result = batch_distances(series, measure="cdtw", band=3,
                                     executor=spawn_executor)
        assert trace.counter("dp.cells") == result.cells
        assert (
            trace.counter("sched.chunks")
            == trace.counter("pool.chunks")
        )

    def test_worker_death_does_not_unlink_parent_segment(self):
        # the resource-tracker trap: a spawn worker attaching a segment
        # must not take it down when the pool is torn down
        series = _series(offset=30)
        with BatchExecutor(workers=2, cap=None,
                           start_method="spawn") as exe:
            batch_distances(series, measure="cdtw", band=3, executor=exe)
            names = exe.segment_names()
            # recycle the pool: old workers exit, their exit must not
            # unlink the parent's live segment
            exe._state["pool"].terminate()
            exe._state["pool"].join()
            exe._state["pool"] = None
            result = batch_distances(series, measure="cdtw", band=3,
                                     executor=exe)
            assert exe.segment_names() == names
        serial = batch_distances(series, measure="cdtw", band=3)
        assert result.distances == serial.distances


class TestNoLeaks:
    def test_no_segment_or_fd_leak(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        gc.collect()
        shm_before = set(os.listdir("/dev/shm"))
        fd_dir = "/proc/self/fd"
        has_fds = os.path.isdir(fd_dir)
        fds_before = len(os.listdir(fd_dir)) if has_fds else 0
        with BatchExecutor(workers=2, cap=None,
                           start_method="spawn") as exe:
            batch_distances(_series(offset=40), measure="dtw",
                            executor=exe)
            batch_distances(_series(offset=60), measure="dtw",
                            executor=exe)
        gc.collect()
        assert not (set(os.listdir("/dev/shm")) - shm_before)
        if has_fds:
            # pool and segments released: fd count back to baseline
            # (tolerate transient reaper fds)
            assert len(os.listdir(fd_dir)) <= fds_before + 2
