"""Worker-side dataset eviction under the NumPy chunk kernels.

A warm executor's workers attach each shipped dataset on first use and
keep the most recent ``_MAX_ATTACHED``; per-query k-NN ships a fresh
dataset (query + training set) every call, so every few calls each
worker evicts its oldest one.  The NumPy kernels read attached
datasets through zero-copy views of the shared segment, and eviction
must let go of every view before it closes the mapping -- otherwise
``SharedMemory.close`` raises ``BufferError: cannot close exported
pointers exist``, the call fails and the pool is torn down.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.batch.executor import _MAX_ATTACHED, BatchExecutor
from repro.classify.knn import DistanceSpec, KNearestNeighbors
from repro.obs import RunTrace
from repro.runtime import Runtime
from tests.conftest import make_series

SPEC = DistanceSpec("cdtw", window=0.1)
TRAIN = [make_series(64, seed=s) for s in range(32)]
LABELS = [s % 4 for s in range(32)]
QUERIES = [make_series(64, seed=1000 + q) for q in range(24)]


def test_numpy_per_query_knn_survives_worker_eviction():
    pytest.importorskip("numpy")
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    # every worker attaches one dataset per call: several evictions each
    assert len(QUERIES) > 4 * _MAX_ATTACHED
    reference = KNearestNeighbors(
        SPEC, k=3, runtime=Runtime(backend="numpy")
    ).fit(TRAIN, LABELS)
    expected = [reference.predict_one(q) for q in QUERIES]

    before = set(os.listdir("/dev/shm"))
    errors = []
    got = []
    with BatchExecutor(workers=2, cap=None) as exe:
        clf = KNearestNeighbors(
            SPEC, k=3, runtime=Runtime(backend="numpy", executor=exe),
        ).fit(TRAIN, LABELS)
        with RunTrace() as trace:
            for q in QUERIES:
                try:
                    got.append(clf.predict_one(q))
                except Exception as exc:  # tallied, so all calls run
                    errors.append(f"{type(exc).__name__}: {exc}")
                    got.append(None)
    gc.collect()

    assert errors == []
    assert trace.counter("pool.poisoned") == 0
    assert got == expected
    assert not (set(os.listdir("/dev/shm")) - before)
