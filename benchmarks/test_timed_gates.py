"""Wall-clock gates: the speed claims CI enforces on multi-core runners.

These are plain pytest tests -- no ``benchmark`` fixture -- so
``make bench`` (``--benchmark-only``) skips them and the tier-1 suite
(``tests/``) never collects them.  Run them directly::

    PYTHONPATH=src python -m pytest -q benchmarks/test_timed_gates.py

Each check times best-of-N wall clock against a fixed threshold, so it
needs real cores and a quiet machine: expect the warm-python check to
fail on a 1- or 2-core box.  Correctness (bit-identical distances and
cells on every route) is the test suite's job, not these checks'.

* warm python workers at least break even with serial (6 x 128 random
  walks, cDTW window 0.1, 2 workers, best of 1);
* warm numpy workers at least break even with numpy serial (8 x 1000,
  2 workers, best of 2), on machines with two or more cores -- IPC
  dominates tiny batches, hence the larger workload;
* ``rle_dtw`` beats the dense full DTW at the highest compression of
  the quantised midnight-hour power sweep (length 300, one pair, best
  of 2).
"""

from __future__ import annotations

import os

import pytest

from repro.batch import BatchExecutor, batch_distances
from repro.core.measures import measure_fn
from repro.core.rle import RleSeries
from repro.datasets.power import midnight_hour_pair
from repro.datasets.random_walk import random_walks
from repro.timing.timer import time_callable

WINDOW = 0.1
WORKERS = 2

#: dyadic quantisation steps, fine to coarse (low to high compression)
QUANTIZE_STEPS = (2.0 ** -8, 2.0 ** -6, 2.0 ** -4, 2.0 ** -2)


def _warm_speedup(backend: str, count: int, length: int,
                  repeats: int) -> float:
    """Serial seconds / warm-executor seconds for all-pairs cDTW."""
    series = random_walks(count, length, seed=0)

    def run(workers, executor=None):
        return batch_distances(
            series, measure="cdtw", window=WINDOW, backend=backend,
            workers=workers, executor=executor,
        )

    serial = time_callable(lambda: run(1), repeats, warmup=0)
    # call-scoped pools first, untimed: a fresh process's first pool runs
    # slow for about a second, which would be charged to the executor
    time_callable(lambda: run(WORKERS), repeats, warmup=0)
    with BatchExecutor(workers=WORKERS, cap=None) as exe:
        # the warm-up call builds the pool and ships the dataset
        warm = time_callable(lambda: run(WORKERS, exe), repeats, warmup=1)
    return serial.minimum / warm.minimum


def test_warm_python_workers_break_even():
    speedup = _warm_speedup("python", count=6, length=128, repeats=1)
    print(f"warm python workers: x{speedup:.2f} over serial "
          f"(cpu_count={os.cpu_count()})")
    assert speedup >= 1.0


def test_warm_numpy_workers_break_even():
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(f"cpu_count={cores}: workers cannot beat serial")
    speedup = _warm_speedup("numpy", count=8, length=1000, repeats=2)
    print(f"warm numpy workers: x{speedup:.2f} over numpy serial "
          f"(cpu_count={cores})")
    assert speedup >= 1.0


def test_rle_wins_at_highest_compression():
    # peak positions are the midnight_hour_pair defaults scaled from
    # length 450 to 300
    levels = []
    for step in QUANTIZE_STEPS:
        pair = midnight_hour_pair(
            length=300, peaks_a=(40, 113, 173), peaks_b=(60, 93, 275),
            quantize=step,
        )
        x, y = pair.night_a, pair.night_b
        encoded = (RleSeries.encode(x), RleSeries.encode(y))
        ratio = sum(len(e) for e in encoded) / sum(
            e.run_count for e in encoded
        )
        levels.append((ratio, x, y))
    ratio, x, y = max(levels, key=lambda level: level[0])
    dense_fn = measure_fn("dtw", backend="python")
    rle_fn = measure_fn("rle_dtw", backend="python")
    dense = time_callable(lambda: dense_fn(x, y), 2).minimum
    rle = time_callable(lambda: rle_fn(x, y), 2).minimum
    print(f"rle_dtw at compression ratio {ratio:.1f}: "
          f"x{dense / rle:.2f} over dense dtw")
    assert dense / rle > 1.0
