"""Cross-backend kernel micro-benchmark (NOT a paper artefact).

The paper's own timing harness (:mod:`repro.timing.runner`) is pinned
to the pure-Python engine: its claim is "same language, same
hardware".  This module is the opposite tool -- it measures how much
faster the repeated-use stack gets when the :mod:`repro.core.kernels`
``"numpy"`` backend is allowed, on a fixed random-walk workload:

* ``python_serial`` -- :func:`repro.batch.engine.batch_distances`
  with ``backend="python"``, ``workers=1`` (the pre-registry
  behaviour of every consumer);
* ``numpy_serial``  -- the same batch with ``backend="numpy"``
  (chunks collapse into stacked wavefront-kernel calls);
* ``numpy_workers`` -- ``backend="numpy"`` fanned over a process
  pool, composing the two speed layers.

All three compute bit-identical distances and DP cell counts (the
result records the check).  ``python -m repro kernels`` runs this and
writes ``BENCH_kernels.json``; ``python -m repro kernels --warm``
runs :func:`executor_benchmark` instead -- the warm-vs-cold pool
comparison for the persistent :class:`repro.batch.executor.
BatchExecutor` -- and writes ``BENCH_batch.json``; ``python -m repro
kernels --nd`` runs :func:`multivariate_benchmark` -- the same
comparison on a ``dims``-channel DTW_D workload -- and writes
``BENCH_multivariate.json``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Tuple

#: Workload defaults: the acceptance configuration -- length-1000
#: random walks at a 10% cDTW band.
DEFAULT_LENGTH = 1000
DEFAULT_COUNT = 8
DEFAULT_WINDOW = 0.1

#: ``--smoke`` overrides: small enough for CI, same code paths.
SMOKE_LENGTH = 128
SMOKE_COUNT = 6

#: Channel count for the ``--nd`` multivariate benchmark (a 3-axis
#: accelerometer-style workload).
DEFAULT_DIMS = 3


def _best_of(repeats: int, fn: Callable[[], object]) -> Tuple[float, object]:
    """Best wall-clock of ``repeats`` runs, plus the last value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def kernel_benchmark(
    length: int = DEFAULT_LENGTH,
    count: int = DEFAULT_COUNT,
    window: float = DEFAULT_WINDOW,
    workers: int = 2,
    repeats: int = 3,
    seed: int = 0,
) -> Dict:
    """Time the backends on one all-pairs cDTW workload.

    Parameters
    ----------
    length, count, seed:
        ``count`` random walks of ``length`` samples (deterministic
        for a seed); all ``count * (count - 1) / 2`` pairs are
        computed.
    window:
        cDTW band as a fraction of length.
    workers:
        Pool size for the ``numpy_workers`` row (and for a
        ``python_workers`` reference row).
    repeats:
        Each configuration is run this many times; the best
        wall-clock is reported (standard micro-benchmark practice --
        the minimum is the least noisy estimator).

    Returns
    -------
    dict
        JSON-serialisable report: per-backend timings, speedups over
        ``python_serial``, a single-pair comparison, and the parity
        check (distances/cells bit-identical across backends).
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if length < 2:
        raise ValueError("length must be at least 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    from ..batch.engine import batch_distances
    from ..core.cdtw import cdtw
    from ..core.measures import measure_fn
    from ..datasets.random_walk import random_walks

    series = random_walks(count, length, seed=seed)
    pairs = count * (count - 1) // 2

    def run_batch(backend: str, n_workers: int):
        return batch_distances(
            series, measure="cdtw", window=window,
            backend=backend, workers=n_workers,
        )

    timings: Dict[str, Dict] = {}
    results = {}
    plan = [
        ("python_serial", "python", 1),
        ("numpy_serial", "numpy", 1),
    ]
    if workers > 1:
        plan.append(("python_workers", "python", workers))
        plan.append(("numpy_workers", "numpy", workers))
    for label, backend, n_workers in plan:
        seconds, result = _best_of(
            repeats, lambda b=backend, w=n_workers: run_batch(b, w)
        )
        results[label] = result
        timings[label] = {
            "backend": backend,
            "workers": n_workers,
            "seconds": seconds,
            "per_pair_seconds": seconds / pairs,
        }

    reference = results["python_serial"]
    distances_identical = all(
        r.distances == reference.distances for r in results.values()
    )
    cells_identical = all(
        r.cells_per_pair == reference.cells_per_pair
        for r in results.values()
    )

    # single-pair numbers: what one isolated call gains (less than the
    # batch, which amortises dispatch over stacked pairs)
    x, y = series[0], series[1]
    numpy_fn = measure_fn("cdtw", window=window, backend="numpy")
    py_seconds, py_result = _best_of(
        repeats, lambda: cdtw(x, y, window=window)
    )
    np_seconds, np_result = _best_of(repeats, lambda: numpy_fn(x, y))
    single_identical = (
        py_result.distance == np_result.distance
        and py_result.cells == np_result.cells
    )

    base = timings["python_serial"]["seconds"]
    speedups = {
        label: (base / t["seconds"]) if t["seconds"] > 0 else float("inf")
        for label, t in timings.items()
        if label != "python_serial"
    }

    return {
        "benchmark": "repro.timing.kernel_bench",
        "note": (
            "repeated-use backend comparison; the paper's own timings "
            "are pinned to backend='python' and never run these kernels"
        ),
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "kind": "random_walk",
            "count": count,
            "length": length,
            "pairs": pairs,
            "window": window,
            "measure": "cdtw",
            "seed": seed,
            "repeats": repeats,
        },
        "timings": timings,
        "speedups_over_python_serial": speedups,
        "single_pair": {
            "python_seconds": py_seconds,
            "numpy_seconds": np_seconds,
            "speedup": (
                py_seconds / np_seconds if np_seconds > 0 else float("inf")
            ),
            "identical": single_identical,
        },
        "parity": {
            "distances_identical": distances_identical,
            "cells_identical": cells_identical,
        },
    }


def multivariate_benchmark(
    length: int = DEFAULT_LENGTH,
    count: int = DEFAULT_COUNT,
    window: float = DEFAULT_WINDOW,
    workers: int = 2,
    repeats: int = 3,
    seed: int = 0,
    dims: int = DEFAULT_DIMS,
) -> Dict:
    """Time the backends on one all-pairs *multivariate* workload.

    The vector twin of :func:`kernel_benchmark`: ``count`` series of
    ``length`` samples with ``dims`` channels each (independent
    random walks interleaved sample-major, the accelerometer shape),
    all pairs under the dependent measure ``cdtw_d``.  The same rows
    are timed -- ``python_serial``, ``numpy_serial`` and, with
    ``workers > 1``, both worker-pool rows -- and the same parity
    gate applies: distances and DP cell counts must be bit-identical
    across every backend/worker combination, which is the CI
    guarantee the ``--nd`` smoke run enforces.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if length < 2:
        raise ValueError("length must be at least 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if dims < 2:
        raise ValueError("dims must be at least 2")
    from ..batch.engine import batch_distances
    from ..core.measures import measure_fn
    from ..core.multivariate import cdtw_nd, interleave
    from ..datasets.random_walk import random_walks

    # one deterministic scalar walk per (series, channel), interleaved
    # into (length, dims) rows
    channels = random_walks(count * dims, length, seed=seed)
    series = [
        interleave(*channels[i * dims:(i + 1) * dims])
        for i in range(count)
    ]
    pairs = count * (count - 1) // 2

    def run_batch(backend: str, n_workers: int):
        return batch_distances(
            series, measure="cdtw_d", window=window,
            backend=backend, workers=n_workers,
        )

    timings: Dict[str, Dict] = {}
    results = {}
    plan = [
        ("python_serial", "python", 1),
        ("numpy_serial", "numpy", 1),
    ]
    if workers > 1:
        plan.append(("python_workers", "python", workers))
        plan.append(("numpy_workers", "numpy", workers))
    for label, backend, n_workers in plan:
        seconds, result = _best_of(
            repeats, lambda b=backend, w=n_workers: run_batch(b, w)
        )
        results[label] = result
        timings[label] = {
            "backend": backend,
            "workers": n_workers,
            "seconds": seconds,
            "per_pair_seconds": seconds / pairs,
        }

    reference = results["python_serial"]
    distances_identical = all(
        r.distances == reference.distances for r in results.values()
    )
    cells_identical = all(
        r.cells_per_pair == reference.cells_per_pair
        for r in results.values()
    )

    # single-pair numbers: pure-python cdtw_nd vs the stacked kernel
    x, y = series[0], series[1]
    numpy_fn = measure_fn("cdtw_d", window=window, backend="numpy")
    py_seconds, py_result = _best_of(
        repeats, lambda: cdtw_nd(x, y, window=window)
    )
    np_seconds, np_result = _best_of(repeats, lambda: numpy_fn(x, y))
    single_identical = (
        py_result.distance == np_result.distance
        and py_result.cells == np_result.cells
    )

    base = timings["python_serial"]["seconds"]
    speedups = {
        label: (base / t["seconds"]) if t["seconds"] > 0 else float("inf")
        for label, t in timings.items()
        if label != "python_serial"
    }

    return {
        "benchmark": "repro.timing.kernel_bench/multivariate",
        "note": (
            "multivariate (DTW_D) backend comparison; the paper's own "
            "timings are univariate and pinned to backend='python'"
        ),
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "kind": "interleaved_random_walks",
            "count": count,
            "length": length,
            "dims": dims,
            "pairs": pairs,
            "window": window,
            "measure": "cdtw_d",
            "seed": seed,
            "repeats": repeats,
        },
        "timings": timings,
        "speedups_over_python_serial": speedups,
        "single_pair": {
            "python_seconds": py_seconds,
            "numpy_seconds": np_seconds,
            "speedup": (
                py_seconds / np_seconds if np_seconds > 0 else float("inf")
            ),
            "identical": single_identical,
        },
        "parity": {
            "distances_identical": distances_identical,
            "cells_identical": cells_identical,
        },
    }


def executor_benchmark(
    length: int = DEFAULT_LENGTH,
    count: int = DEFAULT_COUNT,
    window: float = DEFAULT_WINDOW,
    workers: int = 2,
    repeats: int = 3,
    seed: int = 0,
) -> Dict:
    """Warm-vs-cold comparison of the persistent batch executor.

    Times the same all-pairs cDTW workload as
    :func:`kernel_benchmark` through three pool regimes per backend:

    * ``*_serial``       -- ``workers=1``, in-process (the baseline);
    * ``*_workers_cold`` -- the one-shot pool path: every call forks a
      fresh pool and re-ships the dataset (what
      ``BENCH_kernels.json`` measured at 0.85x serial);
    * ``*_workers_warm`` -- a :class:`repro.batch.executor.
      BatchExecutor` primed by one untimed call, so the timed calls
      hit a live pool and a resident shared-memory dataset -- the
      repeated-use regime kNN/LOOCV/k-means actually run in.

    All regimes must produce bit-identical distances and cells (the
    report records the check).  ``cpu_count`` is recorded because the
    parallel rows cannot beat serial on fewer than two cores --
    interpret speedups against it; on a single-core runner the note
    says so explicitly.  ``chunk_stats`` records how the numpy warm
    path exercised the stacked chunk kernels (scheduled chunks,
    kernel calls, shape groups, stacked pairs, pad waste), taken from
    one untimed traced call against the warm executor.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if length < 2:
        raise ValueError("length must be at least 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    from ..batch.engine import batch_distances
    from ..batch.executor import BatchExecutor
    from ..datasets.random_walk import random_walks

    series = random_walks(count, length, seed=seed)
    pairs = count * (count - 1) // 2

    def run(backend: str, n_workers: int, executor=None):
        return batch_distances(
            series, measure="cdtw", window=window,
            backend=backend, workers=n_workers, executor=executor,
        )

    timings: Dict[str, Dict] = {}
    results = {}
    executors = []
    chunk_stats: Dict[str, float] = {}
    try:
        for backend in ("python", "numpy"):
            seconds, result = _best_of(
                repeats, lambda b=backend: run(b, 1)
            )
            results[f"{backend}_serial"] = result
            timings[f"{backend}_serial"] = {
                "backend": backend, "workers": 1, "mode": "serial",
                "seconds": seconds,
                "per_pair_seconds": seconds / pairs,
            }
            seconds, result = _best_of(
                repeats, lambda b=backend: run(b, workers)
            )
            results[f"{backend}_workers_cold"] = result
            timings[f"{backend}_workers_cold"] = {
                "backend": backend, "workers": workers,
                "mode": "one-shot pool",
                "seconds": seconds,
                "per_pair_seconds": seconds / pairs,
            }
            exe = BatchExecutor(workers=workers, cap=None)
            executors.append(exe)
            run(backend, workers, executor=exe)  # untimed priming call
            seconds, result = _best_of(
                repeats, lambda b=backend, e=exe: run(b, workers, e)
            )
            results[f"{backend}_workers_warm"] = result
            timings[f"{backend}_workers_warm"] = {
                "backend": backend, "workers": exe.workers,
                "mode": "warm executor",
                "seconds": seconds,
                "per_pair_seconds": seconds / pairs,
            }
            if backend == "numpy":
                # one untimed probed call against the warm executor to
                # record how the chunk-kernel path actually ran
                from ..batch.engine import chunk_probe

                _, chunk_stats = chunk_probe(
                    lambda: run(backend, workers, executor=exe)
                )
    finally:
        for exe in executors:
            exe.shutdown()

    reference = results["python_serial"]
    distances_identical = all(
        r.distances == reference.distances for r in results.values()
    )
    cells_identical = all(
        r.cells_per_pair == reference.cells_per_pair
        for r in results.values()
    )

    base = timings["python_serial"]["seconds"]
    numpy_base = timings["numpy_serial"]["seconds"]
    speedups = {
        label: float(base / t["seconds"])
        if t["seconds"] > 0 else float("inf")
        for label, t in timings.items()
        if label != "python_serial"
    }

    cpu_count = os.cpu_count() or 1
    note = (
        "warm-vs-cold pool comparison for the repeated-use stack; "
        "the paper's own timings are executor-free and pinned to "
        "backend='python'.  Parallel rows need cpu_count >= 2 to "
        "beat serial."
    )
    if cpu_count < 2:
        note += (
            f"  This run had cpu_count={cpu_count}: the worker rows "
            "time-share one core, so warm speedups below 1.0 reflect "
            "the runner, not the chunk-kernel path."
        )

    return {
        "benchmark": "repro.timing.kernel_bench/executor",
        "note": note,
        "cpu_count": cpu_count,
        "workload": {
            "kind": "random_walk",
            "count": count,
            "length": length,
            "pairs": pairs,
            "window": window,
            "measure": "cdtw",
            "seed": seed,
            "repeats": repeats,
            "workers": workers,
        },
        "timings": timings,
        "speedups_over_python_serial": speedups,
        "warm_python_speedup_over_serial": float(
            base / timings["python_workers_warm"]["seconds"]
            if timings["python_workers_warm"]["seconds"] > 0
            else float("inf")
        ),
        "warm_numpy_speedup_over_numpy_serial": float(
            numpy_base / timings["numpy_workers_warm"]["seconds"]
            if timings["numpy_workers_warm"]["seconds"] > 0
            else float("inf")
        ),
        "chunk_stats": chunk_stats,
        "parity": {
            "distances_identical": distances_identical,
            "cells_identical": cells_identical,
        },
    }


def format_executor_report(report: Dict) -> str:
    """Human-readable summary of :func:`executor_benchmark` output."""
    w = report["workload"]
    lines = [
        f"executor: {w['pairs']} pairs of cdtw "
        f"(k={w['count']}, n={w['length']}, window={w['window']}, "
        f"workers={w['workers']}, cpus={report['cpu_count']})",
    ]
    for label, t in report["timings"].items():
        speedup = report["speedups_over_python_serial"].get(label)
        suffix = f"  x{speedup:.2f}" if speedup is not None else ""
        lines.append(
            f"  {label.ljust(20)} {t['seconds']:.4f}s"
            f"  ({t['per_pair_seconds'] * 1e3:.2f} ms/pair){suffix}"
        )
    lines.append(
        "  warm python vs serial: "
        f"x{report['warm_python_speedup_over_serial']:.2f}   "
        "warm numpy vs numpy serial: "
        f"x{report['warm_numpy_speedup_over_numpy_serial']:.2f}"
    )
    cs = report.get("chunk_stats")
    if cs:
        lines.append(
            f"  chunks: {cs['sched_chunks']} scheduled, "
            f"{cs['kernel_calls']} stacked kernel calls over "
            f"{cs['groups']} shape groups, "
            f"{cs['stacked_pairs']} pairs stacked "
            f"({cs['pad_rows']} pad rows, "
            f"{cs['pad_waste_fraction']:.1%} pad waste)"
        )
    parity = report["parity"]
    ok = parity["distances_identical"] and parity["cells_identical"]
    lines.append(
        "  parity: distances/cells "
        + ("bit-identical across all regimes" if ok else "MISMATCH")
    )
    return "\n".join(lines)


def format_report(report: Dict) -> str:
    """Human-readable summary of :func:`kernel_benchmark` output."""
    w = report["workload"]
    shape = f"k={w['count']}, n={w['length']}"
    if w.get("dims", 1) != 1:
        shape += f", d={w['dims']}"
    lines = [
        f"kernels: {w['pairs']} pairs of {w['measure']} "
        f"({shape}, window={w['window']})",
    ]
    for label, t in report["timings"].items():
        speedup = report["speedups_over_python_serial"].get(label)
        suffix = f"  x{speedup:.2f}" if speedup is not None else ""
        lines.append(
            f"  {label.ljust(14)} {t['seconds']:.4f}s"
            f"  ({t['per_pair_seconds'] * 1e3:.2f} ms/pair){suffix}"
        )
    sp = report["single_pair"]
    lines.append(
        f"  single pair: python {sp['python_seconds'] * 1e3:.2f} ms, "
        f"numpy {sp['numpy_seconds'] * 1e3:.2f} ms (x{sp['speedup']:.2f})"
    )
    parity = report["parity"]
    ok = parity["distances_identical"] and parity["cells_identical"]
    lines.append(
        "  parity: distances/cells "
        + ("bit-identical across backends" if ok else "MISMATCH")
    )
    return "\n".join(lines)
