"""The parallel batch distance engine.

Every headline experiment in the paper -- the Fig. 1/4 timing sweeps,
the 1-NN and clustering tables -- is a *repeated-use* workload:
thousands of independent pairwise distance calls over one series set.
This module executes such a batch as a first-class job:

* work arrives as index **pairs** into a shared series list, so each
  series is shipped to each worker once, not once per pair;
* pairs are **chunked** and fanned out over a ``multiprocessing`` pool
  (``workers=1``, the default, runs in-process with zero pool
  overhead and is the exact serial computation);
* each worker holds a :class:`~repro.batch.cache.SeriesCache`, so
  per-series artefacts (z-normalised copies, LB_Keogh envelopes) are
  computed once per series per worker, not once per pair;
* results come back in **input pair order** regardless of worker
  count or completion order -- determinism is a contract, enforced by
  the property suite in ``tests/batch/``;
* per-pair DP cell counts are preserved and summed into the same
  ``cells`` provenance the serial code paths report.

The serial and parallel paths run byte-identical per-pair
computations (same :func:`repro.core.measures.measure_fn` dispatch),
so distances and cell totals agree exactly -- not merely to within
floating-point noise.

``backend="numpy"`` routes the exact DP measures through the
vectorised kernels of :mod:`repro.core.kernels`; distance-only
dtw/cdtw batches additionally collapse each chunk into stacked
:func:`~repro.core.kernels.KernelSet.dtw_chunk` calls -- the chunk is
split into shape-homogeneous :class:`~repro.batch.schedule.ChunkGroup`
slices keyed by ``(n, m, band)``, each group's pairs are stacked into
one 3-D wavefront evaluation, and the chunk plan drops to one chunk
per worker (the stacked kernel amortises its per-step dispatch over
the whole chunk, so fewest-and-biggest wins).  LB_Keogh batches on
the numpy backend score each chunk the same way via
:func:`~repro.core.kernels.KernelSet.lb_keogh_chunk`.  Distances,
cells and bounds remain bit-identical to the pure engine for every
worker count -- the equivalence suite runs the same property tests
over both backends.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.cost import CostLike
from ..core.measures import (
    MEASURES,
    ND_MEASURES,
    RLE_MEASURES,
    measure_fn,
    split_result,
)
from ..lowerbounds.lb_keogh import lb_keogh
from ..obs import trace as _obs
from ..runtime import Runtime
from .cache import CacheStats, SeriesCache

Pair = Tuple[int, int]


@dataclass(frozen=True)
class BatchSpec:
    """Immutable description of one batch's distance configuration.

    The spec (not a callable) is what crosses the process boundary:
    each pool worker rebuilds its dispatch function from it, so no
    closures need pickling.
    """

    measure: str = "cdtw"
    window: Optional[float] = None
    band: Optional[int] = None
    radius: int = 1
    cost: CostLike = "squared"
    normalize: bool = False
    return_paths: bool = False
    backend: str = "python"

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; pick from {MEASURES}"
            )
        from ..core.kernels import resolve_backend

        resolve_backend(self.backend)

    def make_fn(self):
        """The pairwise callable this spec describes."""
        return measure_fn(
            self.measure,
            window=self.window,
            band=self.band,
            radius=self.radius,
            cost=self.cost,
            return_path=self.return_paths,
            backend=self.backend,
        )

    def vectorizable(self) -> bool:
        """Can whole chunks collapse into stacked kernel calls?

        True for distance-only dtw/cdtw batches on the numpy backend
        with a named cost -- the configurations where
        :func:`repro.core.numpy_backend.dtw_chunk` applies.
        The dependent multivariate measures (``dtw_d``/``cdtw_d``) run
        one DP per pair over vector samples, so they stack into the
        same kernel with a channel axis; the independent measures are
        sums of per-channel scalar DPs and stay on the per-pair path.
        """
        return (
            self.backend == "numpy"
            and self.measure in ("dtw", "cdtw", "dtw_d", "cdtw_d")
            and not self.return_paths
            and isinstance(self.cost, str)
        )


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch run, ordered like the input pairs.

    Attributes
    ----------
    pairs:
        The index pairs computed, in input order.
    distances:
        ``distances[t]`` is the distance of ``pairs[t]``.
    cells_per_pair:
        DP cells evaluated for each pair (0 for Euclidean).
    cells:
        Sum of ``cells_per_pair`` -- the same provenance number the
        serial code paths report.
    paths:
        Warping paths per pair when the spec asked for them
        (``None`` otherwise; Euclidean pairs yield ``None`` entries).
    measure:
        The measure name that produced the batch.
    workers:
        Worker processes used (1 = in-process serial).
    cache:
        Aggregated :class:`CacheStats` over all workers.
    """

    pairs: Tuple[Pair, ...]
    distances: Tuple[float, ...]
    cells_per_pair: Tuple[int, ...]
    cells: int
    measure: str
    workers: int
    cache: CacheStats
    paths: Optional[Tuple[object, ...]] = None

    def __len__(self) -> int:
        return len(self.pairs)


def all_pairs(k: int) -> List[Pair]:
    """The ``k * (k - 1) / 2`` unordered pairs, lexicographic.

    >>> all_pairs(3)
    [(0, 1), (0, 2), (1, 2)]
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return list(itertools.combinations(range(k), 2))


def default_chunksize(n_tasks: int, workers: int) -> int:
    """The legacy pair-count heuristic: ~4 chunks per worker.

    Large enough to amortise IPC per pair, small enough that a slow
    chunk cannot leave workers idle for long -- but blind to how much
    each pair actually costs, which is why ``chunksize="auto"`` (the
    default) now plans by predicted DP cells instead
    (:mod:`repro.batch.schedule`).  Reachable via
    ``chunksize="legacy"``; for uniform-length single-measure batches
    the two plans coincide.

    >>> default_chunksize(100, 4)
    7
    >>> default_chunksize(3, 8)
    1
    """
    if n_tasks < 0 or workers < 1:
        raise ValueError("need n_tasks >= 0 and workers >= 1")
    return max(1, math.ceil(n_tasks / (workers * 4)))


def argmin_first(values: Sequence[float]) -> Tuple[int, float]:
    """Index and value of the minimum, first index winning ties.

    This is the tie-breaking rule every serial scan in the package
    uses (``if d < best`` with ascending iteration), restated once so
    the batched paths provably match it.

    >>> argmin_first([3.0, 1.0, 1.0, 2.0])
    (1, 1.0)
    """
    if not values:
        raise ValueError("argmin of an empty sequence")
    best_idx, best = 0, values[0]
    for i in range(1, len(values)):
        if values[i] < best:
            best, best_idx = values[i], i
    return best_idx, best


# -- worker-side machinery ------------------------------------------------
#
# Pool workers cannot receive closures, so each worker rebuilds its
# context (series cache + dispatch callable) from picklable pieces in
# the pool initializer and parks it in a module global.

class _WorkerContext:
    __slots__ = (
        "cache", "spec", "fn", "vectorize", "lb_band", "lb_squared",
        "lb_backend", "traced", "arrays", "_np",
    )

    def __init__(self, series, spec=None, lb_band=None, lb_squared=True,
                 lb_backend="python", traced=False, arrays=None):
        self.cache = SeriesCache(series)
        self.spec = spec
        self.fn = spec.make_fn() if spec is not None else None
        self.vectorize = spec.vectorizable() if spec is not None else False
        self.lb_band = lb_band
        self.lb_squared = lb_squared
        self.lb_backend = lb_backend
        self.traced = traced
        # optional zero-copy float64 views of the series (the shm
        # executor's datasets are already packed), seeding the numpy
        # artefact cache without a per-series conversion
        self.arrays = arrays
        self._np = None

    def np_artifacts(self) -> "_NpArtifacts":
        if self._np is None:
            self._np = _NpArtifacts(self.cache, self.spec, self.arrays)
        return self._np


class _NpArtifacts:
    """Per-context caches feeding the stacked chunk kernels.

    Everything the old vectorised path paid *per pair in Python* --
    finiteness validation, tuple-to-array conversion, stacking -- is
    memoized here per *series* per context, which is what lets warm
    numpy workers beat the serial numpy path instead of losing to it:

    * :meth:`series` -- the validated float64 array of one series,
      built once (zero-copy when the executor shipped shm views);
    * :meth:`envelope` -- array views of a cached
      :class:`~repro.lowerbounds.envelope.Envelope` (the
      :class:`SeriesCache` keeps its hit/miss accounting);
    * :meth:`stack` -- pairs gathered into reusable scratch stacks
      whose capacity grows in powers of two.  Rows past the real pair
      count are *padding*: initialised to NaN on purpose, so the
      chunk kernels' ``count=`` contract (padding is never read) is
      exercised on every production call, not only in tests.

    It holds what it reads from its context, never the context itself:
    no reference cycle, so dropping an evicted context frees its
    zero-copy shm views at once and the dataset's mapping can close.
    """

    __slots__ = ("_cache", "_spec", "_arrays", "_series", "_env",
                 "_scratch")

    def __init__(self, cache: SeriesCache, spec, arrays):
        self._cache, self._spec, self._arrays = cache, spec, arrays
        self._series: dict = {}
        self._env: dict = {}
        self._scratch: dict = {}

    def series(self, i: int):
        arr = self._series.get(i)
        if arr is None:
            from ..core.numpy_backend import _as_series

            if self._spec is not None and self._spec.normalize:
                raw = self._cache.normalized(i)
            elif self._arrays is not None:
                raw = self._arrays[i]
            else:
                raw = self._cache.raw(i)
            arr = self._series[i] = _as_series(raw, str(i))
        return arr

    def envelope(self, i: int, band: int):
        # the SeriesCache call stays per request, so envelope hit/miss
        # accounting is identical to the per-pair path; only the
        # list-to-array conversion is memoized on top
        env = self._cache.envelope(i, band)
        pair = self._env.get((i, band))
        if pair is None:
            import numpy as np

            pair = self._env[i, band] = (
                np.asarray(env.upper, dtype=np.float64),
                np.asarray(env.lower, dtype=np.float64),
            )
        return pair

    def _scratch_for(self, role: str, shape, rows: int):
        import numpy as np

        key = (role,) + tuple(shape)
        buf = self._scratch.get(key)
        if buf is None or buf.shape[0] < rows:
            cap = 1 << max(0, rows - 1).bit_length()
            buf = self._scratch[key] = np.full(
                (cap,) + tuple(shape), np.nan, dtype=np.float64
            )
        return buf

    def stack_rows(self, role: str, indices, width: int):
        """Gather ``series(idx)`` rows into a padded scratch stack.

        Returns ``(stack, pad_rows)``: only the first ``len(indices)``
        rows are real; the rest is the poisoned padding the chunk
        kernels must never read.  Multivariate contexts stack
        ``(count, width, dims)`` instead of ``(count, width)``.
        """
        dims = self._cache.dims
        shape = (width,) if dims is None else (width, dims)
        buf = self._scratch_for(role, shape, len(indices))
        for t, idx in enumerate(indices):
            buf[t, ...] = self.series(idx)
        return buf, buf.shape[0] - len(indices)

    def stack_pairs(self, pairs, n: int, m: int):
        """Both sides of a shape-homogeneous pair group, stacked.

        Returns ``(xs, ys, pad_rows)`` with equal padded heights (the
        two scratch buffers may have grown to different capacities, so
        both are clipped to the smaller one -- still >= the group).
        """
        xs, _ = self.stack_rows("x", [i for i, _ in pairs], n)
        ys, _ = self.stack_rows("y", [j for _, j in pairs], m)
        padded = min(xs.shape[0], ys.shape[0])
        return xs[:padded], ys[:padded], padded - len(pairs)


_CONTEXT: Optional[_WorkerContext] = None


def _init_distance_worker(series, spec, traced=False):
    global _CONTEXT
    # a forked worker inherits the parent's active RunTrace object; it
    # must never record into that copy (the parent merges snapshots
    # instead), so the observability state is always cleared here
    _obs.reset()
    _CONTEXT = _WorkerContext(series, spec=spec, traced=traced)


def _init_lb_worker(series, band, squared, backend, traced=False):
    global _CONTEXT
    _obs.reset()
    _CONTEXT = _WorkerContext(
        series, lb_band=band, lb_squared=squared, lb_backend=backend,
        traced=traced,
    )


def _compute_pair(ctx: _WorkerContext, i: int, j: int):
    if ctx.spec.normalize:
        x, y = ctx.cache.normalized(i), ctx.cache.normalized(j)
    else:
        x, y = ctx.cache.raw(i), ctx.cache.raw(j)
    return split_result(ctx.fn(x, y))


def _spec_window(spec: BatchSpec, n: int, m: int):
    from ..core.kernels import banded_window, fraction_window, full_window

    if spec.measure in ("dtw", "dtw_d"):
        return full_window(n, m)
    if (spec.window is None) == (spec.band is None):
        raise ValueError("specify exactly one of window= or band=")
    if spec.window is not None:
        return fraction_window(n, m, spec.window)
    return banded_window(n, m, spec.band)


def _compute_chunk_vectorized(ctx: _WorkerContext, chunk: Sequence[Pair]):
    """One ``dtw_chunk`` kernel call per shape group in the chunk.

    Per-pair results are bit-identical to :func:`_compute_pair` under
    the same spec (the wavefront kernel evaluates the same DP lattice
    in an order-independent schedule), so reassembling in input order
    preserves the engine's determinism contract.

    The chunk path pays no per-pair Python: series are validated and
    converted once per context (:class:`_NpArtifacts`), pairs gather
    into reusable padded scratch stacks, and
    :meth:`KernelSet.dtw_chunk <repro.core.kernels.KernelSet>`
    charges the ``dp.*`` counters exactly like the per-pair hooks.
    """
    from ..core.kernels import get_kernels
    from .schedule import chunk_band, group_chunk

    spec = ctx.spec
    kernels = get_kernels(spec.backend)
    arts = ctx.np_artifacts()
    lengths = [len(ctx.cache.raw(i)) for i in range(len(ctx.cache))]
    groups = group_chunk(
        chunk, lengths,
        band_for=chunk_band(spec.measure, spec.window, spec.band),
    )
    _obs.incr("chunk.groups", len(groups))
    out = [None] * len(chunk)
    for group in groups:
        win = _spec_window(spec, group.n, group.m)
        cells = win.cell_count()
        xs, ys, pad = arts.stack_pairs(group.pairs, group.n, group.m)
        distances = kernels.dtw_chunk(
            xs, ys, win, cost=spec.cost, count=len(group.pairs)
        )
        _obs.incr("chunk.calls")
        _obs.incr("chunk.pairs", len(group.pairs))
        _obs.incr("chunk.pad_rows", pad)
        for pos, d in zip(group.positions, distances):
            out[pos] = (float(d), cells, None)
    return out


def _distance_chunk_outputs(ctx: _WorkerContext, chunk: Sequence[Pair]):
    """Run one distance chunk against an explicit context.

    Shared by the one-shot pool path (context parked in the module
    global by the initializer) and the persistent executor (contexts
    cached per dataset fingerprint) -- the per-pair computation is one
    code path regardless of how the context got there.
    """
    before = ctx.cache.stats()
    if ctx.traced:
        with _obs.RunTrace(label="batch-worker") as wtrace:
            wtrace.incr("pool.chunks")
            if ctx.vectorize:
                out = _compute_chunk_vectorized(ctx, chunk)
            else:
                out = [_compute_pair(ctx, i, j) for i, j in chunk]
        return out, ctx.cache.stats() - before, wtrace.snapshot()
    if ctx.vectorize:
        out = _compute_chunk_vectorized(ctx, chunk)
    else:
        out = [_compute_pair(ctx, i, j) for i, j in chunk]
    return out, ctx.cache.stats() - before, None


def _run_distance_chunk(chunk: Sequence[Pair]):
    return _distance_chunk_outputs(_CONTEXT, chunk)


def _compute_lb(ctx: _WorkerContext, i: int, j: int) -> float:
    env = ctx.cache.envelope(i, ctx.lb_band)
    _obs.incr("lb.invocations")
    return lb_keogh(env, ctx.cache.raw(j), squared=ctx.lb_squared)


def _compute_lb_chunk_vectorized(ctx: _WorkerContext, chunk: Sequence[Pair]):
    """Chunked LB_Keogh: one ``lb_keogh_chunk`` call per
    (query, length) group.

    The chunk kernel folds each candidate row with a sequential
    cumulative sum, so every bound is bit-identical to the scalar
    :func:`repro.lowerbounds.lb_keogh.lb_keogh` -- the python and
    numpy backends now agree exactly, for every worker count.
    """
    from ..core.kernels import get_kernels

    kernels = get_kernels("numpy")
    arts = ctx.np_artifacts()
    _obs.incr("lb.invocations", len(chunk))
    groups: dict = {}
    for t, (i, j) in enumerate(chunk):
        length = len(ctx.cache.raw(j))
        groups.setdefault((i, length), []).append((t, j))
    _obs.incr("chunk.groups", len(groups))
    out = [0.0] * len(chunk)
    for (i, length), items in groups.items():
        upper, lower = arts.envelope(i, ctx.lb_band)
        stack, pad = arts.stack_rows(
            "lb", [j for _, j in items], length
        )
        bounds = kernels.lb_keogh_chunk(
            upper, lower, stack, squared=ctx.lb_squared,
            count=len(items),
        )
        _obs.incr("chunk.calls")
        _obs.incr("chunk.pairs", len(items))
        _obs.incr("chunk.pad_rows", pad)
        for (t, _), b in zip(items, bounds.tolist()):
            out[t] = b
    return out


def _lb_chunk_outputs(ctx: _WorkerContext, chunk: Sequence[Pair]):
    """Run one LB_Keogh chunk against an explicit context (see
    :func:`_distance_chunk_outputs`)."""
    before = ctx.cache.stats()
    if ctx.traced:
        with _obs.RunTrace(label="batch-worker") as wtrace:
            wtrace.incr("pool.chunks")
            if ctx.lb_backend == "numpy":
                out = _compute_lb_chunk_vectorized(ctx, chunk)
            else:
                out = [_compute_lb(ctx, i, j) for i, j in chunk]
        return out, ctx.cache.stats() - before, wtrace.snapshot()
    if ctx.lb_backend == "numpy":
        out = _compute_lb_chunk_vectorized(ctx, chunk)
    else:
        out = [_compute_lb(ctx, i, j) for i, j in chunk]
    return out, ctx.cache.stats() - before, None


def _run_lb_chunk(chunk: Sequence[Pair]):
    return _lb_chunk_outputs(_CONTEXT, chunk)


def _record_cache_stats(trace, stats: CacheStats) -> None:
    """Mirror a job's aggregated :class:`CacheStats` into a trace."""
    trace.incr("cache.envelope_hits", stats.envelope_hits)
    trace.incr("cache.envelope_misses", stats.envelope_misses)
    trace.incr("cache.znorm_hits", stats.znorm_hits)
    trace.incr("cache.znorm_misses", stats.znorm_misses)


def _pick_context(start_method: Optional[str]):
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    # fork is far cheaper per pool and inherits the parent's modules;
    # platforms without it (e.g. Windows) fall back to spawn.
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _canonical_series(series):
    """Materialise the input series once, detecting dimensionality.

    Returns ``(series_t, dims)``: scalar datasets canonicalise to
    tuples of floats (``dims is None``, byte-identical to the historic
    form), multivariate ``(length, dims)`` datasets to tuples of
    float tuples.  Mixed or ragged-dims datasets are rejected by
    :func:`repro.batch.shm.dataset_dims` before any arithmetic runs.
    """
    from .shm import dataset_dims

    dims = dataset_dims(series)
    if dims is None:
        return tuple(tuple(float(v) for v in s) for s in series), None
    return tuple(
        tuple(tuple(float(c) for c in v) for v in s) for s in series
    ), dims


def _check_measure_dims(measure: str, dims: Optional[int]) -> None:
    if dims is not None and measure not in ND_MEASURES:
        raise ValueError(
            f"measure {measure!r} is univariate; multivariate "
            f"(length, dims) series need one of {ND_MEASURES}"
        )
    if dims is None and measure in ND_MEASURES:
        raise ValueError(
            f"measure {measure!r} is multivariate; flat scalar series "
            "need a scalar measure (reshape to (length, 1) samples to "
            "force the multivariate path)"
        )


def _validated_pairs(
    pairs: Optional[Iterable[Pair]], k: int
) -> List[Pair]:
    if pairs is None:
        return all_pairs(k)
    out: List[Pair] = []
    for pair in pairs:
        i, j = pair
        if not (0 <= i < k and 0 <= j < k):
            raise ValueError(
                f"pair ({i}, {j}) out of range for {k} series"
            )
        out.append((i, j))
    return out


def _fan_out(
    chunks, workers, initializer, initargs, chunk_runner, start_method,
):
    """One-shot pool: fork, map the chunks, tear down.

    The series set rides in ``initargs`` (pickled once per worker per
    call -- the cold cost that :class:`repro.batch.executor.
    BatchExecutor` exists to amortise away).
    """
    ctx = _pick_context(start_method)
    with ctx.Pool(
        processes=workers, initializer=initializer, initargs=initargs
    ) as pool:
        # pool.map preserves submission order, so reassembly is a
        # flatten -- determinism does not depend on worker scheduling.
        return pool.map(chunk_runner, chunks)


def _resolve_chunks(task_list, workers, chunksize, cost_fn,
                    oversubscribe=None):
    """Turn a ``chunksize=`` argument into the actual chunk plan.

    ``None``/``"auto"`` route through the cell-cost model
    (:func:`repro.batch.schedule.plan_chunks`): chunks of ~equal
    predicted DP cost, so long-series pairs get small chunks and
    cheap ones aggregate.  ``"legacy"`` keeps the original blind
    "~4 chunks per worker" pair-count heuristic
    (:func:`default_chunksize`) reachable; an ``int`` fixes the pair
    count per chunk exactly.  Every option flattens back to the input
    pair order, so the plan never affects results -- only balance.

    ``oversubscribe`` overrides the auto plan's chunks-per-worker
    target.  The stacked chunk kernels amortise their per-wavefront
    dispatch over every pair in the chunk, so the vectorised path
    asks for ``1`` -- the fewest, biggest chunks -- where the
    per-pair paths keep several chunks per worker for dynamic
    balance.
    """
    if chunksize is None or chunksize == "auto":
        from .schedule import OVERSUBSCRIBE, plan_chunks

        return plan_chunks(
            task_list, cost_fn, workers,
            oversubscribe=(
                OVERSUBSCRIBE if oversubscribe is None else oversubscribe
            ),
        )
    if chunksize == "legacy":
        size = default_chunksize(len(task_list), workers)
    elif isinstance(chunksize, int):
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        size = chunksize
    else:
        raise ValueError(
            "chunksize must be an int >= 1, 'auto', 'legacy' or None, "
            f"got {chunksize!r}"
        )
    return [
        task_list[k:k + size] for k in range(0, len(task_list), size)
    ]


def batch_distances(
    series: Sequence[Sequence[float]],
    pairs: Optional[Iterable[Pair]] = None,
    measure: str = "cdtw",
    window: Optional[float] = None,
    band: Optional[int] = None,
    radius: int = 1,
    cost: CostLike = "squared",
    normalize: bool = False,
    return_paths: bool = False,
    workers: Optional[int] = None,
    chunksize=None,
    start_method: Optional[str] = None,
    backend: Optional[str] = None,
    executor=None,
    runtime: Optional[Runtime] = None,
) -> BatchResult:
    """Compute many independent pairwise distances as one batch.

    Parameters
    ----------
    series:
        The shared series set; tasks index into it.
    pairs:
        Index pairs to compute, in the order results should come back
        (default: all unordered pairs ``i < j``).
    measure, window, band, radius, cost:
        Distance configuration, exactly as in
        :func:`repro.core.matrix.distance_matrix`.
    normalize:
        Z-normalise each series (once per series per worker, via the
        cache) before measuring.
    return_paths:
        Also return warping paths (exact measures recover them;
        Euclidean entries are ``None``).
    workers, chunksize, backend, executor:
        Per-call overrides of the corresponding
        :class:`repro.runtime.Runtime` fields.  The engine *is* the
        execution layer, so these remain its native vocabulary (no
        deprecation here, unlike the consumer entry points); ``None``
        means "defer to ``runtime=`` / the process default".
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where
        available, else ``spawn``).  Ignored when an executor is in
        play (the executor owns its pool).
    runtime:
        The base execution context (see :mod:`repro.runtime`).
        ``None`` uses the process default
        (:func:`repro.runtime.default_runtime`); the built-in default
        is the in-process serial pure-python computation.

    Returns
    -------
    BatchResult
        Distances/cells in input pair order; identical values for any
        worker count -- the serial-equivalence suite enforces this.
    """
    rt = Runtime.resolve(
        runtime, workers=workers, backend=backend, executor=executor,
        chunksize=chunksize,
    )
    if not series:
        raise ValueError("need at least one series")
    spec = BatchSpec(
        measure=measure, window=window, band=band, radius=radius,
        cost=cost, normalize=normalize, return_paths=return_paths,
        backend=rt.backend_name,
    )
    task_list = _validated_pairs(pairs, len(series))
    series_t, dims = _canonical_series(series)
    _check_measure_dims(spec.measure, dims)
    trace = _obs.active_trace()
    if trace is not None:
        trace.incr("batch.jobs")
        trace.incr("batch.pairs", len(task_list))

    if not rt.parallel or len(task_list) == 0:
        # in-process: the per-pair hooks report straight into the
        # parent's active trace, no snapshot round-trip needed
        context = _WorkerContext(series_t, spec=spec)
        if context.vectorize and task_list:
            outcomes = _compute_chunk_vectorized(context, task_list)
        else:
            outcomes = [
                _compute_pair(context, i, j) for i, j in task_list
            ]
        stats = context.cache.stats()
        effective_workers = 1
    else:
        from .schedule import distance_pair_cost

        exe = rt.resolved_executor()
        effective = exe.workers if exe is not None else rt.workers
        lengths = tuple(len(s) for s in series_t)
        run_counts = None
        if spec.measure in RLE_MEASURES:
            # the k*m + l*n cost model needs each series' run count;
            # one O(n) encoding pass per series prices the whole plan
            from ..core.rle import RleSeries

            run_counts = tuple(
                RleSeries.encode(s).run_count for s in series_t
            )
        chunks = _resolve_chunks(
            task_list, effective, rt.chunksize,
            distance_pair_cost(
                lengths, spec.measure, window=spec.window,
                band=spec.band, radius=spec.radius,
                run_counts=run_counts,
                dims=1 if dims is None else dims,
            ),
            # the stacked chunk kernels amortise their per-wavefront
            # Python dispatch over every pair in the chunk, so the
            # vectorised path wants the fewest, biggest chunks -- one
            # per worker -- where per-pair dispatch prefers several
            # for dynamic balance
            oversubscribe=1 if spec.vectorizable() else None,
        )
        if exe is not None:
            chunk_results = exe.run_job(
                "distance", spec, series_t, chunks,
                traced=trace is not None,
            )
        else:
            chunk_results = _fan_out(
                chunks, rt.workers,
                _init_distance_worker,
                (series_t, spec, trace is not None),
                _run_distance_chunk, start_method,
            )
        outcomes = [item for part, _, _ in chunk_results for item in part]
        stats = CacheStats()
        for _, delta, snapshot in chunk_results:
            stats = stats + delta
            if trace is not None and snapshot is not None:
                trace.merge(snapshot)
        effective_workers = effective

    if trace is not None:
        _record_cache_stats(trace, stats)
    distances = tuple(d for d, _, _ in outcomes)
    cells_per_pair = tuple(c for _, c, _ in outcomes)
    return BatchResult(
        pairs=tuple(task_list),
        distances=distances,
        cells_per_pair=cells_per_pair,
        cells=sum(cells_per_pair),
        measure=measure,
        workers=effective_workers,
        cache=stats,
        paths=tuple(p for _, _, p in outcomes) if return_paths else None,
    )


def batch_lb_keogh(
    series: Sequence[Sequence[float]],
    pairs: Optional[Iterable[Pair]] = None,
    band: int = 0,
    squared: bool = True,
    workers: Optional[int] = None,
    chunksize=None,
    start_method: Optional[str] = None,
    backend: Optional[str] = None,
    executor=None,
    runtime: Optional[Runtime] = None,
) -> BatchResult:
    """LB_Keogh lower bounds for many ``(query, candidate)`` pairs.

    For each pair ``(i, j)`` the bound uses the envelope of series
    ``i`` against the values of series ``j``; envelopes are memoized
    per worker, so a series appearing in many pairs pays for its
    envelope once per batch -- the amortization that makes
    lower-bounding profitable in repeated-use workloads.

    ``backend="numpy"`` scores each chunk with the stacked
    :func:`~repro.core.kernels.KernelSet.lb_keogh_chunk` kernel (one
    call per query/length group).  Its cumulative-sum reduction adds
    gap costs in the scalar order, so the bounds are bit-identical to
    the pure-python path for every worker count.

    ``executor=`` accepts a
    :class:`repro.batch.executor.BatchExecutor` (or ``"default"``)
    exactly as in :func:`batch_distances`; a warm executor serves
    repeated LB batches over one dataset from resident shared memory
    with per-worker envelopes already built.  ``runtime=`` supplies
    the base execution context exactly as in :func:`batch_distances`
    (the per-call knobs override its fields).

    Returns a :class:`BatchResult` whose distances are the bounds
    (``cells`` is 0: no DP lattice is touched).
    """
    rt = Runtime.resolve(
        runtime, workers=workers, backend=backend, executor=executor,
        chunksize=chunksize,
    )
    if band < 0:
        raise ValueError("band must be non-negative")
    if not series:
        raise ValueError("need at least one series")
    lb_backend = rt.backend_name
    task_list = _validated_pairs(pairs, len(series))
    series_t, dims = _canonical_series(series)
    if dims is not None:
        raise ValueError(
            "batch_lb_keogh is univariate; sum the per-channel bounds "
            "of repro.lowerbounds.nd for (length, dims) series"
        )
    trace = _obs.active_trace()
    if trace is not None:
        trace.incr("batch.jobs")
        trace.incr("batch.pairs", len(task_list))

    if not rt.parallel or len(task_list) == 0:
        context = _WorkerContext(
            series_t, lb_band=band, lb_squared=squared,
            lb_backend=lb_backend,
        )
        if lb_backend == "numpy" and task_list:
            bounds = _compute_lb_chunk_vectorized(context, task_list)
        else:
            bounds = [_compute_lb(context, i, j) for i, j in task_list]
        stats = context.cache.stats()
        effective_workers = 1
    else:
        from .schedule import lb_pair_cost

        exe = rt.resolved_executor()
        effective = exe.workers if exe is not None else rt.workers
        lengths = tuple(len(s) for s in series_t)
        chunks = _resolve_chunks(
            task_list, effective, rt.chunksize, lb_pair_cost(lengths),
            oversubscribe=1 if lb_backend == "numpy" else None,
        )
        if exe is not None:
            chunk_results = exe.run_job(
                "lb", (band, squared, lb_backend), series_t, chunks,
                traced=trace is not None,
            )
        else:
            chunk_results = _fan_out(
                chunks, rt.workers,
                _init_lb_worker,
                (series_t, band, squared, lb_backend, trace is not None),
                _run_lb_chunk, start_method,
            )
        bounds = [item for part, _, _ in chunk_results for item in part]
        stats = CacheStats()
        for _, delta, snapshot in chunk_results:
            stats = stats + delta
            if trace is not None and snapshot is not None:
                trace.merge(snapshot)
        effective_workers = effective

    if trace is not None:
        _record_cache_stats(trace, stats)
    zeros = tuple(0 for _ in bounds)
    return BatchResult(
        pairs=tuple(task_list),
        distances=tuple(bounds),
        cells_per_pair=zeros,
        cells=0,
        measure="lb_keogh",
        workers=effective_workers,
        cache=stats,
    )
