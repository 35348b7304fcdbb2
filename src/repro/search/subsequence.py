"""Subsequence similarity search over a long stream (UCR-suite style).

Given a z-normalised query of length ``m`` and a long stream, find the
stream offset whose z-normalised window of length ``m`` is nearest to
the query under banded DTW.  The implementation composes the package's
substrates exactly the way Rakthanmanon et al. (the paper's [3]) do:

* just-in-time normalisation of each window via running statistics,
* the LB_Kim / LB_Keogh cascade against the best-so-far,
* early-abandoning cDTW for survivors.

This is the machinery behind the paper's "one trillion subsequences in
1.4 days" contrast (footnote 2): an *approximation-free* search that
prunes nearly every window, something FastDTW cannot participate in.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from math import inf
from typing import List, Optional, Sequence, Tuple

from ..core.validate import validate_series
from ..lowerbounds.cascade import CascadeBatch, CascadeScan, CascadeStats
from ..preprocess.normalize import znorm, znorm_nd
from ..runtime import Runtime


def _check_nd(query, stream) -> bool:
    """Whether this is a multivariate search; both sides must agree.

    Multivariate queries scan under the dependent measure (``cdtw_d``
    semantics via the nd cascade), windows z-normalised per channel.
    """
    query_nd = bool(query) and hasattr(query[0], "__len__")
    stream_nd = bool(stream) and hasattr(stream[0], "__len__")
    if query_nd != stream_nd:
        raise ValueError(
            "query and stream must both be univariate or both "
            "multivariate (length, dims) series"
        )
    return query_nd


class _Windows(abc.Sequence):
    """The (z-normalised) length-``m`` windows of a stream, as a view:
    each is computed on access and never kept, so a cascade over it
    holds one window at a time."""

    def __init__(self, stream, m: int, step: int, normalize: bool,
                 nd: bool):
        self.stream, self.m, self.normalize, self.nd = (
            stream, m, normalize, nd
        )
        self.starts = range(0, len(stream) - m + 1, step)
        self.prepare = znorm_nd if nd else znorm

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, j: int):
        start = self.starts[j]
        window = self.stream[start:start + self.m]
        return self.prepare(window) if self.normalize else list(window)


@dataclass(frozen=True)
class SubsequenceMatch:
    """Best match of a subsequence search.

    Attributes
    ----------
    start:
        Offset of the best window in the stream.
    distance:
        Exact cDTW distance of the (z-normalised) best window.
    windows:
        Number of windows examined.
    stats:
        Cascade pruning counters over the whole search.
    """

    start: int
    distance: float
    windows: int
    stats: CascadeStats


def subsequence_search(
    query: Sequence[float],
    stream: Sequence[float],
    band: int,
    step: int = 1,
    normalize: bool = True,
    runtime: Optional[Runtime] = None,
    index=None,
) -> SubsequenceMatch:
    """Exact banded-DTW subsequence search of ``query`` in ``stream``.

    Parameters
    ----------
    query:
        Query series (z-normalised internally when ``normalize``).
    stream:
        The long series to scan; must be at least as long as the query.
    band:
        Sakoe-Chiba half-width in cells.
    step:
        Stride between window starts (1 = every offset).
    normalize:
        Z-normalise the query and every window (the meaningful setting;
        disable only for raw-space experiments).
    runtime:
        Execution context, per :mod:`repro.runtime` (``None`` = the
        process default).  The serial context runs the LB-cascade
        scan; a parallel context computes every window's exact
        distance as one :mod:`repro.batch` job (warm executor and
        vectorised kernels apply) and re-derives the same winner --
        pruning is lossless, so ``start`` and ``distance`` are
        bit-identical either way.  Only the ``stats`` provenance
        differs: the batched path never prunes, so it reports every
        window as a full DP.
    index:
        Optional ahead-of-time index of this stream's windows (built
        by ``repro.index`` with the same ``band``/``step``/
        ``normalize``); must prove by content fingerprint that it
        describes exactly this stream.  The indexed scan serves the
        precomputed z-normalised windows and envelopes and, since it
        holds them, scans them best-first by LB_Kim, where the
        index-free scan reads the windows once in stream order --
        both lossless, so ``start`` and ``distance`` are bit-identical
        to the serial index-free scan.  The indexed path is
        sequential (it *is* the pruned cascade), so a parallel
        runtime contributes only its backend.

    Returns
    -------
    SubsequenceMatch
        The provably nearest window under cDTW with this band.
    """
    rt = Runtime.resolve(runtime)
    m = len(query)
    if m == 0:
        raise ValueError("empty query")
    if len(stream) < m:
        raise ValueError("stream shorter than query")
    if step < 1:
        raise ValueError("step must be positive")
    validate_series(query, "query")
    validate_series(stream, "stream")
    nd = _check_nd(query, stream)

    if nd:
        q = znorm_nd(query) if normalize else list(query)
    else:
        q = znorm(query) if normalize else list(query)

    windows = _Windows(stream, m, step, normalize, nd)
    if index is None and rt.parallel:
        distances, cells = _batched_window_distances(q, windows, band, rt)
        from ..batch.engine import argmin_first

        best_idx, best = argmin_first(distances)
        stats = _full_compute_stats(len(windows), cells)
        return SubsequenceMatch(
            windows.starts[best_idx], best, len(windows), stats,
        )
    cascade = _cascade(index, windows, band, rt)
    hit = cascade.nearest(q)
    return SubsequenceMatch(
        windows.starts[hit.index], hit.distance, len(windows), hit.stats,
    )


def subsequence_search_topk(
    query: Sequence[float],
    stream: Sequence[float],
    band: int,
    k: int,
    step: int = 1,
    exclusion: Optional[int] = None,
    normalize: bool = True,
    runtime: Optional[Runtime] = None,
    index=None,
) -> List["SubsequenceMatch"]:
    """The ``k`` best *non-overlapping* matches of ``query`` in ``stream``.

    The natural monitoring query ("every occurrence of this pattern"):
    exact distances are computed for every window (pruned against the
    current k-th best), then matches are selected greedily
    best-first with an ``exclusion``-radius overlap ban (default: the
    query length), the standard top-k convention.

    A parallel ``runtime`` computes every window's exact distance on
    the batch engine and feeds the same greedy selection, so the
    chosen offsets and distances are identical to the serial scan
    (the heap prune is lossless: it only drops windows that provably
    cannot reach the final top-k).

    ``index`` accepts an ahead-of-time index of this stream's windows
    (as in :func:`subsequence_search`): the scan then reuses the
    stored windows and envelopes.  Any bound only ever drops windows
    whose exact distance exceeds the current heap threshold -- windows
    the selection below could never choose -- so the returned offsets
    and distances are identical.

    Returns at most ``k`` matches, best first; fewer if the exclusion
    zone exhausts the stream.
    """
    rt = Runtime.resolve(runtime)
    m = len(query)
    if m == 0:
        raise ValueError("empty query")
    if len(stream) < m:
        raise ValueError("stream shorter than query")
    if k < 1:
        raise ValueError("k must be positive")
    if step < 1:
        raise ValueError("step must be positive")
    exclusion = m if exclusion is None else exclusion
    if exclusion < 1:
        raise ValueError("exclusion must be positive")
    validate_series(query, "query")
    validate_series(stream, "stream")
    nd = _check_nd(query, stream)

    if nd:
        q = znorm_nd(query) if normalize else list(query)
    else:
        q = znorm(query) if normalize else list(query)

    windows = _Windows(stream, m, step, normalize, nd)
    if index is None and rt.parallel:
        distances, cells = _batched_window_distances(q, windows, band, rt)
        stats = _full_compute_stats(len(windows), cells)
        return _topk_choose(
            sorted(zip(distances, windows.starts)), k, exclusion,
            len(windows), stats,
        )
    cascade = _cascade(index, windows, band, rt)
    with cascade.scan(q) as scan:
        return _topk_select(scan, windows.starts, k, step, exclusion)


def _cascade(index, windows: _Windows, band: int, rt: Runtime):
    """The scan's cascade: the verified index's searcher (stored
    windows and envelopes, held, so scanned best-first), else the
    cascade over the stream's windows as a view, scanned in stream
    order."""
    if index is None:
        return CascadeBatch(windows, band, runtime=rt)
    index.require(
        kind="windows", band=band, window=windows.m,
        step=windows.starts.step, normalize=windows.normalize,
        dims=len(windows.stream[0]) if windows.nd else 1,
    )
    index.verify_stream(windows.stream)
    return index.searcher(runtime=rt)


def _topk_select(
    scan: CascadeScan,
    starts: Sequence[int],
    k: int,
    step: int,
    exclusion: int,
) -> List[SubsequenceMatch]:
    """The pruned scoring + greedy selection behind top-k search.

    ``scan.distance(j, bound)`` returns window ``j``'s exact distance,
    or ``inf`` exactly when it provably exceeds ``bound`` (the cascade
    contract).  Exact distance for every window, pruned against a
    conservative threshold: each of the final k matches suppresses at
    most 2*(exclusion/step) overlapping windows, so any window ranked
    worse than the heap bound below provably cannot reach the final
    top-k and may be pruned.
    """
    import heapq

    heap_bound = k * (2 * (exclusion // step) + 2)
    kth_best = inf
    worst_heap: List[float] = []  # max-heap via negatives
    scored: List[Tuple[float, int]] = []
    for j, start in enumerate(starts):
        d = scan.distance(j, best_so_far=kth_best)
        if d == inf:
            continue
        scored.append((d, start))
        heapq.heappush(worst_heap, -d)
        if len(worst_heap) > heap_bound:
            heapq.heappop(worst_heap)
            kth_best = -worst_heap[0]
    scored.sort()
    return _topk_choose(scored, k, exclusion, len(starts), scan.stats)


def _topk_choose(scored, k, exclusion, windows, stats):
    """Greedy best-first selection of ``k`` non-overlapping matches
    from ``(distance, start)`` pairs sorted ascending."""
    chosen: List[SubsequenceMatch] = []
    taken: List[int] = []
    for d, start in scored:
        if len(chosen) >= k:
            break
        if any(abs(start - t) < exclusion for t in taken):
            continue
        taken.append(start)
        chosen.append(SubsequenceMatch(start, d, windows, stats))
    return chosen


def _batched_window_distances(
    q: Sequence[float],
    windows: _Windows,
    band: int,
    rt: Runtime,
) -> Tuple[List[float], int]:
    """Exact cDTW of ``q`` against every stream window, batched.

    Materialises the (z-normalised) windows and computes each exact
    distance as one batch-engine job (the ``cdtw_d`` measure for
    multivariate streams).  Returns the distances in offset order and
    the DP cell total.
    """
    from ..batch.engine import batch_distances

    result = batch_distances(
        [list(q)] + list(windows),
        pairs=[(0, i + 1) for i in range(len(windows))],
        measure="cdtw_d" if windows.nd else "cdtw",
        band=band,
        runtime=rt,
    )
    return list(result.distances), result.cells


def _full_compute_stats(windows: int, cells: int) -> CascadeStats:
    """Cascade counters for a batched (never-pruning) scan."""
    return CascadeStats(candidates=windows, full_dtw=windows, cells=cells)
