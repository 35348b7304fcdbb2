"""1-nearest-neighbour search under several DTW strategies.

Strategies, from the paper's comparison space:

* ``"cdtw"``          -- exact banded DTW per candidate, no tricks;
* ``"cdtw+lb"``       -- exact, with the lossless lower-bound cascade
  and early abandoning (the UCR-suite style, cDTW-only optimisation),
  scanning list or tuple candidates best-first by LB_Kim;
* ``"fastdtw"``       -- the approximation, which must run in full for
  every candidate (no valid lower bounds exist for it);
* ``"euclidean"``     -- the ``w = 0`` baseline.

The exact strategies return identical neighbours by construction; the
repeated-use benchmark contrasts their work (cells, wall-clock) with
FastDTW's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence

from ..core.cdtw import cdtw
from ..core.euclidean import euclidean
from ..core.fastdtw import fastdtw
from ..core.window import band_from_fraction
from ..lowerbounds.cascade import CascadeBatch, CascadeStats
from ..obs import trace as _obs
from ..runtime import Runtime

STRATEGIES = ("cdtw", "cdtw+lb", "fastdtw", "euclidean")


@dataclass(frozen=True)
class NnResult:
    """Outcome of a 1-NN search.

    ``cells`` is the total number of DP lattice cells evaluated across
    all candidates (0 for pure Euclidean); ``stats`` is populated only
    by the ``"cdtw+lb"`` strategy.
    """

    index: int
    distance: float
    strategy: str
    cells: int
    stats: Optional[CascadeStats] = None


def nearest_neighbor(
    query: Sequence[float],
    candidates: Sequence[Sequence[float]],
    strategy: str = "cdtw+lb",
    band: Optional[int] = None,
    window: Optional[float] = None,
    radius: int = 1,
    runtime: Optional[Runtime] = None,
    index=None,
) -> NnResult:
    """Find the candidate nearest to ``query``.

    Parameters
    ----------
    query:
        The query series.
    candidates:
        Non-empty list of candidate series (equal length to the query
        for the banded / lower-bounded strategies).
    strategy:
        One of :data:`STRATEGIES`.
    band, window:
        Band half-width (cells) or fraction-of-length for the cDTW
        strategies; exactly one must be given for those strategies.
    radius:
        FastDTW radius for the ``"fastdtw"`` strategy.
    runtime:
        Execution context, per :mod:`repro.runtime` (``None`` = the
        process default).  A parallel context fans the candidate scan
        out over the :mod:`repro.batch` engine; the full-compute
        strategies return identical results -- same index, distance
        and cell total -- for every context.  ``"cdtw+lb"`` always
        runs serially: its best-so-far pruning threads a threshold
        through the scan and is inherently order-dependent (the
        runtime's backend still applies to its DP stages).
    index:
        Optional ahead-of-time index of ``candidates`` (built by
        ``repro.index``); ``"cdtw+lb"`` only.  The index must prove --
        by content fingerprint -- that it was built from exactly
        these candidates with this band, and the search then reuses
        its precomputed envelopes instead of building them.  The scan
        is otherwise the index-free one, best-first by LB_Kim, so the
        returned neighbour and distance are identical to the
        index-free path, and so are the ``stats`` for list or tuple
        ``candidates``.  The resolved ``runtime`` still governs the
        backend (``index=`` rides on, not around, ``Runtime.resolve``).

    Returns
    -------
    NnResult
    """
    rt = Runtime.resolve(runtime)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
    if not candidates:
        raise ValueError("no candidates to search")
    if index is not None and strategy != "cdtw+lb":
        raise ValueError(
            "index= applies only to the 'cdtw+lb' strategy"
        )

    trace = _obs.active_trace()
    if trace is None:
        return _nearest_neighbor_impl(
            query, candidates, strategy, band, window, radius, rt, index,
        )
    trace.incr("nn.queries")
    trace.incr("nn.candidates", len(candidates))
    with _obs.span("nn_search"):
        return _nearest_neighbor_impl(
            query, candidates, strategy, band, window, radius, rt, index,
        )


def _nearest_neighbor_impl(
    query, candidates, strategy, band, window, radius, rt, index=None,
) -> NnResult:
    """The strategy dispatch behind :func:`nearest_neighbor`.

    Split out so the public entry point's observability hook costs one
    module-global read when no :class:`repro.obs.RunTrace` is active.

    Multivariate ``(length, dims)`` queries route the exact
    strategies to the *dependent* measure (one DP over vector
    samples, ``cdtw_d`` semantics) and ``"fastdtw"`` to
    :func:`repro.core.multivariate.fastdtw_nd`, so ``"cdtw"`` and
    ``"cdtw+lb"`` still return identical neighbours on vector data.
    """
    nd = bool(query) and hasattr(query[0], "__len__")
    if nd and strategy == "euclidean":
        raise ValueError(
            "strategy 'euclidean' is univariate; multivariate "
            "(length, dims) series need a DTW strategy (cdtw, "
            "cdtw+lb, fastdtw)"
        )
    if rt.parallel and strategy != "cdtw+lb" and not (
        nd and strategy == "fastdtw"
    ):
        return _nearest_neighbor_batched(
            query, candidates, strategy, band, window, radius, rt, nd,
        )

    if strategy == "euclidean":
        best_idx, best = 0, inf
        for idx, cand in enumerate(candidates):
            d = euclidean(query, cand, abandon_above=best)
            if d < best:
                best, best_idx = d, idx
        return NnResult(best_idx, best, strategy, cells=0)

    if strategy == "fastdtw":
        if nd:
            from ..core.multivariate import fastdtw_nd as fast_fn
        else:
            fast_fn = fastdtw
        best_idx, best, cells = 0, inf, 0
        for idx, cand in enumerate(candidates):
            result = fast_fn(query, cand, radius=radius)
            cells += result.cells
            if result.distance < best:
                best, best_idx = result.distance, idx
        return NnResult(best_idx, best, strategy, cells=cells)

    band_cells_ = _resolve_band(len(query), band, window)

    if strategy == "cdtw":
        if nd or rt.backend_name != "python":
            from ..core.measures import measure_fn

            fn = measure_fn(
                "cdtw_d" if nd else "cdtw",
                band=band_cells_, backend=rt.backend_name,
            )
        else:
            fn = None
        best_idx, best, cells = 0, inf, 0
        for idx, cand in enumerate(candidates):
            if fn is not None:
                result = fn(query, cand)
            else:
                result = cdtw(query, cand, band=band_cells_)
            cells += result.cells
            if result.distance < best:
                best, best_idx = result.distance, idx
        return NnResult(best_idx, best, strategy, cells=cells)

    # strategy == "cdtw+lb": an index only serves stored envelopes
    if index is not None:
        index.require(
            kind="collection", band=band_cells_, normalize=False,
            length=len(query), count=len(candidates),
            dims=len(query[0]) if nd else 1,
        )
        index.verify_collection(candidates)
        cascade = index.searcher(runtime=rt)
    else:
        cascade = CascadeBatch(candidates, band_cells_, runtime=rt)
    hit = cascade.nearest(query)
    return NnResult(
        hit.index, hit.distance, strategy,
        cells=hit.stats.cells, stats=hit.stats,
    )


def _nearest_neighbor_batched(
    query, candidates, strategy, band, window, radius, rt, nd=False,
) -> NnResult:
    """Fan the candidate scan out over the batch engine.

    Computes every candidate's distance in full (exactly what the
    serial loops of the non-pruned strategies do) and applies the same
    first-wins tie-break, so the result is identical to the serial
    context.  Multivariate scans swap ``"cdtw"`` for the batch
    engine's ``"cdtw_d"`` measure (there is no batched nd fastdtw;
    that combination stays serial).
    """
    from ..batch.engine import argmin_first, batch_distances

    kwargs: dict = {"measure": "cdtw_d" if nd else strategy}
    if strategy == "cdtw":
        kwargs["band"] = _resolve_band(len(query), band, window)
    elif strategy == "fastdtw":
        kwargs["radius"] = radius
    series = [list(query)] + [list(c) for c in candidates]
    pairs = [(0, i + 1) for i in range(len(candidates))]
    result = batch_distances(series, pairs=pairs, runtime=rt, **kwargs)
    best_idx, best = argmin_first(result.distances)
    return NnResult(best_idx, best, strategy, cells=result.cells)


def _resolve_band(n: int, band: Optional[int], window: Optional[float]) -> int:
    if (band is None) == (window is None):
        raise ValueError("specify exactly one of band= or window=")
    if band is not None:
        if band < 0:
            raise ValueError("band must be non-negative")
        return band
    if not 0.0 <= window <= 1.0:
        raise ValueError("window fraction must be in [0, 1]")
    return band_from_fraction(window, n)
