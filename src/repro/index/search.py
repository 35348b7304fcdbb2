"""The query driver consumers get from ``DatasetIndex.searcher()``.

:class:`IndexSearcher` marries a :class:`~repro.index.DatasetIndex`'s
precomputed artifacts to the :class:`~repro.lowerbounds.cascade.
CascadeBatch` cascade: candidate envelopes are served from the index
instead of rebuilt, and self-join workloads (LOOCV, discords, motifs)
can share exact distances across queries.  Those are the only two
things an index changes: the stored series are held, so ``nearest``
scans them exactly as an index-free ``CascadeBatch`` over the same
list would, returning the same neighbour, distance and
:class:`~repro.lowerbounds.cascade.CascadeStats` (see the cascade
module's proofs), and consumers treat the searcher as a drop-in fast
path.

Observability: each search increments ``index.hits``; precomputed
artifacts served instead of recomputed accumulate under
``index.artifacts_reused``; cache-served exact distances under
``index.reused_exact``.  The counters are derived from the same
:class:`~repro.lowerbounds.cascade.CascadeStats` the result carries,
so trace snapshots and returned stats can be parity-checked.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..lowerbounds.cascade import BatchNearest, CascadeBatch, CascadeScan
from ..obs import trace as _obs
from ..runtime import Runtime
from .dataset_index import IndexMismatchError

__all__ = ["IndexSearcher"]


class IndexSearcher:
    """Repeated exact 1-NN over one index (see the module notes).

    Parameters
    ----------
    index:
        The :class:`~repro.index.DatasetIndex` to serve.
    runtime:
        Execution context, per :mod:`repro.runtime` (``None`` = the
        process default, resolved *now*).  Searches are inherently
        sequential (best-so-far pruning), so only the backend
        matters; the cascade pins it at construction.
    share_exact:
        Keep a symmetric exact-distance cache across self-join
        queries (callers must then pass ``query_index``).
    """

    def __init__(
        self,
        index,
        runtime: Optional[Runtime] = None,
        share_exact: bool = False,
    ):
        self.index = index
        self.runtime = Runtime.resolve(runtime).serial()
        self._batch = CascadeBatch(
            index.candidate_series(), index.band,
            share_exact=share_exact,
            runtime=self.runtime,
            candidate_envelopes=index.candidate_envelopes(),
        )

    def nearest(
        self,
        query: Sequence[float],
        exclude: Optional[int] = None,
        query_index: Optional[int] = None,
    ) -> BatchNearest:
        """Exact nearest indexed series to ``query``.

        ``exclude`` skips one candidate (leave-one-out);
        ``query_index`` declares that ``query`` *is* indexed series
        number ``query_index`` (its stored envelope is reused and,
        with ``share_exact``, its distances feed the cache).  The
        result's ``index`` addresses the indexed collection -- map
        through ``index.starts`` for stream offsets.
        """
        self._check_query_length(query)
        result = self._batch.nearest(
            query, query_index=query_index, exclude=exclude,
        )
        self._record(result.artifacts_reused, result.stats)
        return result

    def scan(
        self,
        query: Sequence[float],
        query_index: Optional[int] = None,
    ) -> CascadeScan:
        """A candidate-at-a-time view for callers that drive their own
        loop (top-k, discords, motifs); see
        :class:`~repro.lowerbounds.cascade.CascadeScan`.  Its
        ``index.*`` counters are recorded when it is closed."""
        self._check_query_length(query)
        return self._batch.scan(
            query, query_index=query_index,
            on_close=lambda scan: self._record(
                scan.artifacts_reused, scan.stats
            ),
        )

    def _check_query_length(self, query: Sequence[float]) -> None:
        """Refuse a query whose length disagrees with the index.

        The stored envelopes are band-``band`` envelopes of
        ``index.length``-point series, so a differently sized query
        would be bounded against envelopes of the wrong length --
        plausible-looking, silently wrong results.  Length is the one
        ``require()`` precondition a searcher can check on its own,
        so it does (stride/step mismatches still need ``require``).
        """
        if len(query) != self.index.length:
            raise IndexMismatchError(
                f"query has length {len(query)} but the index stores "
                f"series of length {self.index.length}; envelopes "
                "cannot be reused across lengths -- rebuild the index "
                "or fix the query"
            )
        nested = bool(query) and hasattr(query[0], "__len__")
        query_dims = len(query[0]) if nested else 1
        if query_dims != self.index.dims:
            raise IndexMismatchError(
                f"query has {query_dims} channel(s) but the index "
                f"stores {self.index.dims}-dimensional series; "
                "per-channel envelopes cannot be reused across "
                "dimensionalities -- rebuild the index or fix the "
                "query"
            )

    def _record(self, artifacts_reused: int, stats) -> None:
        _obs.incr("index.hits")
        if artifacts_reused:
            _obs.incr("index.artifacts_reused", artifacts_reused)
        if stats.reused_exact:
            _obs.incr("index.reused_exact", stats.reused_exact)
