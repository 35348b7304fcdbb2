"""1-nearest-neighbour classification under a pluggable distance.

:class:`DistanceSpec` names the measures the paper compares --
Euclidean, banded cDTW (optionally lower-bound accelerated), Full DTW
and the FastDTW variants -- and :class:`OneNearestNeighbor` runs the
standard 1-NN rule with any of them, tracking total DP cells so
experiments can report work as well as accuracy.

The measure registry is the canonical
:data:`repro.core.measures.MEASURES` tuple (shared with
:func:`repro.core.matrix.distance_matrix`), so the two can never
drift again.  Classifiers take their execution context -- kernel
backend, worker count, executor -- from a single
:class:`repro.runtime.Runtime` (``runtime=`` at construction, else
the process default); a parallel context fans the per-candidate
distance calls out over the :mod:`repro.batch` engine and returns
identical labels, distances and cell counts (the serial tie-break --
first candidate wins on equal distances -- is preserved).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import List, Optional, Sequence

from ..core.cdtw import cdtw
from ..core.dtw import dtw
from ..core.euclidean import euclidean
from ..core.fastdtw import fastdtw
from ..core.fastdtw_reference import fastdtw_reference
from ..core.measures import MEASURES
from ..core.window import band_from_fraction
from ..lowerbounds.cascade import CascadeBatch
from ..obs import trace as _obs
from ..runtime import Runtime

_FASTDTW_MEASURES = ("fastdtw", "fastdtw_reference")
_BANDED_MEASURES = ("cdtw", "cdtw_d", "cdtw_i")


@dataclass(frozen=True)
class DistanceSpec:
    """A named distance configuration for classification.

    Attributes
    ----------
    measure:
        One of :data:`repro.core.measures.MEASURES`.
    window:
        Band as a fraction of length (the banded measures ``"cdtw"``,
        ``"cdtw_d"`` and ``"cdtw_i"``).
    radius:
        FastDTW radius (the fastdtw measures only).
    use_lower_bounds:
        For ``"cdtw"``: route through the lossless LB cascade (exact,
        faster); meaningless for the other measures.
    backend:
        Kernel backend for the exact DP measures, per
        :mod:`repro.core.kernels` (``None`` = process default).
        ``"numpy"`` returns identical labels, distances and cells;
        the fastdtw measures and Euclidean ignore it.
    """

    measure: str
    window: Optional[float] = None
    radius: Optional[int] = None
    use_lower_bounds: bool = False
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; pick from {MEASURES}"
            )
        if self.backend is not None:
            Runtime(backend=self.backend)  # validates the name
        if self.measure in _BANDED_MEASURES:
            if self.window is None or not 0.0 <= self.window <= 1.0:
                raise ValueError(
                    f"{self.measure} needs window= in [0, 1]"
                )
        elif self.window is not None:
            raise ValueError(
                "window= only applies to the banded measures "
                f"{_BANDED_MEASURES}"
            )
        if self.measure in _FASTDTW_MEASURES:
            if self.radius is None or self.radius < 0:
                raise ValueError(f"{self.measure} needs radius >= 0")
        elif self.radius is not None:
            raise ValueError(
                "radius= only applies to the fastdtw measures"
            )

    def describe(self) -> str:
        """Paper-style name, e.g. ``cDTW_10`` or ``FastDTW_20``."""
        if self.measure == "euclidean":
            return "Euclidean"
        if self.measure == "dtw":
            return "Full DTW"
        if self.measure == "cdtw":
            return f"cDTW_{round(self.window * 100)}"
        if self.measure == "rle_dtw":
            return "RLE-DTW"
        if self.measure == "dtw_d":
            return "DTW-D"
        if self.measure == "dtw_i":
            return "DTW-I"
        if self.measure == "cdtw_d":
            return f"cDTW-D_{round(self.window * 100)}"
        if self.measure == "cdtw_i":
            return f"cDTW-I_{round(self.window * 100)}"
        if self.measure == "fastdtw_reference":
            return f"FastDTW-ref_{self.radius}"
        return f"FastDTW_{self.radius}"


class OneNearestNeighbor:
    """1-NN classifier over labelled series.

    Parameters
    ----------
    spec:
        The distance configuration.
    runtime:
        Execution context, per :mod:`repro.runtime`, captured at
        construction (``None`` = the process default at construction
        time).  A parallel context -- ``workers > 1`` or a persistent
        executor -- fans the per-candidate distance scans out over the
        :mod:`repro.batch` engine with identical results; an executor
        is the right choice when one classifier answers many queries
        over one training set (pool startup and dataset shipping
        amortise across calls).  ``spec.backend`` overrides the
        runtime's backend when set.  The ``use_lower_bounds`` cascade
        is inherently sequential (its pruning threads a best-so-far
        through the scan) and always runs serially; :meth:`fit` builds
        it once over the training set, so candidate envelopes built
        for one query serve every later one.
    index:
        Optional ahead-of-time index of the training set (built by
        ``repro.index`` over exactly the series later passed to
        :meth:`fit`, with the band ``spec.window`` implies).  Only
        valid for ``measure="cdtw"`` with ``use_lower_bounds``; the
        indexed scans reuse precomputed envelopes and share exact
        distances across leave-one-out queries -- both lossless, so
        predictions are identical.  Verified by content fingerprint
        at :meth:`fit`.

    Notes
    -----
    ``fit`` stores the training series; ``predict`` performs a linear
    scan per query (the setting of all the paper's experiments -- no
    indexing, both measures get the same scan, unless an ``index`` is
    explicitly supplied).
    """

    def __init__(self, spec: DistanceSpec, runtime: Optional[Runtime] = None,
                 index=None):
        rt = Runtime.resolve(runtime)
        self._cascaded = (
            spec.measure in ("cdtw", "cdtw_d") and spec.use_lower_bounds
        )
        if index is not None and not self._cascaded:
            raise ValueError(
                "index= requires measure='cdtw' (or 'cdtw_d') with "
                "use_lower_bounds=True (the index serves the "
                "lower-bound cascade)"
            )
        self.spec = spec
        self.runtime = rt.with_backend(spec.backend)
        self.workers = rt.workers
        self.executor = rt.executor
        self._train: List[List[float]] = []
        self._labels: List[object] = []
        self._index = index
        self._cascade = None
        self.cells_evaluated = 0

    def fit(
        self, series: Sequence[Sequence[float]], labels: Sequence[object]
    ) -> "OneNearestNeighbor":
        """Store the training set (series and labels, same length)."""
        if len(series) != len(labels):
            raise ValueError("series and labels must have equal length")
        if not series:
            raise ValueError("training set is empty")
        self._train = [list(s) for s in series]
        self._labels = list(labels)
        self._cascade = None
        if self._cascaded:
            n = len(series[0])
            band = band_from_fraction(self.spec.window, n)
            # the index serves stored envelopes and a shared
            # exact-distance cache to the same scan
            if self._index is not None:
                self._index.require(
                    kind="collection", count=len(series), length=n,
                    band=band, normalize=False,
                )
                self._index.verify_collection(series)
                self._cascade = self._index.searcher(
                    runtime=self.runtime, share_exact=True,
                )
            else:
                self._cascade = CascadeBatch(
                    self._train, band, runtime=self.runtime,
                )
        return self

    def predict_one(self, query: Sequence[float], exclude: Optional[int] = None):
        """Label of the training series nearest to ``query``.

        ``exclude`` skips one training index (leave-one-out CV); an
        index outside the training set is a ``ValueError``.
        """
        if not self._train:
            raise ValueError("classifier is not fitted")
        count = len(self._train)
        if exclude is not None and not 0 <= exclude < count:
            raise ValueError(
                f"exclude={exclude} is not a training index "
                f"(0..{count - 1})"
            )
        if self._cascade is not None:
            return self._predict_cascaded(query, exclude)
        indices = [
            i for i in range(len(self._train)) if i != exclude
        ]
        if not indices:
            raise ValueError("no training candidates after exclusion")
        candidates = [self._train[i] for i in indices]
        _obs.incr("knn.predictions")
        with _obs.span("knn"):
            idx, _dist, cells = self._nearest(query, candidates)
        self.cells_evaluated += cells
        return self._labels[indices[idx]]

    def predict(self, queries: Sequence[Sequence[float]]) -> List[object]:
        """Labels for a batch of query series.

        With ``workers > 1`` every (query, candidate) distance of the
        whole batch is computed in one :mod:`repro.batch` job.
        """
        if self._use_batch_engine() and len(queries) > 1:
            return self._predict_batched(queries)
        return [self.predict_one(q) for q in queries]

    def error_rate(
        self,
        queries: Sequence[Sequence[float]],
        labels: Sequence[object],
    ) -> float:
        """Fraction of ``queries`` misclassified against ``labels``."""
        if len(queries) != len(labels):
            raise ValueError("queries and labels must have equal length")
        if not queries:
            raise ValueError("no queries")
        predicted = self.predict(queries)
        wrong = sum(1 for p, lab in zip(predicted, labels) if p != lab)
        return wrong / len(queries)

    # -- internal ---------------------------------------------------------

    def _use_batch_engine(self) -> bool:
        return self.runtime.parallel and not self._cascaded

    def _predict_cascaded(self, query, exclude):
        """Label of the nearest training series via the cascade.

        Exclusion happens *inside* the scan, so no candidate subset is
        materialised and the winner's index addresses the training set
        directly.  When the query *is* the excluded training series
        (leave-one-out), its envelope is the stored one and, indexed,
        its exact distances feed the shared cache -- both lossless,
        see :mod:`repro.lowerbounds.cascade`.
        """
        if len(self._train) < 2 and exclude is not None:
            raise ValueError("no training candidates after exclusion")
        member = (
            exclude
            if exclude is not None and list(query) == self._train[exclude]
            else None
        )
        _obs.incr("knn.predictions")
        with _obs.span("knn"):
            hit = self._cascade.nearest(
                query, query_index=member, exclude=exclude,
            )
        self.cells_evaluated += hit.stats.cells
        return self._labels[hit.index]

    def _nearest(self, query, candidates):
        if self._use_batch_engine():
            idx, dist, cells = _nearest_batched(
                self.spec, query, candidates, self.runtime,
            )
        else:
            idx, dist, cells = _nearest_impl(
                self.spec, query, candidates, self.runtime,
            )
        return idx, dist, cells

    def _predict_batched(self, queries) -> List[object]:
        from ..batch.engine import argmin_first, batch_distances

        _obs.incr("knn.predictions", len(queries))
        q = len(queries)
        series = [list(s) for s in queries] + self._train
        pairs = [
            (qi, q + ti)
            for qi in range(q)
            for ti in range(len(self._train))
        ]
        result = batch_distances(
            series, pairs=pairs, runtime=self.runtime,
            **_spec_kwargs(self.spec),
        )
        self.cells_evaluated += result.cells
        t = len(self._train)
        labels = []
        for qi in range(q):
            row = result.distances[qi * t:(qi + 1) * t]
            idx, _ = argmin_first(row)
            labels.append(self._labels[idx])
        return labels


class KNearestNeighbors:
    """k-NN majority-vote classifier under a pluggable distance.

    Generalises :class:`OneNearestNeighbor` (``k = 1`` is identical).
    Vote ties break towards the label of the nearest neighbour among
    the tied labels, the standard convention.

    Note: with ``k > 1`` every candidate's distance is needed, so the
    lossless best-so-far pruning of the 1-NN cascade does not apply;
    ``use_lower_bounds`` is therefore ignored for ``k > 1``.  The
    full scans parallelise cleanly: pass a parallel ``runtime=``
    (workers and/or a persistent executor for a warm pool across
    queries).
    """

    def __init__(self, spec: DistanceSpec, k: int = 3,
                 runtime: Optional[Runtime] = None):
        if k < 1:
            raise ValueError("k must be positive")
        rt = Runtime.resolve(runtime)
        self.spec = spec
        self.k = k
        self.runtime = rt.with_backend(spec.backend)
        self.workers = rt.workers
        self.executor = rt.executor
        self._train: List[List[float]] = []
        self._labels: List[object] = []

    def fit(
        self, series: Sequence[Sequence[float]], labels: Sequence[object]
    ) -> "KNearestNeighbors":
        """Store the training set."""
        if len(series) != len(labels):
            raise ValueError("series and labels must have equal length")
        if len(series) < self.k:
            raise ValueError(
                f"need at least k={self.k} training series, got {len(series)}"
            )
        self._train = [list(s) for s in series]
        self._labels = list(labels)
        return self

    def predict_one(self, query: Sequence[float]):
        """Majority label among the ``k`` nearest training series."""
        if not self._train:
            raise ValueError("classifier is not fitted")
        _obs.incr("knn.predictions")
        if self.runtime.parallel:
            from ..batch.engine import batch_distances

            series = [list(query)] + self._train
            pairs = [(0, i + 1) for i in range(len(self._train))]
            result = batch_distances(
                series, pairs=pairs, runtime=self.runtime,
                **_spec_kwargs(self.spec),
            )
            distances = [
                (d, i) for i, d in enumerate(result.distances)
            ]
        else:
            distances = [
                (_distance(self.spec, query, cand, self.runtime), i)
                for i, cand in enumerate(self._train)
            ]
        distances.sort()
        top = distances[: self.k]
        votes: dict = {}
        for d, i in top:
            votes.setdefault(self._labels[i], []).append(d)
        best_count = max(len(ds) for ds in votes.values())
        tied = [
            (min(ds), label)
            for label, ds in votes.items()
            if len(ds) == best_count
        ]
        return min(tied)[1]

    def predict(self, queries: Sequence[Sequence[float]]) -> List[object]:
        """Labels for a batch of queries."""
        return [self.predict_one(q) for q in queries]

    def error_rate(
        self,
        queries: Sequence[Sequence[float]],
        labels: Sequence[object],
    ) -> float:
        """Fraction of ``queries`` misclassified."""
        if len(queries) != len(labels):
            raise ValueError("queries and labels must have equal length")
        if not queries:
            raise ValueError("no queries")
        wrong = sum(
            1 for q, lab in zip(queries, labels) if self.predict_one(q) != lab
        )
        return wrong / len(queries)


def _spec_kwargs(spec: DistanceSpec) -> dict:
    """Batch-engine keyword arguments equivalent to ``spec``.

    The backend is *not* included: it rides on the classifier's
    :class:`~repro.runtime.Runtime` (where ``spec.backend``, when
    set, was folded in at construction).
    """
    kwargs: dict = {"measure": spec.measure}
    if spec.measure in _BANDED_MEASURES:
        kwargs["window"] = spec.window
    if spec.measure in _FASTDTW_MEASURES:
        kwargs["radius"] = spec.radius
    return kwargs


def _kernel_fn(spec: DistanceSpec, rt: Runtime):
    """Non-default kernel dispatch for ``spec`` under ``rt``, or ``None``.

    ``None`` means "use the serial reference implementations below",
    which is the pure-Python path every spec took before the kernel
    registry existed; only the exact DP measures on a non-python
    backend divert through :func:`repro.core.measures.measure_fn`.
    """
    from ..core.measures import ND_MEASURES, RLE_MEASURES

    if spec.measure in RLE_MEASURES or spec.measure in ND_MEASURES:
        # always dispatched through the registry: neither the
        # compressed-domain DP nor the multivariate measures have a
        # reference twin among the serial branches below
        from ..core.measures import measure_fn

        rt = rt.with_backend(spec.backend)
        return measure_fn(
            spec.measure, window=spec.window, backend=rt.backend_name
        )
    if spec.measure not in ("dtw", "cdtw"):
        return None
    rt = rt.with_backend(spec.backend)
    name = rt.backend_name
    if name == "python":
        return None
    from ..core.measures import measure_fn

    return measure_fn(spec.measure, window=spec.window, backend=name)


def _distance(spec: DistanceSpec, x, y, rt: Runtime) -> float:
    fn = _kernel_fn(spec, rt)
    if fn is not None:
        return fn(x, y).distance
    if spec.measure == "euclidean":
        return euclidean(x, y)
    if spec.measure == "dtw":
        return dtw(x, y).distance
    if spec.measure == "cdtw":
        return cdtw(x, y, window=spec.window).distance
    if spec.measure == "fastdtw_reference":
        return fastdtw_reference(x, y, radius=spec.radius).distance
    return fastdtw(x, y, radius=spec.radius).distance


def _nearest_batched(spec: DistanceSpec, query, candidates, rt: Runtime):
    """Batched equivalent of :func:`_nearest_impl` (same tie-break)."""
    from ..batch.engine import argmin_first, batch_distances

    series = [list(query)] + [list(c) for c in candidates]
    pairs = [(0, i + 1) for i in range(len(candidates))]
    result = batch_distances(
        series, pairs=pairs, runtime=rt.with_backend(spec.backend),
        **_spec_kwargs(spec)
    )
    idx, best = argmin_first(result.distances)
    return idx, best, result.cells


def _nearest_impl(spec: DistanceSpec, query, candidates, rt: Runtime):
    """Index, distance and DP cells of the nearest candidate (every
    spec but the cascaded ``use_lower_bounds`` ones)."""
    kernel_fn = _kernel_fn(spec, rt)
    best_idx, best, cells = 0, inf, 0
    for i, cand in enumerate(candidates):
        if kernel_fn is not None:
            r = kernel_fn(query, cand)
            d, cells = r.distance, cells + r.cells
        elif spec.measure == "euclidean":
            d = euclidean(query, cand, abandon_above=best)
        elif spec.measure == "dtw":
            r = dtw(query, cand)
            d, cells = r.distance, cells + r.cells
        elif spec.measure == "cdtw":
            r = cdtw(query, cand, window=spec.window)
            d, cells = r.distance, cells + r.cells
        elif spec.measure == "fastdtw_reference":
            r = fastdtw_reference(query, cand, radius=spec.radius)
            d, cells = r.distance, cells + r.cells
        else:  # fastdtw
            r = fastdtw(query, cand, radius=spec.radius)
            d, cells = r.distance, cells + r.cells
        if d < best:
            best, best_idx = d, i
    return best_idx, best, cells
