"""Dataset registration and the fingerprint-keyed artifact cache.

The service's amortisation story rests on two invariants:

* a dataset is known by its **content fingerprint** (the blake2b hash
  :func:`repro.batch.shm.pack_dataset` computes), not its name -- so
  re-registering a name with different values can never serve stale
  artifacts, and re-registering identical values keeps every cached
  artifact warm;
* every expensive per-dataset artifact (a built
  :class:`~repro.index.DatasetIndex` with its envelopes and moments,
  a memoised pure query result) is cached under that fingerprint plus
  the exact build parameters, so the Nth query is strictly cheaper
  than the 1st -- the paper's repeated-use argument, applied to the
  serving layer.

Nothing here is thread-safe on its own; :class:`~repro.serve.service.
QueryService` serialises access under its execution lock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..batch.shm import dataset_dims, pack_dataset
from ..core.validate import validate_series
from ..index import DatasetIndex, build_index, build_stream_index
from ..index.dataset_index import index_dims
from .protocol import ProtocolError

__all__ = ["ArtifactCache", "DatasetRegistry", "RegisteredDataset"]


@dataclass(frozen=True)
class RegisteredDataset:
    """One named dataset: a collection of series, or a single stream.

    Multivariate datasets (rows of ``(length, dims)`` vector samples)
    record ``dims > 1``; ``(length, 1)`` rows are refused at
    registration (see :func:`repro.index.dataset_index.index_dims`).
    """

    name: str
    kind: str  # "collection" | "stream"
    series: Tuple[Tuple[Any, ...], ...]
    fingerprint: str
    dims: int = 1

    @property
    def stream(self) -> Tuple[float, ...]:
        """The stream values (``stream`` kind only)."""
        return self.series[0]


def _canonical_row(values) -> Tuple[Any, ...]:
    """One series as float tuples: flat, or per-sample for nd rows."""
    items = list(values)
    if items and isinstance(items[0], (tuple, list)):
        return tuple(tuple(float(c) for c in v) for v in items)
    return tuple(float(v) for v in items)


class DatasetRegistry:
    """Name -> :class:`RegisteredDataset`, fingerprinted on entry."""

    def __init__(self):
        self._datasets: Dict[str, RegisteredDataset] = {}

    def register(self, name: str, series) -> RegisteredDataset:
        """Register a collection of series under ``name``.

        Returns the entry (its ``fingerprint`` identifies the content).
        Re-registering a name replaces the previous entry; identical
        content keeps the same fingerprint, so downstream artifact
        caches stay warm.
        """
        if not name:
            raise ProtocolError("dataset name must be non-empty")
        rows = [_canonical_row(s) for s in series]
        if not rows:
            raise ProtocolError(f"dataset {name!r} has no series")
        for i, row in enumerate(rows):
            validate_series(row, f"series {i}")
        try:
            dims = index_dims(dataset_dims(rows), f"dataset {name!r}")
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        _, _, fingerprint = pack_dataset(rows)
        entry = RegisteredDataset(
            name=name, kind="collection", series=tuple(rows),
            fingerprint=fingerprint, dims=dims,
        )
        self._datasets[name] = entry
        return entry

    def register_stream(self, name: str, values) -> RegisteredDataset:
        """Register a single stream under ``name``."""
        if not name:
            raise ProtocolError("dataset name must be non-empty")
        row = _canonical_row(values)
        validate_series(row, "stream")
        try:
            dims = index_dims(dataset_dims([row]), f"stream {name!r}")
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        _, _, fingerprint = pack_dataset([row])
        entry = RegisteredDataset(
            name=name, kind="stream", series=(row,),
            fingerprint=fingerprint, dims=dims,
        )
        self._datasets[name] = entry
        return entry

    def get(self, name: str) -> RegisteredDataset:
        entry = self._datasets.get(name)
        if entry is None:
            known = sorted(self._datasets)
            raise ProtocolError(
                f"unknown dataset {name!r}; registered: {known}"
            )
        return entry

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._datasets))

    def drop(self, name: str) -> None:
        self._datasets.pop(name, None)

    def fingerprints(self) -> Tuple[str, ...]:
        """Fingerprints currently reachable through a name."""
        return tuple(d.fingerprint for d in self._datasets.values())


@dataclass
class CacheStats:
    """Artifact-cache accounting (exposed through service stats)."""

    index_builds: int = 0
    index_hits: int = 0
    result_hits: int = 0
    result_entries: int = 0
    evictions: int = 0


class ArtifactCache:
    """Fingerprint-keyed caches for indexes and pure query results.

    ``index_for`` serves a built :class:`~repro.index.DatasetIndex`
    keyed by ``(fingerprint, kind, band, window, step, normalize)``;
    ``get_result``/``put_result`` memoise whole answers keyed by the
    request's content (fingerprint + op + canonical parameters +
    query hash).  Both are LRU-bounded.  :meth:`retain_only` drops
    every entry whose fingerprint is no longer registered -- the
    invalidation hook the service calls after (re-)registration.
    """

    def __init__(self, max_indexes: int = 32, max_results: int = 256):
        if max_indexes < 1 or max_results < 1:
            raise ValueError("cache bounds must be >= 1")
        self._indexes: "OrderedDict[tuple, DatasetIndex]" = OrderedDict()
        self._results: "OrderedDict[tuple, Any]" = OrderedDict()
        self._max_indexes = max_indexes
        self._max_results = max_results
        self.stats = CacheStats()

    # -- indexes -----------------------------------------------------------

    def index_for(
        self,
        dataset: RegisteredDataset,
        band: int,
        window: Optional[int] = None,
        step: int = 1,
        normalize: bool = True,
    ) -> DatasetIndex:
        """The dataset's index for these parameters, built at most once.

        Collections build a ``kind="collection"`` index (raw series --
        what the 1-NN consumers verify against); streams build a
        ``kind="windows"`` index of their sliding windows.
        """
        if dataset.kind == "collection":
            key = (dataset.fingerprint, "collection", band)
        else:
            key = (
                dataset.fingerprint, "windows", band, window, step,
                normalize,
            )
        index = self._indexes.get(key)
        if index is not None:
            self._indexes.move_to_end(key)
            self.stats.index_hits += 1
            return index
        if dataset.kind == "collection":
            index = build_index(list(dataset.series), band=band)
        else:
            index = build_stream_index(
                list(dataset.stream), window=window, band=band,
                step=step, normalize=normalize,
            )
        self._indexes[key] = index
        self.stats.index_builds += 1
        while len(self._indexes) > self._max_indexes:
            self._indexes.popitem(last=False)
            self.stats.evictions += 1
        return index

    # -- memoised results --------------------------------------------------

    def get_result(self, key: tuple):
        """The cached answer for ``key``, or ``None`` (counts a hit)."""
        value = self._results.get(key)
        if value is not None:
            self._results.move_to_end(key)
            self.stats.result_hits += 1
        return value

    def peek_result(self, key: tuple) -> bool:
        """Is ``key`` memoised?  (No hit counted, no LRU touch.)"""
        return key in self._results

    def put_result(self, key: tuple, value) -> None:
        self._results[key] = value
        self.stats.result_entries = len(self._results)
        while len(self._results) > self._max_results:
            self._results.popitem(last=False)
            self.stats.evictions += 1
            self.stats.result_entries = len(self._results)

    # -- invalidation ------------------------------------------------------

    def retain_only(self, fingerprints) -> int:
        """Drop entries for unreachable fingerprints; return the count.

        Every cache key leads with the fingerprint, so content
        invalidation is one sweep: after a name is re-registered with
        new values, the old content's artifacts become unreachable and
        are reclaimed here.
        """
        keep = set(fingerprints)
        dropped = 0
        for cache in (self._indexes, self._results):
            for key in [k for k in cache if k[0] not in keep]:
                del cache[key]
                dropped += 1
        self.stats.result_entries = len(self._results)
        return dropped

    def clear(self) -> None:
        self._indexes.clear()
        self._results.clear()
        self.stats.result_entries = 0
