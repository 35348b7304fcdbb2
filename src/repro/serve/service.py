"""The query service's synchronous core.

:class:`QueryService` is the in-process front door: register datasets,
call :meth:`execute` (one request) or :meth:`execute_batch` (a
micro-batch the :class:`~repro.serve.batcher.MicroBatcher` collected),
get :class:`~repro.serve.protocol.QueryResponse` objects back.  The
asyncio layers are thin shells around this class, so everything about
correctness lives here:

* **One execution lane.**  ``repro.obs`` keys its active trace to the
  process, so request execution is serialised under one lock; the
  parallelism that matters runs *inside* a request via the warm
  :class:`~repro.batch.executor.BatchExecutor` the service owns.
* **Determinism.**  Every op executes through the same public entry
  point a standalone caller would use (``nearest_neighbor``,
  ``subsequence_search``, ``find_discord``, ``find_motif``), or
  through the batch engine under its proven first-wins/lossless
  invariants -- so micro-batched answers are bit-identical to
  one-request-at-a-time answers.  The property suite and the
  ``--self-test`` both assert this.
* **Coalescing.**  Same-collection, same-band ``1nn`` requests that
  are not riding the index fast path fuse into **one**
  :func:`~repro.batch.engine.batch_distances` job (all query rows in
  a single pool dispatch), and each request recovers its answer with
  :func:`~repro.batch.engine.argmin_first` -- the exact serial tie
  rule.  Lower-bound pruning is lossless for both the neighbour and
  its distance, so the fused full-compute rows return bit-identical
  answers to the pruned serial scan.  The micro-batcher holds its
  collection window only while a request that may fuse
  (:meth:`QueryService.may_fuse`) is queued.
* **Amortisation.**  Indexes and pure results are cached across
  requests by content fingerprint (:mod:`repro.serve.registry`);
  re-registration invalidates by fingerprint sweep.
* **Accounting.**  Each request runs under its own
  :class:`repro.obs.RunTrace`; its ``dp.calls``/``dp.cells`` become
  the response's telemetry and the snapshot folds into a service
  accumulator, so per-request numbers reconcile exactly with the
  service totals.

Shutdown ordering (async layers follow it too): stop accepting work,
then drain in-flight batches, then shut the owned executor down
(unlinking shm segments), then drop caches.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..anomaly import find_discord
from ..batch.engine import argmin_first, batch_distances
from ..batch.executor import BatchExecutor
from ..motifs import find_motif
from ..obs import RunTrace
from ..runtime import Runtime
from ..search import (
    nearest_neighbor,
    subsequence_search,
    subsequence_search_topk,
)
from .protocol import (
    ProtocolError,
    QueryRequest,
    QueryResponse,
    Telemetry,
    parse_request,
)
from .registry import ArtifactCache, DatasetRegistry, RegisteredDataset

__all__ = ["QueryService", "ServiceStats"]

_log = logging.getLogger(__name__)

#: latencies kept for the percentile estimates (a rolling window)
_MAX_LATENCIES = 4096


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = -(-len(sorted_values) * q // 100)  # ceil(n * q / 100)
    return sorted_values[max(1, min(len(sorted_values), int(rank))) - 1]


@dataclass
class ServiceStats:
    """Service-level accounting snapshot (see :meth:`QueryService.stats`)."""

    requests: int = 0
    errors: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    dtw_calls: int = 0
    dp_cells: int = 0
    index_builds: int = 0
    index_hits: int = 0
    result_hits: int = 0
    datasets: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "p50_latency_ms": round(self.p50_latency_ms, 3),
            "p99_latency_ms": round(self.p99_latency_ms, 3),
            "dtw_calls": self.dtw_calls,
            "dp_cells": self.dp_cells,
            "index_builds": self.index_builds,
            "index_hits": self.index_hits,
            "result_hits": self.result_hits,
            "datasets": list(self.datasets),
        }


class QueryService:
    """Synchronous query front door (see the module notes).

    Parameters
    ----------
    runtime:
        Execution context for query work (``None`` = the process
        default).  When the resolved context is parallel but names no
        executor, the service creates and **owns** a warm
        :class:`~repro.batch.executor.BatchExecutor` sized to it, so
        pools and shm residency persist across requests and are
        reclaimed on :meth:`close`.
    use_index:
        Serve eligible ops through cached
        :class:`~repro.index.DatasetIndex` artifacts (default on).
        Per-request ``index`` parameters override it either way;
        answers are bit-identical regardless (the index fast path is
        lossless).
    cache_results:
        Memoise whole answers for repeated identical requests
        (default on; every op here is a pure function of dataset
        content + parameters).
    """

    def __init__(
        self,
        runtime: Optional[Runtime] = None,
        use_index: bool = True,
        cache_results: bool = True,
        max_indexes: int = 32,
        max_results: int = 256,
    ):
        rt = Runtime.resolve(runtime)
        self._own_executor: Optional[BatchExecutor] = None
        if rt.parallel and rt.executor is None:
            self._own_executor = BatchExecutor(workers=rt.workers)
            rt = rt.replace(executor=self._own_executor)
        self.runtime = rt
        self.use_index = use_index
        self.cache_results = cache_results
        self.registry = DatasetRegistry()
        self.artifacts = ArtifactCache(
            max_indexes=max_indexes, max_results=max_results
        )
        self._lock = threading.Lock()
        self._accumulator = RunTrace()  # never activated; merge target
        self._latencies: List[float] = []
        self._requests = 0
        self._errors = 0
        self._batches = 0
        self._coalesced = 0
        self._closed = False

    # -- registration ------------------------------------------------------

    def register(self, name: str, series) -> str:
        """Register a collection; returns its content fingerprint."""
        with self._lock:
            self._check_open()
            entry = self.registry.register(name, series)
            self.artifacts.retain_only(self.registry.fingerprints())
            return entry.fingerprint

    def register_stream(self, name: str, values) -> str:
        """Register a stream; returns its content fingerprint."""
        with self._lock:
            self._check_open()
            entry = self.registry.register_stream(name, values)
            self.artifacts.retain_only(self.registry.fingerprints())
            return entry.fingerprint

    # -- execution ---------------------------------------------------------

    def execute(
        self, request: Union[QueryRequest, Mapping[str, Any]]
    ) -> QueryResponse:
        """Execute one request (parsed or raw mapping)."""
        return self.execute_batch([request])[0]

    def execute_batch(
        self, requests: Sequence[Union[QueryRequest, Mapping[str, Any]]]
    ) -> List[QueryResponse]:
        """Execute one micro-batch; responses in request order.

        Failures are isolated per request: a bad request yields an
        ``ok=False`` response in its slot, never an exception that
        takes down its batch-mates.
        """
        with self._lock:
            self._check_open()
            self._batches += 1
            parsed: List[Optional[QueryRequest]] = []
            responses: List[Optional[QueryResponse]] = [None] * len(requests)
            for pos, raw in enumerate(requests):
                try:
                    req = (
                        raw if isinstance(raw, QueryRequest)
                        else parse_request(raw)
                    )
                    parsed.append(req)
                except ProtocolError as exc:
                    parsed.append(None)
                    responses[pos] = self._error_response(raw, exc)

            batch_size = len(requests)
            groups = self._coalesce_groups(parsed)
            grouped = {pos for group in groups for pos in group}
            for group in groups:
                self._execute_coalesced(
                    [parsed[pos] for pos in group], group, responses,
                    batch_size,
                )
            for pos, req in enumerate(parsed):
                if req is None or pos in grouped:
                    continue
                responses[pos] = self._execute_one(req, batch_size)
            assert all(r is not None for r in responses)
            return responses  # type: ignore[return-value]

    # -- stats / lifecycle -------------------------------------------------

    def stats(self) -> ServiceStats:
        """A point-in-time accounting snapshot."""
        with self._lock:
            ordered = sorted(self._latencies)
            return ServiceStats(
                requests=self._requests,
                errors=self._errors,
                batches=self._batches,
                coalesced_requests=self._coalesced,
                p50_latency_ms=_percentile(ordered, 50),
                p99_latency_ms=_percentile(ordered, 99),
                dtw_calls=self._accumulator.counter("dp.calls"),
                dp_cells=self._accumulator.counter("dp.cells"),
                index_builds=self.artifacts.stats.index_builds,
                index_hits=self.artifacts.stats.index_hits,
                result_hits=self.artifacts.stats.result_hits,
                datasets=self.registry.names(),
            )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down: refuse new work, reclaim executor, drop caches.

        Idempotent.  The owned executor's shutdown unlinks every shm
        segment the service shipped; the async layers drain their
        batch queue *before* calling this (shutdown ordering).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._own_executor is not None:
                self._own_executor.shutdown()
                self._own_executor = None
            self.artifacts.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    # -- internals ---------------------------------------------------------

    def _error_response(self, raw, exc) -> QueryResponse:
        self._requests += 1
        self._errors += 1
        op = dataset = "?"
        request_id = None
        if isinstance(raw, QueryRequest):
            op, dataset, request_id = raw.op, raw.dataset, raw.id
        elif isinstance(raw, Mapping):
            op = str(raw.get("op", "?"))
            dataset = str(raw.get("dataset", "?"))
            request_id = raw.get("id")
            if request_id is not None:
                request_id = str(request_id)
        return QueryResponse(
            op=op, dataset=dataset, ok=False, error=str(exc),
            id=request_id,
        )

    def _use_index_for(self, request: QueryRequest) -> bool:
        return bool(request.param("index", self.use_index))

    def _result_key(
        self, request: QueryRequest, fingerprint: str
    ) -> tuple:
        return (
            fingerprint, request.op,
            tuple(sorted(request.params.items())), request.query,
        )

    def may_fuse(
        self, request: Union[QueryRequest, Mapping[str, Any]]
    ) -> bool:
        """Whether ``request`` could join a fused ``1nn`` group.

        The part of :meth:`_coalesce_groups`' rule that needs no
        registry lookup: parallel runtime (there is a pool to
        amortise), op ``1nn``, and the request off the index fast path
        (its ``index`` parameter, else the service default).  Raw
        mappings are read unvalidated.  It reads only settings fixed
        at construction, so the event loop may call it while a batch
        executes; the micro-batcher holds a collection window only
        while a queued request passes it.
        """
        if not self.runtime.parallel:
            return False
        if isinstance(request, QueryRequest):
            op, index = request.op, self._use_index_for(request)
        elif isinstance(request, Mapping):
            op, index = request.get("op"), request.get("index",
                                                       self.use_index)
        else:
            return False
        return op == "1nn" and not index

    def _coalesce_groups(
        self, parsed: Sequence[Optional[QueryRequest]]
    ) -> List[List[int]]:
        """Positions of fusable ``1nn`` requests, grouped.

        A group fuses when: :meth:`may_fuse` holds, the dataset is a
        collection, no cached result, same collection fingerprint +
        band, and at least two members.
        """
        buckets: Dict[tuple, List[int]] = {}
        for pos, req in enumerate(parsed):
            if req is None or not self.may_fuse(req):
                continue
            try:
                dataset = self.registry.get(req.dataset)
            except ProtocolError:
                continue  # the per-request path reports the error
            if dataset.kind != "collection":
                continue
            if self.cache_results and self.artifacts.peek_result(
                self._result_key(req, dataset.fingerprint)
            ):
                continue  # memoised; the per-request path serves it
            buckets.setdefault(
                (dataset.fingerprint, req.param("band")), []
            ).append(pos)
        return [group for group in buckets.values() if len(group) >= 2]

    def _execute_coalesced(
        self,
        group: Sequence[QueryRequest],
        positions: Sequence[int],
        responses: List[Optional[QueryResponse]],
        batch_size: int,
    ) -> None:
        """Fuse one ``1nn`` group into a single batch job.

        One ``batch_distances`` call computes every query's full
        candidate row; each request recovers ``argmin_first`` of its
        row -- bit-identical to its serial pruned scan (first-wins
        ties, lossless bounds).  Per-request telemetry is exact:
        request *i*'s ``dp_cells`` is the sum over its row of
        ``cells_per_pair``.
        """
        first = group[0]
        dataset = self.registry.get(first.dataset)
        band = first.param("band")
        measure = "cdtw" if dataset.dims == 1 else "cdtw_d"
        candidates = dataset.series
        count = len(candidates)
        usable: List[Tuple[int, QueryRequest]] = []
        for pos, req in zip(positions, group):
            bad = self._length_mismatch(req.query, candidates)
            if bad is not None:
                responses[pos] = self._error_response(req, bad)
            else:
                usable.append((pos, req))
        if not usable:
            return
        if len(usable) == 1:
            pos, req = usable[0]
            responses[pos] = self._execute_one(req, batch_size)
            return

        series = list(candidates) + [req.query for _, req in usable]
        pairs = [
            (count + qi, j)
            for qi in range(len(usable))
            for j in range(count)
        ]
        started = time.perf_counter()
        try:
            with RunTrace() as trace:
                result = batch_distances(
                    series, pairs=pairs, measure=measure, band=band,
                    runtime=self.runtime,
                )
            snapshot = trace.snapshot()
        except Exception as exc:
            for pos, req in usable:
                responses[pos] = self._error_response(req, exc)
            return
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._accumulator.merge(snapshot)
        share_ms = elapsed_ms / len(usable)
        for qi, (pos, req) in enumerate(usable):
            row = result.distances[qi * count:(qi + 1) * count]
            cells = sum(
                result.cells_per_pair[qi * count:(qi + 1) * count]
            )
            best_idx, best = argmin_first(row)
            answer = {"index": best_idx, "distance": best}
            telemetry = Telemetry(
                latency_ms=share_ms, dtw_calls=count, dp_cells=cells,
                batched_with=batch_size,
            )
            if self.cache_results:
                self.artifacts.put_result(
                    self._result_key(req, dataset.fingerprint), answer
                )
            self._requests += 1
            self._coalesced += 1
            self._record_latency(share_ms)
            responses[pos] = QueryResponse(
                op=req.op, dataset=req.dataset, ok=True, answer=answer,
                telemetry=telemetry, id=req.id,
            )

    def _execute_one(
        self, request: QueryRequest, batch_size: int
    ) -> QueryResponse:
        """One request through its public entry point, traced."""
        started = time.perf_counter()
        try:
            dataset = self.registry.get(request.dataset)
            key = self._result_key(request, dataset.fingerprint)
            if self.cache_results:
                cached = self.artifacts.get_result(key)
                if cached is not None:
                    elapsed = (time.perf_counter() - started) * 1000.0
                    self._requests += 1
                    self._record_latency(elapsed)
                    return QueryResponse(
                        op=request.op, dataset=request.dataset, ok=True,
                        answer=cached, id=request.id,
                        telemetry=Telemetry(
                            latency_ms=elapsed, dtw_calls=0, dp_cells=0,
                            batched_with=batch_size, cached=True,
                        ),
                    )
            builds_before = self.artifacts.stats.index_builds
            with RunTrace() as trace:
                answer = self._dispatch(request, dataset)
            snapshot = trace.snapshot()
        except (ProtocolError, ValueError, RuntimeError) as exc:
            return self._error_response(request, exc)
        except Exception as exc:
            # a bug, not a bad request: log it and answer this request
            # alone, so its batch-mates keep their answers
            _log.exception("%s request on %r failed", request.op,
                           request.dataset)
            return self._error_response(
                request, f"internal error ({type(exc).__name__}): {exc}"
            )
        elapsed = (time.perf_counter() - started) * 1000.0
        self._accumulator.merge(snapshot)
        if self.cache_results:
            self.artifacts.put_result(key, answer)
        self._requests += 1
        self._record_latency(elapsed)
        return QueryResponse(
            op=request.op, dataset=request.dataset, ok=True,
            answer=answer, id=request.id,
            telemetry=Telemetry(
                latency_ms=elapsed,
                dtw_calls=trace.counter("dp.calls"),
                dp_cells=trace.counter("dp.cells"),
                batched_with=batch_size,
                index_builds=(
                    self.artifacts.stats.index_builds - builds_before
                ),
            ),
        )

    def _record_latency(self, latency_ms: float) -> None:
        self._latencies.append(latency_ms)
        if len(self._latencies) > _MAX_LATENCIES:
            del self._latencies[: len(self._latencies) // 2]

    @staticmethod
    def _length_mismatch(query, candidates) -> Optional[ProtocolError]:
        def _dims(s):
            return len(s[0]) if s and hasattr(s[0], "__len__") else 1

        q_dims = _dims(query)
        bad_dims = [d for c in candidates if (d := _dims(c)) != q_dims]
        if bad_dims:
            return ProtocolError(
                f"query has {q_dims} channel(s) but the dataset's "
                f"series have {bad_dims[0]}; multivariate search "
                "needs matching dimensionality"
            )
        bad = [len(c) for c in candidates if len(c) != len(query)]
        if bad:
            return ProtocolError(
                f"query length {len(query)} does not match candidate "
                f"lengths (e.g. {bad[0]}); banded search needs equal "
                "lengths"
            )
        return None

    # -- op dispatch -------------------------------------------------------

    def _dispatch(
        self, request: QueryRequest, dataset: RegisteredDataset
    ) -> Dict[str, Any]:
        handler = {
            "1nn": self._op_1nn,
            "knn": self._op_knn,
            "subsequence": self._op_subsequence,
            "discord": self._op_discord,
            "motif": self._op_motif,
        }[request.op]
        return handler(request, dataset)

    def _require_kind(
        self, dataset: RegisteredDataset, kind: str, op: str
    ) -> None:
        if dataset.kind != kind:
            raise ProtocolError(
                f"op {op!r} needs a {kind} dataset, but "
                f"{dataset.name!r} is a {dataset.kind}"
            )

    def _op_1nn(self, request, dataset) -> Dict[str, Any]:
        self._require_kind(dataset, "collection", "1nn")
        bad = self._length_mismatch(request.query, dataset.series)
        if bad is not None:
            raise bad
        band = request.param("band")
        index = (
            self.artifacts.index_for(dataset, band=band)
            if self._use_index_for(request) else None
        )
        result = nearest_neighbor(
            list(request.query), [list(s) for s in dataset.series],
            strategy="cdtw+lb", band=band, runtime=self.runtime,
            index=index,
        )
        return {"index": result.index, "distance": result.distance}

    def _op_knn(self, request, dataset) -> Dict[str, Any]:
        self._require_kind(dataset, "collection", "knn")
        bad = self._length_mismatch(request.query, dataset.series)
        if bad is not None:
            raise bad
        k = request.param("k", 1)
        count = len(dataset.series)
        if k > count:
            raise ProtocolError(
                f"k={k} exceeds the {count} registered series"
            )
        measure = "cdtw" if dataset.dims == 1 else "cdtw_d"
        series = list(dataset.series) + [request.query]
        result = batch_distances(
            series, pairs=[(count, j) for j in range(count)],
            measure=measure, band=request.param("band"),
            runtime=self.runtime,
        )
        ranked = sorted(
            range(count), key=lambda j: (result.distances[j], j)
        )[:k]
        return {
            "neighbors": [
                {"index": j, "distance": result.distances[j]}
                for j in ranked
            ]
        }

    def _op_subsequence(self, request, dataset) -> Dict[str, Any]:
        self._require_kind(dataset, "stream", "subsequence")
        band = request.param("band")
        step = request.param("step", 1)
        normalize = request.param("normalize", True)
        k = request.param("k", 1)
        window = len(request.query)
        index = (
            self.artifacts.index_for(
                dataset, band=band, window=window, step=step,
                normalize=normalize,
            )
            if self._use_index_for(request) else None
        )
        if k == 1:
            match = subsequence_search(
                list(request.query), list(dataset.stream), band=band,
                step=step, normalize=normalize, runtime=self.runtime,
                index=index,
            )
            return {"start": match.start, "distance": match.distance}
        matches = subsequence_search_topk(
            list(request.query), list(dataset.stream), band=band, k=k,
            step=step, exclusion=request.param("exclusion"),
            normalize=normalize, runtime=self.runtime, index=index,
        )
        return {
            "matches": [
                {"start": m.start, "distance": m.distance}
                for m in matches
            ]
        }

    def _op_discord(self, request, dataset) -> Dict[str, Any]:
        self._require_kind(dataset, "stream", "discord")
        band = request.param("band")
        step = request.param("step", 1)
        window = request.param("window")
        normalize = request.param("normalize", True)
        index = (
            self.artifacts.index_for(
                dataset, band=band, window=window, step=step,
                normalize=normalize,
            )
            if self._use_index_for(request) else None
        )
        discord = find_discord(
            list(dataset.stream), window=window, band=band, step=step,
            exclusion=request.param("exclusion"), normalize=normalize,
            runtime=self.runtime, index=index,
        )
        return {
            "start": discord.start,
            "score": discord.score,
            "neighbor_start": discord.neighbor_start,
        }

    def _op_motif(self, request, dataset) -> Dict[str, Any]:
        self._require_kind(dataset, "stream", "motif")
        band = request.param("band")
        step = request.param("step", 1)
        window = request.param("window")
        normalize = request.param("normalize", True)
        index = (
            self.artifacts.index_for(
                dataset, band=band, window=window, step=step,
                normalize=normalize,
            )
            if self._use_index_for(request) else None
        )
        motif = find_motif(
            list(dataset.stream), window=window, band=band, step=step,
            exclusion=request.param("exclusion"), normalize=normalize,
            runtime=self.runtime, index=index,
        )
        return {
            "start_a": motif.start_a,
            "start_b": motif.start_b,
            "distance": motif.distance,
        }
