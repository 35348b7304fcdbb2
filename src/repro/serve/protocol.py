"""Request/response vocabulary of the query service.

One request = one mapping (a parsed JSON object on the wire, or a
plain dict in-process) naming an **op**, a registered **dataset** and
the op's parameters.  :func:`parse_request` is the single validation
point: every entry path -- the in-process :class:`~repro.serve.service.
QueryService` API, the micro-batcher and the socket server -- funnels
through it, so a malformed request is refused identically everywhere,
before any work is scheduled.

Ops (mirroring the consumer entry points they execute through):

==============  ========================================================
``1nn``         :func:`repro.search.nearest_neighbor` over a registered
                collection (``band`` required, ``query`` required)
``knn``         the ``k`` nearest collection series by exact cDTW,
                ordered by ``(distance, index)`` -- the package-wide
                first-wins tie rule
``subsequence`` :func:`repro.search.subsequence_search` (or ``_topk``
                when ``k > 1``) over a registered stream
``discord``     :func:`repro.anomaly.find_discord` over a stream
                (no ``query``: the stream is its own workload)
``motif``       :func:`repro.motifs.find_motif` over a stream
==============  ========================================================

Responses carry the op's answer plus per-request :class:`Telemetry`
derived from a request-scoped :class:`repro.obs.RunTrace` snapshot:
``dtw_calls`` is the trace's ``dp.calls`` (DP invocations actually
run -- the paper's accounting unit), ``dp_cells`` its ``dp.cells``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "OPS",
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "Telemetry",
    "parse_request",
]

OPS = ("1nn", "knn", "subsequence", "discord", "motif")

#: ops that take a query series (the others work the stream itself)
_QUERY_OPS = ("1nn", "knn", "subsequence")

#: recognised parameter names per op, beyond ``op``/``dataset``/
#: ``query``/``id`` (``index`` is a per-request override of the
#: service's index fast-path setting)
_PARAMS = {
    "1nn": ("band", "index"),
    "knn": ("band", "k"),
    "subsequence": ("band", "k", "step", "normalize", "exclusion",
                    "index"),
    "discord": ("window", "band", "step", "exclusion", "normalize",
                "index"),
    "motif": ("window", "band", "step", "exclusion", "normalize",
              "index"),
}


class ProtocolError(ValueError):
    """A request that cannot be executed as stated."""


@dataclass(frozen=True)
class QueryRequest:
    """One validated query (see the module notes for the op table)."""

    op: str
    dataset: str
    #: flat float tuple, or a tuple of per-sample float tuples for
    #: multivariate queries
    query: Optional[Tuple[Any, ...]] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    id: Optional[str] = None

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)


@dataclass(frozen=True)
class Telemetry:
    """Per-request accounting, reconcilable with ``repro.obs``.

    ``dtw_calls``/``dp_cells`` are exact per-request shares: summing
    them over every response a service produced equals the service's
    aggregated trace counters (the self-test asserts this).
    ``batched_with`` is the size of the micro-batch the request rode
    in (1 = executed alone); ``index_builds`` counts index artifacts
    built *during* this request (0 = served from the artifact cache);
    ``cached`` marks a result served from the result cache.
    """

    latency_ms: float
    dtw_calls: int
    dp_cells: int
    batched_with: int = 1
    index_builds: int = 0
    cached: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "latency_ms": round(self.latency_ms, 3),
            "dtw_calls": self.dtw_calls,
            "dp_cells": self.dp_cells,
            "batched_with": self.batched_with,
            "index_builds": self.index_builds,
            "cached": self.cached,
        }


@dataclass(frozen=True)
class QueryResponse:
    """One request's outcome: an answer or an error, never both."""

    op: str
    dataset: str
    ok: bool
    answer: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    telemetry: Optional[Telemetry] = None
    id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "op": self.op, "dataset": self.dataset, "ok": self.ok,
        }
        if self.id is not None:
            out["id"] = self.id
        if self.ok:
            out["answer"] = self.answer
        else:
            out["error"] = self.error
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.to_dict()
        return out


def _as_series(value: Any) -> Tuple[Any, ...]:
    """Canonicalise a query: flat floats, or nested vector samples.

    A multivariate query arrives as a sequence of equal-length number
    sequences (one ``(length, dims)`` sample per row) and comes back
    as a tuple of float tuples -- exactly the sample shape registered
    multivariate datasets hold.
    """
    try:
        items = list(value)
    except TypeError:
        raise ProtocolError("query must be a sequence of numbers")
    if not items:
        raise ProtocolError("query must not be empty")
    if isinstance(items[0], (tuple, list)):
        dims = len(items[0])
        if dims == 0:
            raise ProtocolError("query samples must not be empty")
        samples = []
        for i, sample in enumerate(items):
            if not isinstance(sample, (tuple, list)) or len(sample) != dims:
                raise ProtocolError(
                    f"query sample {i} does not have {dims} components;"
                    " a multivariate query is a sequence of equal-"
                    "length number sequences"
                )
            try:
                samples.append(tuple(float(c) for c in sample))
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"query sample {i} must contain only numbers"
                )
        return tuple(samples)
    try:
        return tuple(float(v) for v in items)
    except (TypeError, ValueError):
        raise ProtocolError("query must be a sequence of numbers")


def _positive_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ProtocolError(f"{name} must be >= 1, got {value!r}")
    return value


def parse_request(obj: Mapping[str, Any]) -> QueryRequest:
    """Validate one raw request mapping into a :class:`QueryRequest`.

    Raises :class:`ProtocolError` (a ``ValueError``) naming the first
    problem; nothing about the request is executed.
    """
    if not isinstance(obj, Mapping):
        raise ProtocolError("request must be a mapping")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; pick from {OPS}")
    dataset = obj.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        raise ProtocolError("dataset must be a non-empty string")

    allowed = _PARAMS[op]
    params: Dict[str, Any] = {}
    for key, value in obj.items():
        if key in ("op", "dataset", "query", "id"):
            continue
        if key not in allowed:
            raise ProtocolError(
                f"op {op!r} does not take parameter {key!r}; "
                f"recognised: {allowed}"
            )
        params[key] = value

    # per-op requirements, checked here so execution never sees them
    if "band" in params:
        params["band"] = _positive_int(params["band"], "band")
    elif op in ("1nn", "knn", "subsequence"):
        raise ProtocolError(f"op {op!r} requires band")
    if op in ("discord", "motif"):
        if "window" not in params or "band" not in params:
            raise ProtocolError(f"op {op!r} requires window and band")
        params["window"] = _positive_int(params["window"], "window")
    if "k" in params:
        params["k"] = _positive_int(params["k"], "k")
    if "step" in params:
        params["step"] = _positive_int(params["step"], "step")
    if "exclusion" in params and params["exclusion"] is not None:
        params["exclusion"] = _positive_int(
            params["exclusion"], "exclusion"
        )
    for flag in ("normalize", "index"):
        if flag in params and not isinstance(params[flag], bool):
            raise ProtocolError(f"{flag} must be a bool")

    query = None
    if op in _QUERY_OPS:
        if "query" not in obj:
            raise ProtocolError(f"op {op!r} requires a query series")
        query = _as_series(obj["query"])
    elif obj.get("query") is not None:
        raise ProtocolError(f"op {op!r} does not take a query")

    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, str):
        request_id = str(request_id)
    return QueryRequest(
        op=op, dataset=dataset, query=query, params=params,
        id=request_id,
    )
