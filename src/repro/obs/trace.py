"""Run traces: counters, nestable span timers, mergeable snapshots.

This module is deliberately zero-dependency (stdlib only) and import-
light: the hot paths of :mod:`repro.core` import it at module load, so
it must never import back into the package.

Design
------
One process-wide *active trace* (``_ACTIVE``).  Hooks are written as::

    t = _ACTIVE
    if t is not None:
        t.incr("dp.cells", result.cells)

so an inactive trace costs one global read and one comparison.  Span
timers nest through a per-thread name stack: a span opened while
``fastdtw`` is on the stack records under the path ``fastdtw/<name>``,
which is how one ``dp`` hook in the engine yields both a bare ``dp``
span for direct calls and a ``fastdtw/dp`` span for FastDTW's
refinement steps.

Counter and span aggregation is guarded by a per-trace lock, so
threads may report concurrently; worker *processes* instead run their
chunks under a private :class:`RunTrace` and ship a picklable
:class:`TraceSnapshot` back for :meth:`RunTrace.merge` (see
:mod:`repro.batch.engine`).

Counter schema (the names the built-in hooks emit):

===========================  ============================================
counter                      incremented by
===========================  ============================================
``dp.calls``                 one windowed-DP evaluation (any backend)
``dp.cells``                 lattice cells that DP evaluated
``dp.abandons``              DP runs cut short by early abandoning
``lb.invocations``           one lower-bound evaluation (Kim/Keogh/rev)
``lb.candidates``            candidates entering the LB cascade
``lb.pruned_kim``            candidates pruned by LB_Kim
``lb.pruned_keogh``          candidates pruned by LB_Keogh
``lb.pruned_keogh_reversed`` candidates pruned by reversed LB_Keogh
``lb.abandoned_dtw``         candidates abandoned inside the final DP
``lb.full_dtw``              candidates that ran a complete DP
``lb.reused_exact``          candidates answered from a self-join's
                             exact-distance cache
``lb.suffix_builds``         cumulative-bound suffix arrays built
``lb.chunk_prefilter``       stacked bound-kernel calls by the
                             cascade's chunk prefilter
``index.hits``               searches served by an index's searcher
``index.artifacts_reused``   stored envelopes served instead of built
``index.reused_exact``       ``lb.reused_exact`` on indexed searches
``cumulative.calls``         cumulative-abandon cDTW invocations
``chunk.groups``             shape-homogeneous groups formed from
                             scheduled chunks
``chunk.calls``              stacked chunk-kernel invocations
``chunk.pairs``              real pairs computed through chunk kernels
``chunk.pad_rows``           scratch padding rows alongside them
                             (never read; see the padding contract)
``fastdtw.calls``            top-level FastDTW invocations
``fastdtw.levels``           FastDTW recursion levels executed
``rle.runs``                 total input runs (k + l) seen by the
                             compressed-domain DP
``rle.block_cells``          boundary cells the RLE block DP evaluated
                             (also folded into ``dp.cells``)
``nn.queries``               1-NN searches started
``nn.candidates``            candidates scanned by 1-NN searches
``knn.predictions``          classifier predictions issued
``batch.jobs``               batch-engine jobs run
``batch.pairs``              pairs computed by batch jobs
``pool.chunks``              chunks fanned out to worker processes
``pool.created``             executor jobs that had to build a pool
``pool.reused``              executor jobs served by a warm pool
``shm.datasets``             datasets shipped by executors (new
                             fingerprints seen)
``shm.bytes``                payload bytes shipped to shared memory
``sched.chunks``             chunks submitted to the dynamic scheduler
``sched.steals``             chunks completing ahead of earlier
                             submissions (dynamic rebalancing; the one
                             counter that legitimately varies run to
                             run)
``cache.envelope_hits``      per-series envelope cache hits (merged)
``cache.envelope_misses``    per-series envelope cache misses
``cache.znorm_hits``         z-normalisation cache hits
``cache.znorm_misses``       z-normalisation cache misses
===========================  ============================================

Span schema: a flat map of slash-joined paths to ``(count, seconds)``
pairs.  The built-in hooks emit ``dp`` (every windowed DP), ``fastdtw``
with children ``coarsen``/``window``/``dp``, ``lb_cascade``, ``nn_search``
and ``knn``; nesting under caller spans composes naturally.
``lb_cascade`` is one span per ``CascadeBatch.nearest`` (its whole
scan loop) and one per ``CascadeScan.distance`` call; the exact
stage's DPs nest under it as ``lb_cascade/dp``.  The cascade reports
its ``lb.*`` counters once per ``nearest`` and once per ``distance``
call, with the same totals as one report per candidate.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "RunTrace",
    "SpanStat",
    "TraceSnapshot",
    "active_trace",
    "incr",
    "record_dp",
    "reset",
    "span",
]

#: JSON schema identifier emitted by :meth:`RunTrace.to_dict`.
SCHEMA = "repro.obs/trace/v1"

_ACTIVE: Optional["RunTrace"] = None
_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@dataclass(frozen=True)
class SpanStat:
    """Aggregate of one span path: entry count and total seconds."""

    count: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class TraceSnapshot:
    """Picklable, mergeable view of a trace's counters and spans.

    This is what a pool worker ships back to the parent process: plain
    dicts of plain values, safe to pickle across any start method.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, Tuple[int, float]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.counters) or bool(self.spans)


class RunTrace:
    """Collection context for one observed run.

    Entering the context makes this trace the process-wide active
    trace (stacking over any previously active one, which is restored
    on exit); every instrumented code path then reports counters and
    spans here until the context exits.

    Thread-safe: concurrent :meth:`incr`/span records from multiple
    threads serialise on an internal lock.  Process-safe by snapshot:
    workers collect into their own trace and the parent merges the
    shipped :class:`TraceSnapshot` (see :meth:`merge`).
    """

    def __init__(self, label: str = ""):
        self.label = label
        self._counters: Dict[str, int] = {}
        self._spans: Dict[str, list] = {}  # path -> [count, seconds]
        self._lock = threading.Lock()
        self._previous: Optional[RunTrace] = None
        self._saved_stack: Optional[list] = None
        self._started: Optional[float] = None
        self.seconds: float = 0.0

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "RunTrace":
        global _ACTIVE
        self._previous = _ACTIVE
        self._saved_stack = getattr(_local, "stack", None)
        _local.stack = []
        _ACTIVE = self
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        global _ACTIVE
        if self._started is not None:
            self.seconds = time.perf_counter() - self._started
        _ACTIVE = self._previous
        _local.stack = self._saved_stack if self._saved_stack is not None else []
        self._previous = None
        self._saved_stack = None
        return False

    # -- recording ---------------------------------------------------------

    def incr(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to ``counter`` (created at 0 on first use)."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + n

    def _record_span(self, path: str, seconds: float) -> None:
        with self._lock:
            entry = self._spans.get(path)
            if entry is None:
                self._spans[path] = [1, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds

    def merge(self, snapshot: TraceSnapshot) -> None:
        """Fold a worker's :class:`TraceSnapshot` into this trace."""
        with self._lock:
            for name, value in snapshot.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for path, (count, seconds) in snapshot.spans.items():
                entry = self._spans.get(path)
                if entry is None:
                    self._spans[path] = [count, seconds]
                else:
                    entry[0] += count
                    entry[1] += seconds

    # -- queries -----------------------------------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        """Current value of ``name`` (``default`` if never incremented)."""
        with self._lock:
            return self._counters.get(name, default)

    def counters(self) -> Dict[str, int]:
        """Copy of all counters, sorted by name."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def span_stat(self, path: str) -> SpanStat:
        """Aggregate of one span path (zeros if never entered)."""
        with self._lock:
            entry = self._spans.get(path)
            if entry is None:
                return SpanStat()
            return SpanStat(count=entry[0], seconds=entry[1])

    def span_seconds(self, path: str) -> float:
        """Total seconds recorded under ``path`` (0.0 if absent)."""
        return self.span_stat(path).seconds

    def span_count(self, path: str) -> int:
        """Times the span at ``path`` was entered (0 if absent)."""
        return self.span_stat(path).count

    def spans(self) -> Dict[str, SpanStat]:
        """Copy of all span aggregates, sorted by path."""
        with self._lock:
            return {
                path: SpanStat(count=entry[0], seconds=entry[1])
                for path, entry in sorted(self._spans.items())
            }

    def span_paths(self) -> Iterator[str]:
        """The recorded span paths, sorted."""
        with self._lock:
            return iter(sorted(self._spans))

    def snapshot(self) -> TraceSnapshot:
        """Picklable copy of the current counters and spans."""
        with self._lock:
            return TraceSnapshot(
                counters=dict(self._counters),
                spans={
                    path: (entry[0], entry[1])
                    for path, entry in self._spans.items()
                },
            )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serialisable view (schema ``repro.obs/trace/v1``)."""
        elapsed = self.seconds
        if self._started is not None and elapsed == 0.0:
            elapsed = time.perf_counter() - self._started
        return {
            "schema": SCHEMA,
            "label": self.label,
            "seconds": elapsed,
            "counters": self.counters(),
            "spans": {
                path: {"count": stat.count, "seconds": stat.seconds}
                for path, stat in self.spans().items()
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """``to_dict`` rendered as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunTrace(label={self.label!r}, "
            f"counters={len(self._counters)}, spans={len(self._spans)})"
        )


class _NoopSpan:
    """Shared do-nothing span handed out when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("trace", "name", "path", "start")

    def __init__(self, trace: RunTrace, name: str):
        self.trace = trace
        self.name = name

    def __enter__(self) -> "_Span":
        stack = _stack()
        stack.append(self.name)
        self.path = "/".join(stack)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self.start
        stack = _stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        self.trace._record_span(self.path, elapsed)
        return False


# -- module-level hook API -------------------------------------------------


def active_trace() -> Optional[RunTrace]:
    """The currently active :class:`RunTrace`, or ``None``."""
    return _ACTIVE


def span(name: str):
    """Context manager timing a nested phase under the active trace.

    With no active trace this returns a shared no-op object, so hooks
    may use ``with span("..."):`` unconditionally on warm paths.
    ``name`` must not contain ``"/"`` (reserved for nesting paths).
    """
    trace = _ACTIVE
    if trace is None:
        return _NOOP
    return _Span(trace, name)


def incr(counter: str, n: int = 1) -> None:
    """Increment ``counter`` on the active trace (no-op when inactive)."""
    trace = _ACTIVE
    if trace is not None:
        trace.incr(counter, n)


def record_dp(trace: RunTrace, result) -> None:
    """Record one windowed-DP outcome: calls, cells, abandons.

    Shared by the DP entry points that return a result (the pure
    engine and ``rle_dtw``); the stacked kernels charge the same
    counters per real pair, so the ``dp.*`` counters mean the same
    thing on every backend.
    """
    trace.incr("dp.calls")
    trace.incr("dp.cells", result.cells)
    if getattr(result, "abandoned", False):
        trace.incr("dp.abandons")


def reset() -> None:
    """Deactivate any active trace and clear this thread's span stack.

    Called by pool-worker initializers: under the ``fork`` start
    method a worker inherits the parent's active trace object, which
    must not silently swallow the worker's counters.
    """
    global _ACTIVE
    _ACTIVE = None
    _local.stack = []
