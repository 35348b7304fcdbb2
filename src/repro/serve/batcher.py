"""Latency-budgeted micro-batching for the asyncio front door.

Window semantics: the first request to arrive while the batcher is
idle starts a batch.  The batcher yields once, so a burst submitted
in the same event-loop tick lands in that batch, and then holds a
collection window of ``window_ms`` milliseconds **only while a queued
request may fuse** (the ``may_fuse`` predicate; for the service, an
index-off ``1nn`` under a parallel runtime).  Every request submitted
before the window elapses joins the same batch (bounded by
``max_batch`` -- overflow rolls into the next batch, which decides
again).  With nothing fusable queued the batch executes at once: a
window would only make requests wait for batch-mates they gain
nothing from.  The batch executes as **one**
:meth:`~repro.serve.service.QueryService.execute_batch` call on a
worker thread, and each submitter's future resolves with its own
response.

Execution is strictly one batch at a time -- ``repro.obs`` traces are
process-global, so batches never interleave; while one runs, new
arrivals accumulate into the next batch.

Error isolation: per-request failures come back as ``ok=False``
responses from the service (never exceptions); only a failure of the
batch machinery itself rejects the in-flight futures.  Cancelling the
drain task fails the in-flight and queued futures with a named error
and closes the batcher, since a runner call still on its thread
cannot be stopped and the next batch may not start beside it.
"""

from __future__ import annotations

import asyncio
from typing import (
    Any, Callable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from .protocol import QueryRequest, QueryResponse

__all__ = ["MicroBatcher"]

RawRequest = Union[QueryRequest, Mapping[str, Any]]


class MicroBatcher:
    """Coalesce concurrent submissions into service-sized batches.

    A collection window opens only while a queued request passes
    ``may_fuse``; otherwise each batch executes after a single
    event-loop yield (see the module notes).

    Parameters
    ----------
    runner:
        The synchronous batch executor -- normally a bound
        :meth:`QueryService.execute_batch`.  Called on a worker
        thread with a list of requests; must return one response per
        request, in order.
    window_ms:
        Collection window in milliseconds, held while a fusable
        request is queued (the per-request latency budget; 2-10 ms is
        the intended range).
    max_batch:
        Ceiling on requests per executed batch.
    may_fuse:
        Whether a queued request can gain from batch-mates -- normally
        a bound :meth:`QueryService.may_fuse`.  Called on the event
        loop while a batch may be executing, so it must read no state
        the runner changes.  ``None`` treats every request as fusable
        (every batch holds the window).
    """

    def __init__(
        self,
        runner: Callable[[List[RawRequest]], Sequence[QueryResponse]],
        window_ms: float = 5.0,
        max_batch: int = 64,
        may_fuse: Optional[Callable[[RawRequest], bool]] = None,
    ):
        if window_ms < 0:
            raise ValueError("window_ms must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._runner = runner
        self._window = window_ms / 1000.0
        self._max_batch = max_batch
        self._may_fuse = may_fuse
        self._pending: List[Tuple[RawRequest, "asyncio.Future"]] = []
        self._drainer: "asyncio.Task | None" = None
        self._closed = False
        self.batches = 0
        self.requests = 0
        self.largest_batch = 0

    async def submit(self, request: RawRequest) -> QueryResponse:
        """Queue one request; resolves when its batch has executed."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending.append((request, future))
        self.requests += 1
        if self._drainer is None or self._drainer.done():
            self._drainer = loop.create_task(self._drain())
            self._drainer.add_done_callback(self._drained)
        return await future

    def _holds_window(self) -> bool:
        """Whether the next batch should wait out a collection window."""
        if self._window <= 0:
            return False
        if self._may_fuse is None:
            return True
        return any(
            self._may_fuse(request)
            for request, _ in self._pending[: self._max_batch]
        )

    async def _drain(self) -> None:
        """Run batches until the queue is empty (one batch at a time)."""
        batch: List[Tuple[RawRequest, "asyncio.Future"]] = []
        try:
            while self._pending:
                # one yield, so a burst submitted in the same tick
                # shares the batch; a window only for fusable requests
                await asyncio.sleep(0)
                if self._holds_window():
                    await asyncio.sleep(self._window)
                batch = self._pending[: self._max_batch]
                del self._pending[: len(batch)]
                requests = [request for request, _ in batch]
                try:
                    responses = await asyncio.to_thread(
                        self._runner, requests
                    )
                    if len(responses) != len(requests):
                        raise RuntimeError(
                            "runner returned "
                            f"{len(responses)} responses for "
                            f"{len(requests)} requests"
                        )
                except Exception as exc:
                    _fail(batch, f"batch execution failed: {exc}")
                    continue
                self.batches += 1
                self.largest_batch = max(self.largest_batch, len(batch))
                for (_, future), response in zip(batch, responses):
                    if not future.done():
                        future.set_result(response)
        except asyncio.CancelledError:
            _fail(batch, _CANCELLED)
            raise

    def _drained(self, task: "asyncio.Task") -> None:
        """Close, and fail the queue, when the drain task was cancelled.

        A done callback rather than :meth:`_drain`'s handler: a task
        cancelled before its first step never enters the coroutine.
        """
        if task.cancelled():
            self._closed = True
            _fail(self._pending, _CANCELLED)
            self._pending.clear()

    async def close(self) -> None:
        """Refuse new submissions, then drain everything in flight."""
        self._closed = True
        while self._drainer is not None and not self._drainer.done():
            await asyncio.shield(self._drainer)

    @property
    def closed(self) -> bool:
        return self._closed


_CANCELLED = (
    "micro-batcher cancelled before this request's batch completed"
)


def _fail(
    batch: Sequence[Tuple[RawRequest, "asyncio.Future"]], message: str
) -> None:
    """Reject every still-pending future of ``batch`` with ``message``."""
    for _, future in batch:
        if not future.done():
            future.set_exception(RuntimeError(message))
