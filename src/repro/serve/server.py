"""The asyncio front door: in-process async API and socket server.

:class:`AsyncQueryService` glues a synchronous
:class:`~repro.serve.service.QueryService` to a
:class:`~repro.serve.batcher.MicroBatcher`: ``await query(...)``
enqueues into the next batch and resolves with that request's
response; the batcher holds a collection window only while a request
the service may fuse (:meth:`QueryService.may_fuse`) is queued.
Shutdown ordering is the documented contract:
**stop accepting -> drain the batcher -> close the open connections
-> close the service** (which shuts the owned executor down and
unlinks its shm segments) -- so no in-flight request ever sees a
closed executor, no accepted connection outlives the service, and no
segment outlives the process's interest in it.

The socket protocol is newline-delimited JSON, one object per line:

* query ops -- the :mod:`repro.serve.protocol` vocabulary verbatim;
* ``{"admin": "register", "name": ..., "series": [[...], ...]}`` /
  ``{"admin": "register_stream", "name": ..., "values": [...]}`` --
  dataset registration (never batched);
* ``{"admin": "stats"}`` -- the service's accounting snapshot;
* ``{"admin": "ping"}`` -- liveness.

Responses echo the request's ``id`` when given, so clients may
pipeline as many requests per connection as they like -- that is the
whole point of the batcher.  A line that cannot be read as a request
(over 64 KiB, not UTF-8, not JSON) gets an
``{"ok": false, "error": ...}`` response of its own, and the
connection goes on with the next line.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Mapping, Optional, Union

from .batcher import MicroBatcher
from .protocol import QueryRequest, QueryResponse
from .service import QueryService

__all__ = ["AsyncQueryService", "run_server", "serve"]

#: Longest request line the server reads, newline excluded (asyncio's
#: default stream limit, named so the over-long-line error can cite it)
_MAX_LINE_BYTES = 2 ** 16

#: Seconds :meth:`AsyncQueryService.close` lets the open connections
#: flush their queued answers before it aborts them (a client that
#: stopped reading would otherwise hold the close forever)
_CLOSE_GRACE_S = 5.0


class AsyncQueryService:
    """Async wrapper: micro-batched queries over a sync service.

    Either wrap an existing :class:`QueryService` (``service=``) or
    let the constructor build one from the remaining keyword
    arguments.  A wrapped service is still owned: :meth:`close`
    closes it after the drain.
    """

    def __init__(
        self,
        service: Optional[QueryService] = None,
        window_ms: float = 5.0,
        max_batch: int = 64,
        **service_kwargs,
    ):
        if service is not None and service_kwargs:
            raise ValueError(
                "pass either a service or its constructor kwargs"
            )
        self.service = service or QueryService(**service_kwargs)
        self.batcher = MicroBatcher(
            self.service.execute_batch, window_ms=window_ms,
            max_batch=max_batch, may_fuse=self.service.may_fuse,
        )
        self.window_ms = window_ms
        # writers of the socket connections being served: close()
        # ends them after the drain, so none outlives the service
        self._connections: set = set()

    async def query(
        self, request: Union[QueryRequest, Mapping[str, Any]]
    ) -> QueryResponse:
        """Submit one query into the next micro-batch."""
        return await self.batcher.submit(request)

    def register(self, name: str, series) -> str:
        return self.service.register(name, series)

    def register_stream(self, name: str, values) -> str:
        return self.service.register_stream(name, values)

    def stats(self):
        return self.service.stats()

    async def close(self) -> None:
        """Shutdown ordering: refuse -> drain batcher -> close
        connections -> close service.

        A connection whose queued answers have not flushed within
        :data:`_CLOSE_GRACE_S` is aborted, so the service closes even
        when a client has stopped reading.
        """
        await self.batcher.close()
        closing = {}
        for writer in list(self._connections):
            writer.close()
            closing[asyncio.ensure_future(writer.wait_closed())] = writer
        if closing:
            _, stuck = await asyncio.wait(closing, timeout=_CLOSE_GRACE_S)
            for waiter in stuck:
                closing[waiter].transport.abort()
            await asyncio.gather(*closing, return_exceptions=True)
        self.service.close()

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc) -> bool:
        await self.close()
        return False


async def _handle_admin(
    service: AsyncQueryService, obj: Mapping[str, Any]
) -> Mapping[str, Any]:
    kind = obj.get("admin")
    try:
        if kind == "ping":
            return {"ok": True, "pong": True}
        if kind == "stats":
            return {"ok": True, "stats": service.stats().to_dict()}
        if kind == "register":
            fingerprint = service.register(
                obj.get("name", ""), obj.get("series") or []
            )
            return {"ok": True, "fingerprint": fingerprint}
        if kind == "register_stream":
            fingerprint = service.register_stream(
                obj.get("name", ""), obj.get("values") or []
            )
            return {"ok": True, "fingerprint": fingerprint}
        return {"ok": False, "error": f"unknown admin op {kind!r}"}
    except Exception as exc:
        return {"ok": False, "error": str(exc)}


async def _read_line(reader: "asyncio.StreamReader") -> bytes:
    """The next line, newline included (``b""`` at EOF).

    A line longer than the reader's limit raises ``ValueError``, but
    only once all of it, newline included, has been consumed -- so the
    next call reads the line after it, not the over-long line's tail.
    """
    too_long = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # a last line without its newline
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)  # drop what was scanned
            too_long = True
            continue
        if too_long:
            raise ValueError(
                f"line too long: over {_MAX_LINE_BYTES} bytes; request "
                "skipped"
            )
        return line


async def _handle_connection(
    service: AsyncQueryService,
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
) -> None:
    async def respond(payload: Mapping[str, Any]) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def run_query(obj: Mapping[str, Any]) -> None:
        response = await service.query(obj)
        await respond(response.to_dict())

    tasks = []
    service._connections.add(writer)
    try:
        while True:
            try:
                line = await _read_line(reader)
            except ValueError as exc:
                await respond({"ok": False, "error": str(exc)})
                continue
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except UnicodeDecodeError as exc:
                await respond({"ok": False, "error": f"not utf-8: {exc}"})
                continue
            except json.JSONDecodeError as exc:
                await respond({"ok": False, "error": f"bad json: {exc}"})
                continue
            if isinstance(obj, dict) and "admin" in obj:
                await respond(await _handle_admin(service, obj))
                continue
            # queries run concurrently so pipelined requests read in
            # one tick share a batch; a collection window holds it
            # open for later lines only while a fusable 1nn is queued
            tasks.append(asyncio.ensure_future(run_query(obj)))
            tasks = [t for t in tasks if not t.done()]
    except ConnectionError:
        pass  # the client went away, or close() aborted the connection
    finally:
        service._connections.discard(writer)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def serve(
    service: AsyncQueryService,
    host: str = "127.0.0.1",
    port: int = 8787,
) -> "asyncio.AbstractServer":
    """Start the newline-delimited-JSON server (caller owns its life)."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port,
        limit=_MAX_LINE_BYTES,
    )


def run_server(
    host: str = "127.0.0.1",
    port: int = 8787,
    window_ms: float = 5.0,
    **service_kwargs,
) -> None:
    """Blocking entry point behind ``python -m repro serve``."""

    async def main() -> None:
        async with AsyncQueryService(
            window_ms=window_ms, **service_kwargs
        ) as service:
            server = await serve(service, host, port)
            async with server:
                await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
