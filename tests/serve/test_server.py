"""AsyncQueryService, the socket server, the self-test, CLI wiring."""

import asyncio
import json

import pytest

from repro.runtime import Runtime
from repro.serve import AsyncQueryService, QueryService
from repro.serve.server import _MAX_LINE_BYTES, serve
from tests.conftest import make_series

SERIES = [make_series(20, seed=900 + i) for i in range(5)]
STREAM = make_series(50, seed=910)
QUERY = make_series(20, seed=920)


_NEXT_LINE = json.dumps({
    "op": "1nn", "dataset": "coll", "band": 3, "query": QUERY,
    "id": "next",
}).encode() + b"\n"


def _run(coro):
    return asyncio.run(coro)


async def _exchange(payload: bytes, replies: int):
    """Send raw bytes to a fresh server holding ``coll``; read replies."""
    async with AsyncQueryService(
        window_ms=5, runtime=Runtime(workers=1)
    ) as service:
        service.register("coll", SERIES)
        server = await serve(service, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(payload)
            await writer.drain()
            return [
                json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=30
                ))
                for _ in range(replies)
            ]
        finally:
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()


class TestAsyncQueryService:
    def test_gathered_queries_match_sync_execution(self):
        burst = [
            {"op": "1nn", "dataset": "coll", "band": 3, "query": QUERY},
            {"op": "knn", "dataset": "coll", "band": 3, "k": 2,
             "query": QUERY},
            {"op": "discord", "dataset": "s", "window": 10, "band": 2},
        ]

        async def main():
            async with AsyncQueryService(
                window_ms=10, runtime=Runtime(workers=1)
            ) as service:
                service.register("coll", SERIES)
                service.register_stream("s", STREAM)
                return await asyncio.gather(
                    *(service.query(r) for r in burst)
                )

        responses = _run(main())
        with QueryService(runtime=Runtime(workers=1)) as sync:
            sync.register("coll", SERIES)
            sync.register_stream("s", STREAM)
            reference = [sync.execute(r) for r in burst]
        assert [r.answer for r in responses] == [
            r.answer for r in reference
        ]
        assert all(r.telemetry.batched_with >= 1 for r in responses)

    def test_shutdown_ordering_drains_then_closes(self):
        async def main():
            service = AsyncQueryService(
                window_ms=25, runtime=Runtime(workers=1)
            )
            service.register("coll", SERIES)
            pending = asyncio.ensure_future(service.query(
                {"op": "1nn", "dataset": "coll", "band": 3,
                 "query": QUERY}
            ))
            await asyncio.sleep(0)  # the request is in the window
            await service.close()
            # drained before the service closed: the answer arrived
            assert pending.done()
            response = await pending
            assert response.ok
            assert service.service.closed
            with pytest.raises(RuntimeError, match="closed"):
                await service.query(
                    {"op": "1nn", "dataset": "coll", "band": 3,
                     "query": QUERY}
                )

        _run(main())

    def test_service_or_kwargs_not_both(self):
        with QueryService() as inner:
            with pytest.raises(ValueError, match="either"):
                AsyncQueryService(service=inner, use_index=False)


class TestSocketServer:
    def test_json_lines_roundtrip(self):
        async def main():
            async with AsyncQueryService(
                window_ms=5, runtime=Runtime(workers=1)
            ) as service:
                server = await serve(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def ask(obj):
                    writer.write(json.dumps(obj).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                try:
                    pong = await ask({"admin": "ping"})
                    registered = await ask({
                        "admin": "register", "name": "coll",
                        "series": SERIES,
                    })
                    answer = await ask({
                        "op": "1nn", "dataset": "coll", "band": 3,
                        "query": QUERY, "id": "q1",
                    })
                    bad = await ask({
                        "op": "1nn", "dataset": "nope", "band": 3,
                        "query": QUERY,
                    })
                    garbage = await ask_raw(reader, writer, b"{oops\n")
                    stats = await ask({"admin": "stats"})
                finally:
                    writer.close()
                    await writer.wait_closed()
                    server.close()
                    await server.wait_closed()
                return pong, registered, answer, bad, garbage, stats

        async def ask_raw(reader, writer, payload):
            writer.write(payload)
            await writer.drain()
            return json.loads(await reader.readline())

        pong, registered, answer, bad, garbage, stats = _run(main())
        assert pong == {"ok": True, "pong": True}
        assert registered["ok"] and registered["fingerprint"]
        assert answer["ok"] and answer["id"] == "q1"
        assert {"index", "distance"} <= answer["answer"].keys()
        assert {"latency_ms", "dtw_calls", "dp_cells"} <= (
            answer["telemetry"].keys()
        )
        assert not bad["ok"] and "nope" in bad["error"]
        assert not garbage["ok"] and "json" in garbage["error"]
        assert stats["ok"]
        assert stats["stats"]["requests"] >= 2

    @pytest.mark.parametrize("bad, cause", [
        (b'{"op": "1nn", "dataset": "\xff"}\n', "not utf-8"),
        # just over the 64 KiB limit, then far over it (several reads)
        (b'{"pad": "' + b"x" * 70_000 + b'"}\n', "too long"),
        (b'{"pad": "' + b"x" * 300_000 + b'"}\n', "too long"),
    ], ids=["non_utf8", "over_limit", "far_over_limit"])
    def test_unreadable_line_answered_then_next_line_served(
        self, bad, cause
    ):
        refused, answered = _run(_exchange(bad + _NEXT_LINE, replies=2))
        assert not refused["ok"] and cause in refused["error"]
        assert answered["ok"] and answered["id"] == "next"

    @pytest.mark.parametrize("extra, served", [(0, True), (1, False)],
                             ids=["at_limit", "one_over"])
    def test_line_limit_boundary(self, extra, served):
        # a request padded to exactly the limit (newline excluded) is
        # served; one byte more is refused, and the next line is
        # served either way
        request = _NEXT_LINE.rstrip(b"\n").replace(b'"next"', b'"edge"')
        pad = _MAX_LINE_BYTES + extra - len(request)
        line = request + b" " * pad + b"\n"
        replies = _run(_exchange(line + _NEXT_LINE, replies=2))
        # two served queries may finish in either order
        by_id = {reply.get("id"): reply for reply in replies}
        assert by_id["next"]["ok"]
        if served:
            assert by_id["edge"]["ok"]
        else:
            assert not by_id[None]["ok"]
            assert "too long" in by_id[None]["error"]

    def test_pipelined_queries_share_a_window(self):
        async def main():
            async with AsyncQueryService(
                window_ms=30, runtime=Runtime(workers=1)
            ) as service:
                service.register("coll", SERIES)
                server = await serve(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    for i in range(3):
                        writer.write(json.dumps({
                            "op": "1nn", "dataset": "coll", "band": 3,
                            "query": QUERY, "id": str(i),
                        }).encode() + b"\n")
                    await writer.drain()
                    got = [
                        json.loads(await reader.readline())
                        for _ in range(3)
                    ]
                finally:
                    writer.close()
                    await writer.wait_closed()
                    server.close()
                    await server.wait_closed()
                return got, service.batcher.largest_batch

        responses, largest = _run(main())
        assert all(r["ok"] for r in responses)
        assert {r["id"] for r in responses} == {"0", "1", "2"}
        assert largest >= 2  # they rode one collection window


class TestSelfTest:
    def test_self_test_passes(self, capsys):
        from repro.serve import run_self_test

        assert run_self_test(verbose=True, workers=2) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_self_test_fails_without_fusion(self, capsys, monkeypatch):
        # any batch of two or more requests once satisfied the fusion
        # check; with fusion switched off it must fail
        from repro.serve import run_self_test
        from repro.serve.service import QueryService

        monkeypatch.setattr(
            QueryService, "_coalesce_groups", lambda self, parsed: []
        )
        assert run_self_test(verbose=True, workers=2) == 1
        out = capsys.readouterr().out
        assert "[FAIL] same-dataset 1nn requests fused" in out
        assert "coalesced=0 of 3" in out


class TestCli:
    def test_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--self-test", "--window-ms", "3",
             "--workers", "2"]
        )
        assert args.command == "serve"
        assert args.self_test
        assert args.window_ms == 3.0
        assert args.workers == 2

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.window_ms == 5.0
        assert not args.self_test
        assert not args.no_index

    def test_cli_self_test_exit_code(self):
        from repro.cli import main

        assert main(["serve", "--self-test", "--workers", "2"]) == 0
