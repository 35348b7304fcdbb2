"""MicroBatcher window semantics, ordering, isolation, shutdown."""

import asyncio
import threading

import pytest

from repro.serve import MicroBatcher
from repro.serve.protocol import QueryResponse


def _response(tag):
    return QueryResponse(op="1nn", dataset="d", ok=True,
                         answer={"tag": tag})


class Recorder:
    """A runner that records the batches it was handed."""

    def __init__(self, delay: float = 0.0, fail_on=None):
        self.batches = []
        self.delay = delay
        self.fail_on = fail_on

    def __call__(self, requests):
        import time

        if self.delay:
            time.sleep(self.delay)
        self.batches.append(list(requests))
        if self.fail_on is not None and any(
            r.get("tag") == self.fail_on for r in requests
        ):
            raise RuntimeError("runner blew up")
        return [_response(r["tag"]) for r in requests]


def _run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_submissions_share_a_batch(self):
        runner = Recorder()
        batcher = MicroBatcher(runner, window_ms=20)

        async def main():
            return await asyncio.gather(
                *(batcher.submit({"tag": i}) for i in range(5))
            )

        responses = _run(main())
        assert [r.answer["tag"] for r in responses] == list(range(5))
        assert len(runner.batches) == 1
        assert len(runner.batches[0]) == 5
        assert batcher.largest_batch == 5

    def test_each_submitter_gets_its_own_response(self):
        runner = Recorder()
        batcher = MicroBatcher(runner, window_ms=5)

        async def main():
            a, b = await asyncio.gather(
                batcher.submit({"tag": "a"}), batcher.submit({"tag": "b"})
            )
            return a, b

        a, b = _run(main())
        assert a.answer["tag"] == "a"
        assert b.answer["tag"] == "b"

    def test_max_batch_overflow_rolls_into_next_window(self):
        runner = Recorder()
        batcher = MicroBatcher(runner, window_ms=5, max_batch=3)

        async def main():
            return await asyncio.gather(
                *(batcher.submit({"tag": i}) for i in range(7))
            )

        responses = _run(main())
        assert len(responses) == 7
        assert [len(b) for b in runner.batches] == [3, 3, 1]

    def test_sequential_awaits_do_not_batch(self):
        runner = Recorder()
        batcher = MicroBatcher(runner, window_ms=1)

        async def main():
            for i in range(3):
                await batcher.submit({"tag": i})

        _run(main())
        assert [len(b) for b in runner.batches] == [1, 1, 1]

    def test_arrivals_during_execution_form_next_batch(self):
        runner = Recorder(delay=0.03)
        batcher = MicroBatcher(runner, window_ms=5)

        async def main():
            first = asyncio.ensure_future(batcher.submit({"tag": 0}))
            await asyncio.sleep(0.02)  # batch 0 is executing now
            second = asyncio.ensure_future(batcher.submit({"tag": 1}))
            return await asyncio.gather(first, second)

        responses = _run(main())
        assert len(responses) == 2
        assert len(runner.batches) == 2


class TestFusionWindow:
    def test_no_window_without_a_fusable_request(self):
        runner = Recorder()
        batcher = MicroBatcher(runner, window_ms=500,
                               may_fuse=lambda r: False)

        async def main():
            loop = asyncio.get_running_loop()
            started = loop.time()
            await asyncio.wait_for(batcher.submit({"tag": 0}), timeout=5)
            return loop.time() - started

        assert _run(main()) < 0.25
        assert [len(b) for b in runner.batches] == [1]

    def test_same_tick_burst_still_shares_a_batch(self):
        runner = Recorder()
        batcher = MicroBatcher(runner, window_ms=500,
                               may_fuse=lambda r: False)

        async def main():
            return await asyncio.wait_for(asyncio.gather(
                *(batcher.submit({"tag": i}) for i in range(4))
            ), timeout=5)

        assert len(_run(main())) == 4
        assert [len(b) for b in runner.batches] == [4]

    def test_a_queued_fusable_request_holds_the_window(self):
        runner = Recorder()
        batcher = MicroBatcher(
            runner, window_ms=500, may_fuse=lambda r: r["tag"] == "fuse"
        )

        async def main():
            first = asyncio.ensure_future(batcher.submit({"tag": "fuse"}))
            await asyncio.sleep(0.05)  # inside the held window
            late = asyncio.ensure_future(batcher.submit({"tag": "plain"}))
            return await asyncio.wait_for(
                asyncio.gather(first, late), timeout=5
            )

        responses = _run(main())
        assert [r.answer["tag"] for r in responses] == ["fuse", "plain"]
        assert [len(b) for b in runner.batches] == [2]


class TestErrorsAndShutdown:
    def test_runner_failure_rejects_only_that_batch(self):
        runner = Recorder(fail_on="bad")
        batcher = MicroBatcher(runner, window_ms=5)

        async def main():
            with pytest.raises(RuntimeError, match="batch execution"):
                await batcher.submit({"tag": "bad"})
            ok = await batcher.submit({"tag": "fine"})
            return ok

        assert _run(main()).answer["tag"] == "fine"

    def test_length_mismatch_is_an_error(self):
        batcher = MicroBatcher(lambda requests: [], window_ms=1)

        async def main():
            with pytest.raises(RuntimeError, match="responses"):
                await batcher.submit({"tag": 0})

        _run(main())

    def test_close_drains_then_refuses(self):
        runner = Recorder()
        batcher = MicroBatcher(runner, window_ms=10)

        async def main():
            pending = asyncio.ensure_future(batcher.submit({"tag": 0}))
            await asyncio.sleep(0)  # let the drainer start
            await batcher.close()
            assert pending.done()
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit({"tag": 1})
            return await pending

        assert _run(main()).answer["tag"] == 0
        assert batcher.closed

    def test_cancelled_drainer_fails_every_future_and_closes(self):
        entered = threading.Event()
        release = threading.Event()

        class Slow(Recorder):
            def __call__(self, requests):
                entered.set()
                # held until the drainer is cancelled, however slowly
                # this test's own steps run
                release.wait(5)
                return super().__call__(requests)

        runner = Slow()
        batcher = MicroBatcher(runner, window_ms=1)

        async def main():
            running = asyncio.ensure_future(batcher.submit({"tag": 0}))
            # batch 0 is in the runner now, held there
            assert await asyncio.to_thread(entered.wait, 5)
            queued = asyncio.ensure_future(batcher.submit({"tag": 1}))
            await asyncio.sleep(0)  # queued behind the running batch
            drainer = batcher._drainer
            drainer.cancel()
            release.set()
            await asyncio.wait(
                [drainer, running, queued], timeout=5,
                return_when=asyncio.ALL_COMPLETED,
            )
            errors = [
                f.exception() if f.done() else None
                for f in (running, queued)
            ]
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit({"tag": 2})
            return drainer, errors

        drainer, errors = _run(main())
        assert drainer.cancelled()
        for error in errors:
            assert isinstance(error, RuntimeError)
            assert "micro-batcher cancelled" in str(error)
        # the runner finished batch 0 on its thread and saw nothing else
        assert [[r["tag"] for r in b] for b in runner.batches] == [[0]]

    def test_drainer_cancelled_before_it_runs_closes(self):
        # cancelled before its first step, the drain task never enters
        # _drain: the queued request must still fail and the batcher
        # still close
        runner = Recorder()
        batcher = MicroBatcher(runner, window_ms=1)

        async def main():
            queued = asyncio.ensure_future(batcher.submit({"tag": 0}))
            await asyncio.sleep(0)  # submit ran; the drainer has not
            drainer = batcher._drainer
            drainer.cancel()
            await asyncio.wait([drainer, queued], timeout=5)
            assert queued.done()
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit({"tag": 1})
            return drainer, queued.exception()

        drainer, error = _run(main())
        assert drainer.cancelled()
        assert isinstance(error, RuntimeError)
        assert "micro-batcher cancelled" in str(error)
        assert runner.batches == []

    def test_validation(self):
        with pytest.raises(ValueError, match="window_ms"):
            MicroBatcher(lambda r: [], window_ms=-1)
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda r: [], max_batch=0)
