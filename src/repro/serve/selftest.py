"""``python -m repro serve --self-test``: the deployable-system check.

Starts an in-process async service, fires a mixed query burst through
the micro-batcher, and verifies the serving layer's whole contract:

1. **Parity** -- every micro-batched answer is bit-identical to the
   same request executed one-at-a-time on a fresh service (and the
   index fast path agrees with the index-free path);
2. **Telemetry reconciliation** -- summing per-request ``dtw_calls``
   and ``dp_cells`` over all responses equals the service's
   aggregated ``repro.obs`` counters exactly;
3. **Amortisation** -- a second query against the same dataset builds
   strictly fewer index artifacts than the first (cache hit), and a
   repeated identical query is served from the result cache with zero
   DP work;
4. **Batching** -- the burst actually coalesced (at least one
   executed batch holds several requests), and the three index-off
   ``1nn`` requests were fused into one batch job;
5. **Latency surface** -- ``p50_latency_ms``/``p99_latency_ms`` are
   present and sane;
6. **Hygiene** -- no ``/dev/shm`` segment survives service shutdown.

Exit code 0 only if every check passes; any parity mismatch (or any
other failure) is nonzero.  Used as the CI smoke for the serve job.
"""

from __future__ import annotations

import asyncio
import os
import random
from typing import List, Tuple

from ..runtime import Runtime
from .server import AsyncQueryService
from .service import QueryService

__all__ = ["run_self_test"]


def _dataset(count: int, length: int, seed: int) -> List[List[float]]:
    rng = random.Random(seed)
    return [
        [rng.uniform(-3.0, 3.0) for _ in range(length)]
        for _ in range(count)
    ]


def _burst(queries: List[List[float]]) -> List[dict]:
    """The mixed workload: every op, index on and off, repeats."""
    return [
        {"op": "1nn", "dataset": "coll", "band": 3,
         "query": queries[0], "id": "nn-idx-0"},
        {"op": "1nn", "dataset": "coll", "band": 3,
         "query": queries[1], "id": "nn-idx-1"},
        # index off + same band: these fuse into one batch job
        {"op": "1nn", "dataset": "coll", "band": 3, "index": False,
         "query": queries[0], "id": "nn-raw-0"},
        {"op": "1nn", "dataset": "coll", "band": 3, "index": False,
         "query": queries[1], "id": "nn-raw-1"},
        {"op": "1nn", "dataset": "coll", "band": 3, "index": False,
         "query": queries[2], "id": "nn-raw-2"},
        {"op": "knn", "dataset": "coll", "band": 3, "k": 3,
         "query": queries[2], "id": "knn-0"},
        {"op": "subsequence", "dataset": "stream", "band": 2,
         "query": queries[3][:12], "id": "sub-0"},
        {"op": "subsequence", "dataset": "stream", "band": 2, "k": 2,
         "query": queries[3][:12], "id": "sub-topk"},
        {"op": "discord", "dataset": "stream", "window": 12, "band": 2,
         "id": "discord-0"},
        {"op": "motif", "dataset": "stream", "window": 12, "band": 2,
         "id": "motif-0"},
    ]


async def _run_burst(
    service: AsyncQueryService, burst: List[dict]
) -> list:
    return await asyncio.gather(
        *(service.query(request) for request in burst)
    )


def run_self_test(
    verbose: bool = True, workers: int = 2, window_ms: float = 25.0
) -> int:
    """Run every check; return 0 on success, 1 on any failure."""
    checks: List[Tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    series = _dataset(count=8, length=24, seed=41)
    stream = _dataset(count=1, length=90, seed=43)[0]
    queries = _dataset(count=4, length=24, seed=47)

    shm_before = (
        set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm")
        else None
    )
    runtime = Runtime(workers=workers)

    async def batched_phase():
        async with AsyncQueryService(
            window_ms=window_ms, runtime=runtime
        ) as service:
            service.register("coll", series)
            service.register_stream("stream", stream)
            responses = await _run_burst(service, _burst(queries))

            # amortisation: the same dataset again, different query
            warm = await service.query({
                "op": "1nn", "dataset": "coll", "band": 3,
                "query": queries[3], "id": "nn-warm",
            })
            # result cache: byte-identical repeat of the first request
            repeat = await service.query({
                "op": "1nn", "dataset": "coll", "band": 3,
                "query": queries[0], "id": "nn-repeat",
            })
            stats = service.stats()
            batcher = service.batcher
            return responses, warm, repeat, stats, (
                batcher.batches, batcher.largest_batch,
            )

    responses, warm, repeat, stats, batch_info = asyncio.run(
        batched_phase()
    )

    # -- parity against one-at-a-time execution ---------------------------
    with QueryService(runtime=runtime, cache_results=False) as sequential:
        sequential.register("coll", series)
        sequential.register_stream("stream", stream)
        reference = [sequential.execute(r) for r in _burst(queries)]

    ok_answers = all(r.ok for r in responses)
    check("all burst requests succeeded", ok_answers,
          "; ".join(r.error or "" for r in responses if not r.ok))
    mismatches = [
        (got.id, got.answer, want.answer)
        for got, want in zip(responses, reference)
        if got.answer != want.answer
    ]
    check(
        "micro-batched answers bit-identical to sequential",
        ok_answers and not mismatches,
        f"mismatched: {mismatches[:3]}",
    )

    # index on vs off must agree too (lossless fast path, served live)
    nn_idx = {r.id: r for r in responses}
    check(
        "index fast path agrees with raw path",
        ok_answers
        and nn_idx["nn-idx-0"].answer == nn_idx["nn-raw-0"].answer
        and nn_idx["nn-idx-1"].answer == nn_idx["nn-raw-1"].answer,
    )

    # -- telemetry reconciles with the obs counters ------------------------
    everything = list(responses) + [warm, repeat]
    calls = sum(r.telemetry.dtw_calls for r in everything if r.ok)
    cells = sum(r.telemetry.dp_cells for r in everything if r.ok)
    check(
        "per-request dtw_calls reconcile with obs counters",
        calls == stats.dtw_calls,
        f"sum={calls} service={stats.dtw_calls}",
    )
    check(
        "per-request dp_cells reconcile with obs counters",
        cells == stats.dp_cells,
        f"sum={cells} service={stats.dp_cells}",
    )

    # -- amortisation across requests --------------------------------------
    first_builds = nn_idx["nn-idx-0"].telemetry.index_builds
    check(
        "second query builds strictly fewer index artifacts",
        warm.ok and first_builds >= 1
        and warm.telemetry.index_builds < first_builds,
        f"first={first_builds} warm={warm.telemetry.index_builds}",
    )
    check(
        "repeated identical query served from the result cache",
        repeat.ok and repeat.telemetry.cached
        and repeat.telemetry.dtw_calls == 0
        and repeat.answer == nn_idx["nn-idx-0"].answer,
    )

    # -- batching actually happened ----------------------------------------
    batches, largest = batch_info
    check(
        "burst coalesced into micro-batches",
        largest >= 2 and batches < len(everything),
        f"batches={batches} largest={largest}",
    )
    fused = [r for r in responses if r.id and r.id.startswith("nn-raw")]
    check(
        "same-dataset 1nn requests fused into one batch job",
        all(r.ok for r in fused)
        and stats.coalesced_requests == len(fused),
        f"coalesced={stats.coalesced_requests} of {len(fused)}",
    )

    # -- latency surface ---------------------------------------------------
    payload = stats.to_dict()
    check(
        "stats expose p50/p99 latency fields",
        "p50_latency_ms" in payload and "p99_latency_ms" in payload
        and payload["p99_latency_ms"] >= payload["p50_latency_ms"] >= 0,
    )

    # -- shm hygiene -------------------------------------------------------
    if shm_before is not None:
        leaked = set(os.listdir("/dev/shm")) - shm_before
        check("no /dev/shm segment outlived shutdown", not leaked,
              f"leaked: {sorted(leaked)[:5]}")

    failed = [c for c in checks if not c[1]]
    if verbose:
        for name, ok, detail in checks:
            mark = "ok" if ok else "FAIL"
            suffix = f"  ({detail})" if detail and not ok else ""
            print(f"  [{mark:>4}] {name}{suffix}")
        summary = (
            f"serve self-test: {len(checks) - len(failed)}/{len(checks)} "
            "checks passed"
        )
        print(summary)
    return 1 if failed else 0
