"""QueryService: determinism, coalescing, telemetry, lifecycle.

The central property: **the execution configuration is invisible in
the answers**.  One canonical reference (serial, pure python, no
index, one request at a time) pins every (workers x backend x index)
configuration of the micro-batched path -- all answers must be
bit-identical, per the engine/cascade invariants the service builds
on.
"""

import os
import random

import pytest

from repro.core.cdtw import cdtw
from repro.core.rle import RleSeries
from repro.runtime import Runtime
from repro.serve import QueryService, parse_request
from tests.conftest import make_series

SERIES = [make_series(20, seed=800 + i) for i in range(6)]
STREAM = make_series(60, seed=810)
QUERIES = [make_series(20, seed=820 + i) for i in range(3)]


def _burst():
    return [
        {"op": "1nn", "dataset": "coll", "band": 3,
         "query": QUERIES[0]},
        {"op": "1nn", "dataset": "coll", "band": 3,
         "query": QUERIES[1], "index": False},
        {"op": "1nn", "dataset": "coll", "band": 3,
         "query": QUERIES[2], "index": False},
        {"op": "knn", "dataset": "coll", "band": 3, "k": 3,
         "query": QUERIES[0]},
        {"op": "subsequence", "dataset": "stream", "band": 2,
         "query": QUERIES[1][:10]},
        {"op": "subsequence", "dataset": "stream", "band": 2, "k": 2,
         "query": QUERIES[1][:10]},
        {"op": "discord", "dataset": "stream", "window": 10, "band": 2},
        {"op": "motif", "dataset": "stream", "window": 10, "band": 2},
    ]


def _service(**kwargs) -> QueryService:
    service = QueryService(**kwargs)
    service.register("coll", SERIES)
    service.register_stream("stream", STREAM)
    return service


@pytest.fixture(scope="module")
def canonical():
    """Serial / python-backend / index-free / one-at-a-time answers."""
    with _service(
        runtime=Runtime(workers=1, backend="python"), use_index=False,
        cache_results=False,
    ) as service:
        return [service.execute(r).answer for r in _burst()]


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("use_index", [True, False])
    def test_batched_bit_identical_to_canonical(
        self, canonical, workers, backend, use_index
    ):
        with _service(
            runtime=Runtime(workers=workers, backend=backend),
            use_index=use_index,
        ) as service:
            responses = service.execute_batch(_burst())
        assert all(r.ok for r in responses), [
            r.error for r in responses if not r.ok
        ]
        assert [r.answer for r in responses] == canonical

    def test_batched_equals_one_at_a_time_same_service(self, canonical):
        with _service(
            runtime=Runtime(workers=2), cache_results=False
        ) as service:
            singles = [service.execute(r).answer for r in _burst()]
            batched = [
                r.answer for r in service.execute_batch(_burst())
            ]
        assert singles == batched == canonical

    def test_result_cache_answers_identical(self, canonical):
        with _service(runtime=Runtime(workers=2)) as service:
            cold = [r.answer for r in service.execute_batch(_burst())]
            warm = [r.answer for r in service.execute_batch(_burst())]
        assert cold == warm == canonical


class TestCoalescing:
    def test_same_dataset_1nn_requests_fuse(self, canonical):
        burst = [
            {"op": "1nn", "dataset": "coll", "band": 3,
             "query": q, "index": False}
            for q in QUERIES
        ]
        with _service(
            runtime=Runtime(workers=2), cache_results=False
        ) as service:
            responses = service.execute_batch(burst)
            stats = service.stats()
        assert stats.coalesced_requests == len(QUERIES)
        assert [r.answer for r in responses] == [
            canonical[0], canonical[1], canonical[2]
        ]
        for r in responses:
            assert r.telemetry.batched_with == len(QUERIES)
            assert r.telemetry.dtw_calls == len(SERIES)

    def test_serial_runtime_never_coalesces(self):
        burst = [
            {"op": "1nn", "dataset": "coll", "band": 3,
             "query": q, "index": False}
            for q in QUERIES
        ]
        with _service(
            runtime=Runtime(workers=1, backend="python"),
            cache_results=False,
        ) as service:
            service.execute_batch(burst)
            assert service.stats().coalesced_requests == 0

    @pytest.mark.parametrize("workers, use_index, params, fusable", [
        (1, False, {"op": "1nn", "index": False}, False),
        (2, True, {"op": "1nn"}, False),
        (2, True, {"op": "1nn", "index": False}, True),
        (2, False, {"op": "1nn"}, True),
        (2, False, {"op": "1nn", "index": True}, False),
        (2, False, {"op": "knn"}, False),
    ])
    def test_may_fuse_reads_runtime_op_and_index(
        self, workers, use_index, params, fusable
    ):
        raw = {"dataset": "coll", "band": 3, "query": QUERIES[0], **params}
        with QueryService(
            runtime=Runtime(workers=workers), use_index=use_index
        ) as service:
            assert service.may_fuse(raw) is fusable
            assert service.may_fuse(parse_request(raw)) is fusable
            assert service.may_fuse(["not", "a", "mapping"]) is False

    def test_mixed_bands_fuse_separately(self):
        burst = [
            {"op": "1nn", "dataset": "coll", "band": 3,
             "query": QUERIES[0], "index": False},
            {"op": "1nn", "dataset": "coll", "band": 3,
             "query": QUERIES[1], "index": False},
            {"op": "1nn", "dataset": "coll", "band": 4,
             "query": QUERIES[2], "index": False},
        ]
        with _service(
            runtime=Runtime(workers=2), cache_results=False
        ) as service:
            responses = service.execute_batch(burst)
            # only the band-3 pair fuses; band-4 runs alone
            assert service.stats().coalesced_requests == 2
        assert all(r.ok for r in responses)

    def test_error_isolated_from_batch_mates(self, canonical):
        burst = [
            {"op": "1nn", "dataset": "coll", "band": 3,
             "query": QUERIES[0]},
            {"op": "1nn", "dataset": "missing", "band": 3,
             "query": QUERIES[0]},
            {"op": "nonsense", "dataset": "coll"},
            {"op": "1nn", "dataset": "coll", "band": 3,
             "query": QUERIES[0][:5]},  # wrong length
            {"op": "discord", "dataset": "stream", "window": 10,
             "band": 2},
        ]
        with _service(runtime=Runtime(workers=2)) as service:
            responses = service.execute_batch(burst)
            stats = service.stats()
        assert responses[0].ok and responses[0].answer == canonical[0]
        assert not responses[1].ok and "missing" in responses[1].error
        assert not responses[2].ok and "op" in responses[2].error
        assert not responses[3].ok and "length" in responses[3].error
        assert responses[4].ok and responses[4].answer == canonical[6]
        assert stats.errors == 3


class TestUnexpectedErrors:
    def test_single_channel_collection_refused_at_register(self):
        from repro.serve import ProtocolError

        with QueryService(runtime=Runtime(workers=1)) as service:
            with pytest.raises(ProtocolError, match=r"\(length, 1\)"):
                service.register("one", [[(v,) for v in s] for s in SERIES])
            assert "one" not in service.stats().datasets

    def test_unexpected_exception_answers_only_its_request(
        self, canonical, monkeypatch
    ):
        # a bug (here a TypeError) in one request's handler becomes
        # that request's error; its batch-mates keep their answers
        burst = [
            {"op": "1nn", "dataset": "coll", "band": 3,
             "query": QUERIES[0]},
            {"op": "knn", "dataset": "coll", "band": 3, "k": 3,
             "query": QUERIES[0]},
            {"op": "discord", "dataset": "stream", "window": 10,
             "band": 2},
        ]
        with _service(runtime=Runtime(workers=1),
                      cache_results=False) as service:
            dispatch = service._dispatch

            def broken_knn(request, dataset):
                if request.op == "knn":
                    raise TypeError("unsupported operand")
                return dispatch(request, dataset)

            monkeypatch.setattr(service, "_dispatch", broken_knn)
            responses = service.execute_batch(burst)
            stats = service.stats()
        assert responses[0].ok and responses[0].answer == canonical[0]
        assert not responses[1].ok
        assert responses[1].error == (
            "internal error (TypeError): unsupported operand"
        )
        assert responses[2].ok and responses[2].answer == canonical[6]
        assert stats.errors == 1


class TestTelemetry:
    def test_per_request_counters_reconcile(self):
        with _service(runtime=Runtime(workers=2)) as service:
            responses = service.execute_batch(_burst())
            responses += service.execute_batch(_burst())  # cached round
            stats = service.stats()
        calls = sum(r.telemetry.dtw_calls for r in responses if r.ok)
        cells = sum(r.telemetry.dp_cells for r in responses if r.ok)
        assert calls == stats.dtw_calls
        assert cells == stats.dp_cells

    def test_cached_repeat_is_free_and_flagged(self):
        with _service(runtime=Runtime(workers=1)) as service:
            first = service.execute(_burst()[0])
            again = service.execute(_burst()[0])
        assert not first.telemetry.cached
        assert again.telemetry.cached
        assert again.telemetry.dtw_calls == 0
        assert again.answer == first.answer

    def test_index_builds_amortised(self):
        with _service(
            runtime=Runtime(workers=1), cache_results=False
        ) as service:
            first = service.execute(_burst()[0])
            warm = service.execute({
                "op": "1nn", "dataset": "coll", "band": 3,
                "query": QUERIES[1],
            })
        assert first.telemetry.index_builds == 1
        assert warm.telemetry.index_builds == 0

    def test_latency_percentiles_populated(self):
        with _service(runtime=Runtime(workers=1)) as service:
            service.execute_batch(_burst())
            stats = service.stats()
        assert stats.p99_latency_ms >= stats.p50_latency_ms > 0.0
        payload = stats.to_dict()
        assert {"p50_latency_ms", "p99_latency_ms"} <= payload.keys()


def _steps(rng, n):
    """A step series on a 1/16 grid, 6 to 18 samples per run."""
    out = []
    while len(out) < n:
        out.extend([rng.randint(-48, 48) / 16] * rng.randint(6, 18))
    return out[:n]


_STEP_RNG = random.Random(12)
STEPS = [_steps(_STEP_RNG, 48) for _ in range(12)]
STEP_QUERIES = [_steps(_STEP_RNG, 48) for _ in range(3)]
STEP_BAND = 4


def _step_distances(query, series):
    return [cdtw(query, s, band=STEP_BAND).distance for s in series]


def _brute_1nn(query, series):
    dists = _step_distances(query, series)
    best = min(dists)
    return {"index": dists.index(best), "distance": best}


def _brute_knn(query, series, k):
    dists = _step_distances(query, series)
    ranked = sorted(range(len(series)), key=lambda j: (dists[j], j))
    return [{"index": j, "distance": dists[j]} for j in ranked[:k]]


class TestStepCollections:
    def test_compressible_collection_takes_the_indexed_route(self):
        # step data is no special case: a highly compressible, on-grid
        # collection is searched by the same indexed cDTW cascade as
        # any other, with the brute-force argmin-first answer
        rng = random.Random(4)
        steps = [_steps(rng, 96) for _ in range(32)]
        query = _steps(rng, 96)
        runs = sum(RleSeries.encode(s).run_count for s in steps)
        assert 96 * len(steps) / runs >= 4.0
        with QueryService(cache_results=False) as service:
            service.register("steps", steps)
            resp = service.execute({
                "op": "1nn", "dataset": "steps", "band": 4,
                "query": query,
            })
        assert resp.ok, resp.error
        assert resp.telemetry.index_builds == 1
        assert resp.telemetry.dtw_calls < len(steps)
        dists = [cdtw(query, s, band=4).distance for s in steps]
        best = min(dists)
        assert resp.answer == {"index": dists.index(best), "distance": best}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("use_index", [True, False])
    def test_1nn_equals_brute_force(self, workers, backend, use_index):
        with QueryService(
            runtime=Runtime(workers=workers, backend=backend),
            use_index=use_index, cache_results=False,
        ) as service:
            service.register("steps", STEPS)
            responses = [
                service.execute({
                    "op": "1nn", "dataset": "steps", "band": STEP_BAND,
                    "query": q,
                })
                for q in STEP_QUERIES
            ]
        assert all(r.ok for r in responses), [r.error for r in responses]
        assert [r.answer for r in responses] == [
            _brute_1nn(q, STEPS) for q in STEP_QUERIES
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_knn_equals_brute_force(self, workers, backend):
        with QueryService(
            runtime=Runtime(workers=workers, backend=backend),
            cache_results=False,
        ) as service:
            service.register("steps", STEPS)
            resp = service.execute({
                "op": "knn", "dataset": "steps", "band": STEP_BAND,
                "k": 3, "query": STEP_QUERIES[0],
            })
        assert resp.ok, resp.error
        assert resp.answer["neighbors"] == _brute_knn(
            STEP_QUERIES[0], STEPS, 3
        )

    @pytest.mark.parametrize("route", ["index", "scan", "coalesced"])
    def test_exact_ties_resolve_to_the_lowest_index(self, route):
        # each series appears twice, so every query that is a member
        # meets an exact tie at distance 0; every route must keep the
        # first copy, as the serial scan does
        twins = STEPS[:4] + STEPS[:4]
        burst = [
            {"op": "1nn", "dataset": "twins", "band": STEP_BAND,
             "query": s, "index": route == "index"}
            for s in twins[:4]
        ]
        workers = 2 if route == "coalesced" else 1
        with QueryService(
            runtime=Runtime(workers=workers), cache_results=False
        ) as service:
            service.register("twins", twins)
            responses = service.execute_batch(burst)
            coalesced = service.stats().coalesced_requests
        assert coalesced == (len(burst) if route == "coalesced" else 0)
        assert [r.answer for r in responses] == [
            {"index": j, "distance": 0.0} for j in range(4)
        ]

    def test_knn_lists_exact_ties_in_index_order(self):
        twins = STEPS[:4] + STEPS[:4]
        with QueryService(cache_results=False) as service:
            service.register("twins", twins)
            resp = service.execute({
                "op": "knn", "dataset": "twins", "band": STEP_BAND,
                "k": 2, "query": twins[1],
            })
        assert resp.answer["neighbors"] == [
            {"index": 1, "distance": 0.0}, {"index": 5, "distance": 0.0},
        ]

    @pytest.mark.parametrize("option, value", [
        ("use_rle", True), ("rle_threshold", 4.0),
    ])
    def test_no_option_routes_step_data_elsewhere(self, option, value):
        with pytest.raises(TypeError, match=option):
            QueryService(**{option: value})


class TestLifecycle:
    def test_close_is_idempotent_and_final(self):
        service = _service(runtime=Runtime(workers=2))
        service.execute(_burst()[0])
        service.close()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.execute(_burst()[0])
        with pytest.raises(RuntimeError, match="closed"):
            service.register("x", SERIES)

    def test_owned_executor_shm_reclaimed(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir("/dev/shm"))
        service = _service(runtime=Runtime(workers=2))
        service.execute_batch([
            {"op": "1nn", "dataset": "coll", "band": 3,
             "query": q, "index": False}
            for q in QUERIES
        ])
        service.close()
        assert not (set(os.listdir("/dev/shm")) - before)

    def test_reregistration_invalidates_by_fingerprint(self):
        with _service(runtime=Runtime(workers=1)) as service:
            service.execute(_burst()[0])
            assert service.artifacts.stats.index_builds == 1
            mutated = [list(s) for s in SERIES]
            mutated[0][0] += 1.0
            service.register("coll", mutated)
            response = service.execute(_burst()[0])
            # new content: index rebuilt, result recomputed
            assert service.artifacts.stats.index_builds == 2
            assert not response.telemetry.cached

    def test_identical_reregistration_keeps_artifacts(self):
        with _service(runtime=Runtime(workers=1)) as service:
            service.execute(_burst()[0])
            service.register("coll", [list(s) for s in SERIES])
            warm = service.execute({
                "op": "1nn", "dataset": "coll", "band": 3,
                "query": QUERIES[1],
            })
            assert service.artifacts.stats.index_builds == 1
            assert warm.telemetry.index_builds == 0

    def test_explicit_executor_not_shut_down(self):
        from repro.batch import BatchExecutor

        with BatchExecutor(workers=2, cap=None) as exe:
            service = _service(runtime=Runtime(executor=exe))
            service.execute(_burst()[1])
            service.close()
            assert not exe.closed
