"""Multivariate datasets through the serve front door.

``repro.serve`` accepts ``(length, dims)`` collections and streams
with the same guarantees as the scalar path: 1nn/knn answers equal
the brute-force dependent scan, the coalesced parallel route is
bit-identical to serial execution, and telemetry still reconciles.
"""

import random

import pytest

from repro.core.multivariate import cdtw_nd
from repro.runtime import Runtime
from repro.serve.protocol import ProtocolError, _as_series, parse_request
from repro.serve.service import QueryService
from tests.conftest import make_vectors


def _nd_stream(n=60, dims=2, seed=0):
    rng = random.Random(seed)
    out = []
    values = [0.0] * dims
    for _ in range(n):
        values = [v + rng.uniform(-1.0, 1.0) for v in values]
        out.append(tuple(values))
    return out


@pytest.fixture
def collection():
    return [make_vectors(14, 3, s) for s in range(5)]


@pytest.fixture
def service():
    with QueryService() as svc:
        yield svc


def _brute(query, candidates, band):
    d = [cdtw_nd(query, c, band=band).distance for c in candidates]
    best = min(range(len(d)), key=lambda i: (d[i], i))
    return best, d[best]


class TestQueryParsing:
    def test_nested_query_becomes_vector_samples(self):
        got = _as_series([[0, 1.5], (2, 3)])
        assert got == ((0.0, 1.5), (2.0, 3.0))

    def test_ragged_samples_refused(self):
        with pytest.raises(ProtocolError, match="equal-"):
            _as_series([(0.0, 1.0), (2.0,)])

    def test_mixed_flat_and_vector_refused(self):
        with pytest.raises(ProtocolError, match="equal-"):
            _as_series([(0.0, 1.0), 2.0])

    def test_empty_sample_refused(self):
        with pytest.raises(ProtocolError, match="must not be empty"):
            _as_series([()])

    def test_non_numeric_component_refused(self):
        with pytest.raises(ProtocolError, match="only numbers"):
            _as_series([(0.0, "x")])

    def test_parse_request_carries_nd_query(self):
        req = parse_request({
            "op": "1nn", "dataset": "d",
            "query": [[0, 1], [2, 3]], "band": 2,
        })
        assert req.query == ((0.0, 1.0), (2.0, 3.0))


class TestRegistration:
    def test_nd_collection_records_dims(self, service, collection):
        service.register("gestures", collection)
        entry = service.registry.get("gestures")
        assert entry.dims == 3
        assert entry.kind == "collection"

    def test_nd_stream_records_dims(self, service):
        service.register_stream("walk", _nd_stream(n=40, dims=2, seed=1))
        assert service.registry.get("walk").dims == 2

    def test_mixed_dataset_refused(self, service):
        with pytest.raises(ProtocolError, match="all-scalar or all"):
            service.register(
                "bad", [[0.0, 1.0, 2.0], [(0.0, 1.0), (2.0, 3.0)]]
            )


class Test1nnAndKnn:
    def test_1nn_matches_brute_force(self, service, collection):
        service.register("gestures", collection)
        query = make_vectors(14, 3, 99)
        resp = service.execute({
            "op": "1nn", "dataset": "gestures",
            "query": query, "band": 3,
        })
        assert resp.ok, resp.error
        best, dist = _brute(query, collection, 3)
        assert resp.answer == {"index": best, "distance": dist}
        assert resp.telemetry.dtw_calls > 0

    def test_knn_matches_brute_ranking(self, service, collection):
        service.register("gestures", collection)
        query = make_vectors(14, 3, 42)
        resp = service.execute({
            "op": "knn", "dataset": "gestures",
            "query": query, "band": 3, "k": 3,
        })
        assert resp.ok, resp.error
        d = [cdtw_nd(query, c, band=3).distance for c in collection]
        want = sorted(range(len(d)), key=lambda j: (d[j], j))[:3]
        assert [n["index"] for n in resp.answer["neighbors"]] == want
        assert [n["distance"] for n in resp.answer["neighbors"]] == [
            d[j] for j in want
        ]

    def test_coalesced_parallel_matches_serial(self, collection):
        queries = [make_vectors(14, 3, 100 + s) for s in range(3)]
        requests = [
            {
                "op": "1nn", "dataset": "gestures", "query": q,
                "band": 3, "index": False,
            }
            for q in queries
        ]
        with QueryService() as serial_svc:
            serial_svc.register("gestures", collection)
            serial = [serial_svc.execute(r).answer for r in requests]
        with QueryService(
            runtime=Runtime(workers=2), cache_results=False
        ) as par_svc:
            par_svc.register("gestures", collection)
            responses = par_svc.execute_batch(requests)
            assert all(r.ok for r in responses)
            assert [r.answer for r in responses] == serial
            assert par_svc.stats().coalesced_requests == 3

    def test_query_dims_mismatch_refused(self, service, collection):
        service.register("gestures", collection)
        resp = service.execute({
            "op": "1nn", "dataset": "gestures",
            "query": make_vectors(14, 2, 1), "band": 3,
        })
        assert not resp.ok
        assert "channel" in resp.error

    def test_scalar_query_on_nd_dataset_refused(self, service, collection):
        service.register("gestures", collection)
        resp = service.execute({
            "op": "1nn", "dataset": "gestures",
            "query": [0.0] * 14, "band": 3,
        })
        assert not resp.ok
        assert "channel" in resp.error


class TestStreamOps:
    def test_discord_motif_subsequence_run_on_nd_stream(self, service):
        stream = _nd_stream(n=56, dims=2, seed=5)
        service.register_stream("walk", stream)
        discord = service.execute({
            "op": "discord", "dataset": "walk",
            "window": 12, "band": 2, "step": 2,
        })
        assert discord.ok, discord.error
        assert set(discord.answer) == {"start", "score", "neighbor_start"}
        motif = service.execute({
            "op": "motif", "dataset": "walk",
            "window": 10, "band": 2, "step": 2,
        })
        assert motif.ok, motif.error
        assert set(motif.answer) == {"start_a", "start_b", "distance"}
        sub = service.execute({
            "op": "subsequence", "dataset": "walk",
            "query": [list(v) for v in stream[20:32]],
            "band": 2,
        })
        assert sub.ok, sub.error
        assert sub.answer["start"] == 20

    def test_indexed_route_matches_index_free(self, collection):
        query = make_vectors(14, 3, 55)
        request = {
            "op": "1nn", "dataset": "gestures", "query": query,
            "band": 3,
        }
        answers = {}
        for use_index in (True, False):
            with QueryService(use_index=use_index) as svc:
                svc.register("gestures", collection)
                resp = svc.execute(request)
                assert resp.ok, resp.error
                answers[use_index] = resp.answer
        assert answers[True] == answers[False]
