"""Golden answers and cascade work for every index-free cdtw+lb route.

For fixed seeds, ``cascade_golden.json`` holds each route's answers
-- neighbour, distance, match offsets -- and the exact work the
cascade did, as the ``CascadeStats`` fields the route returns or,
where a route returns none, the ``lb.*`` / ``dp.*`` trace counters
that mirror them.  Every value must be reproduced exactly, on both
kernel backends and on scalar and multivariate data.

The answers were first recorded before the two cascade
implementations were folded into one (``CascadeBatch``) and have not
moved since.  The work columns moved once, on purpose, when the
cascade became one stage list with one scan rule: held candidates
(``nearest_neighbor``, LOOCV) are scanned best-first, so those keys
do fewer DPs, and the LB_Improved slot and counter left every key.

Regenerate (only when a change is *meant* to move these numbers) with
``PYTHONPATH=src python tests/lowerbounds/test_cascade_golden.py``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("cascade_golden.json")

BACKENDS = ("python", "numpy")
SHAPES = ("scalar", "nd")

COUNTERS = (
    "lb.candidates",
    "lb.invocations",
    "lb.pruned_kim",
    "lb.pruned_keogh",
    "lb.pruned_keogh_reversed",
    "lb.abandoned_dtw",
    "lb.full_dtw",
    "dp.calls",
    "dp.cells",
)


def _walk(n, seed, dims=None):
    """A seeded random walk: structured enough for every stage to prune."""
    rng = random.Random(seed)
    if dims is None:
        level, out = 0.0, []
        for _ in range(n):
            level += rng.gauss(0.0, 1.0)
            out.append(level)
        return out
    levels, out = [0.0] * dims, []
    for _ in range(n):
        levels = [v + rng.gauss(0.0, 1.0) for v in levels]
        out.append(tuple(levels))
    return out


def _dims(shape):
    return None if shape == "scalar" else 2


def _counters(trace):
    return [trace.counter(name) for name in COUNTERS]


def _nearest_neighbor(rt, shape):
    from repro.search.nn_search import nearest_neighbor

    dims = _dims(shape)
    candidates = [_walk(40, 100 + s, dims) for s in range(24)]
    out = []
    for q in range(4):
        hit = nearest_neighbor(
            _walk(40, 500 + q, dims), candidates, "cdtw+lb", band=4,
            runtime=rt,
        )
        out.append([hit.index, hit.distance, list(astuple(hit.stats))])
    return out


def _loocv(rt, shape):
    from repro.classify.knn import DistanceSpec, OneNearestNeighbor
    from repro.obs import RunTrace

    dims = _dims(shape)
    series = [_walk(32, 700 + s, dims) for s in range(16)]
    spec = DistanceSpec(
        "cdtw" if dims is None else "cdtw_d", window=0.1,
        use_lower_bounds=True,
    )
    # unique labels make each prediction name its neighbour's index
    clf = OneNearestNeighbor(spec, runtime=rt).fit(
        series, list(range(len(series)))
    )
    out = []
    for i, s in enumerate(series):
        before = clf.cells_evaluated
        with RunTrace() as trace:
            neighbour = clf.predict_one(s, exclude=i)
        out.append(
            [neighbour, clf.cells_evaluated - before, _counters(trace)]
        )
    return out


def _stream(shape, n=260, seed=900):
    return _walk(n, seed, _dims(shape))


def _subsequence(rt, shape):
    from repro.search.subsequence import subsequence_search

    stream = _stream(shape)
    out = []
    for q in range(2):
        query = _walk(24, 950 + q, _dims(shape))
        hit = subsequence_search(query, stream, band=3, runtime=rt)
        out.append(
            [hit.start, hit.distance, hit.windows, list(astuple(hit.stats))]
        )
    return out


def _topk(rt, shape):
    from repro.search.subsequence import subsequence_search_topk

    stream = _stream(shape)
    query = _walk(24, 960, _dims(shape))
    matches = subsequence_search_topk(
        query, stream, band=3, k=3, exclusion=4, runtime=rt,
    )
    return [
        [[m.start, m.distance] for m in matches],
        list(astuple(matches[0].stats)),
    ]


def _discord(rt, shape):
    from repro.anomaly.discord import find_discord
    from repro.obs import RunTrace

    stream = _stream(shape, n=150, seed=970)
    with RunTrace() as trace:
        d = find_discord(stream, window=16, band=2, step=2, runtime=rt)
    return [
        d.start, d.score, d.neighbor_start, d.windows, d.distance_calls,
        _counters(trace),
    ]


def _motif(rt, shape):
    from repro.motifs.discovery import find_motif
    from repro.obs import RunTrace

    stream = _stream(shape, n=150, seed=980)
    with RunTrace() as trace:
        m = find_motif(stream, window=16, band=2, step=2, runtime=rt)
    return [
        m.start_a, m.start_b, m.distance, m.windows, m.distance_calls,
        _counters(trace),
    ]


ROUTES = {
    "nearest_neighbor": _nearest_neighbor,
    "loocv": _loocv,
    "subsequence_search": _subsequence,
    "subsequence_search_topk": _topk,
    "find_discord": _discord,
    "find_motif": _motif,
}


def capture(route, backend, shape):
    """The route's answers and cascade work, JSON-shaped."""
    from repro.runtime import Runtime

    return ROUTES[route](Runtime(backend=backend), shape)


def _key(route, backend, shape):
    return f"{route}/{backend}/{shape}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_matches_golden(golden, route, backend, shape):
    if backend == "numpy":
        pytest.importorskip("numpy")
    got = json.loads(json.dumps(capture(route, backend, shape)))
    assert got == golden[_key(route, backend, shape)]


def test_golden_covers_every_route():
    recorded = json.loads(GOLDEN.read_text())
    assert set(recorded) == {
        _key(r, b, s) for r in ROUTES for b in BACKENDS for s in SHAPES
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    doc = {
        _key(r, b, s): capture(r, b, s)
        for r in sorted(ROUTES) for b in BACKENDS for s in SHAPES
    }
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(doc[key])}" for key in sorted(doc)
    ) + "\n}\n")
    print(f"wrote {len(doc)} routes to {GOLDEN}")
