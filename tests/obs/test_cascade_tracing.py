"""Cascade tracing is paid once per scan, and counts what it always did.

A traced :meth:`CascadeBatch.nearest` opens one ``lb_cascade`` span
around its whole scan -- the exact stage's DPs nest under it as
``lb_cascade/dp`` -- and reports its ``lb.*`` counters once, when it
returns.  Its totals must equal a per-candidate reference count: the
same candidates in the same order, driven one at a time through
``scan().distance`` with the running best (one span per call), with
every bound evaluation counted where it happens.
"""

from collections.abc import Sequence
from math import inf

import pytest

from repro.datasets.random_walk import random_walks
from repro.lowerbounds.cascade import CascadeBatch
from repro.lowerbounds.lb_kim import lb_kim
from repro.obs import RunTrace
from repro.runtime import Runtime

BAND = 4
#: random walks: every stage prunes some candidates (uniform noise
#: leaves nothing for LB_Keogh after LB_Kim)
_WALKS = random_walks(28, 48, seed=3)
CANDS, QUERIES = _WALKS[:24], _WALKS[24:]
OUTCOMES = (
    "pruned_kim", "pruned_keogh", "pruned_keogh_reversed",
    "abandoned_dtw", "full_dtw",
)


class _View(Sequence):
    """A candidate sequence that is not a list: scanned in stream order."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, j):
        return self.rows[j]


def _runtime(backend):
    if backend == "numpy":
        pytest.importorskip("numpy")
    return Runtime(backend=backend)


#: the counters the cascade itself reports per candidate; the exact
#: stage's own (``lb.suffix_builds``, ``dp.*``) and the numpy
#: prefilter's per-scan ``lb.chunk_prefilter`` are reported elsewhere
CASCADE_COUNTERS = {
    "lb.candidates", "lb.invocations", "lb.reused_exact",
    *("lb." + name for name in OUTCOMES),
}


def _lb_counters(trace):
    return {
        name: value for name, value in trace.counters().items()
        if name in CASCADE_COUNTERS
    }


def reference_scan(batch, query, order):
    """``nearest``'s answer from one ``distance`` call per candidate,
    with the lb counters it must report counted independently."""
    bounds = []
    stages = batch._stages
    batch._stages = stages._replace(
        kim=lambda q, c: bounds.append("kim") or stages.kim(q, c),
        keogh=lambda env, x, best: (
            bounds.append("keogh") or stages.keogh(env, x, best)
        ),
    )
    best, best_idx = inf, -1
    with batch.scan(query) as scan:
        for j in order:
            d = scan.distance(j, best)
            if d < best or (d == best and j < best_idx):
                best, best_idx = d, j
    counts = {"lb.candidates": len(order), "lb.invocations": len(bounds)}
    for name in OUTCOMES:
        counts["lb." + name] = getattr(scan.stats, name)
    expected = {name: n for name, n in counts.items() if n}
    return best_idx, best, scan.stats, expected


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("held", [True, False], ids=["held", "view"])
def test_nearest_opens_one_span_with_reference_totals(backend, held):
    rt = _runtime(backend)
    candidates = list(CANDS) if held else _View(CANDS)
    reached = set()
    for query in QUERIES:
        with RunTrace() as traced:
            hit = CascadeBatch(candidates, BAND, runtime=rt).nearest(query)
        # held candidates are scanned by ascending LB_Kim, a view in
        # stream order
        order = sorted(
            range(len(CANDS)), key=lambda j: (lb_kim(query, CANDS[j]), j),
        ) if held else list(range(len(CANDS)))
        with RunTrace() as per_candidate:
            index, distance, stats, expected = reference_scan(
                CascadeBatch(candidates, BAND, runtime=rt), query, order,
            )
        assert (hit.index, hit.distance) == (index, distance)
        assert hit.stats == stats
        assert _lb_counters(traced) == expected
        assert _lb_counters(per_candidate) == expected
        assert traced.span_count("lb_cascade") == 1
        assert per_candidate.span_count("lb_cascade") == len(CANDS)
        assert traced.span_count("lb_cascade/dp") == stats.abandoned_dtw + (
            stats.full_dtw
        )
        reached.update(name for name in OUTCOMES if getattr(stats, name))
    # the queries exercise every way out of the cascade
    assert reached == set(OUTCOMES)
