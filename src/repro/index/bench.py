"""Pruning-power benchmark: what does the index actually buy?

The interesting metric is not wall-clock (toy datasets fit in cache)
but **work avoided**: how many candidates per query still reach the
expensive DP stage (``dtw_calls`` = completed + abandoned DPs) and how
many DP lattice cells get evaluated, with and without the index, and
with LB_Keogh alone versus the LB_Improved stage on top.  The workload
is the synthetic archive's leave-one-out 1-NN -- every series queries
its own dataset -- i.e. exactly the repeated-use setting the paper's
Section 3.4 argues for.

Three variants, all returning bit-identical neighbours (recorded under
``"agree"``):

* ``unindexed_keogh`` -- today's index-free cascade scan in dataset
  order (Kim, Keogh, reversed Keogh, abandoning DP);
* ``indexed_keogh``   -- the index fast path (precomputed envelopes,
  best-first ordering) with LB_Improved off;
* ``indexed_improved`` -- the same plus the LB_Improved stage.

``python -m repro index bench`` writes the report to
``BENCH_index.json``; the schema smoke test pins its shape and asserts
``indexed_improved`` makes strictly fewer DTW calls per query than
``indexed_keogh``.
"""

from __future__ import annotations

import time
from math import ceil
from typing import List, Optional

from ..datasets.synthetic_archive import synthetic_archive
from ..lowerbounds.cascade import CascadeBatch, CascadeStats
from ..runtime import Runtime
from .dataset_index import build_index

__all__ = ["format_index_report", "index_benchmark"]

SCHEMA = "repro.index.bench/v1"


def _merge(total: CascadeStats, stats: CascadeStats) -> None:
    total.candidates += stats.candidates
    total.pruned_kim += stats.pruned_kim
    total.pruned_keogh += stats.pruned_keogh
    total.pruned_improved += stats.pruned_improved
    total.pruned_keogh_reversed += stats.pruned_keogh_reversed
    total.abandoned_dtw += stats.abandoned_dtw
    total.full_dtw += stats.full_dtw
    total.cells += stats.cells
    total.reused_exact += stats.reused_exact


def _variant_report(
    label: str, queries: int, total: CascadeStats, seconds: float
) -> dict:
    dtw_calls = total.full_dtw + total.abandoned_dtw
    return {
        "variant": label,
        "queries": queries,
        "candidates": total.candidates,
        "dtw_calls": dtw_calls,
        "dtw_calls_per_query": dtw_calls / queries,
        "full_dtw": total.full_dtw,
        "abandoned_dtw": total.abandoned_dtw,
        "cells": total.cells,
        "cells_per_query": total.cells / queries,
        "pruned_kim": total.pruned_kim,
        "pruned_keogh": total.pruned_keogh,
        "pruned_improved": total.pruned_improved,
        "pruned_keogh_reversed": total.pruned_keogh_reversed,
        "prune_rate": total.prune_rate(),
        "seconds": seconds,
    }


def index_benchmark(
    n_datasets: int = 3,
    length_range=(40, 72),
    classes: int = 3,
    per_class: int = 5,
    window: float = 0.1,
    seed: int = 0,
    runtime: Optional[Runtime] = None,
) -> dict:
    """Run the three variants over the synthetic archive (module notes).

    Returns a JSON-ready report.  ``window`` is the band as a fraction
    of the series length (``ceil``, the package convention).
    """
    rt = Runtime.resolve(runtime).serial()
    entries = synthetic_archive(
        n_datasets=n_datasets, length_range=length_range,
        classes=classes, per_class=per_class, seed=seed,
    )

    totals = {
        "unindexed_keogh": CascadeStats(),
        "indexed_keogh": CascadeStats(),
        "indexed_improved": CascadeStats(),
    }
    seconds = dict.fromkeys(totals, 0.0)
    winners = {label: [] for label in totals}
    queries = 0

    for entry in entries:
        series = [list(s) for s in entry.dataset.series]
        band = ceil(window * len(series[0]))
        queries += len(series)

        t0 = time.perf_counter()
        cascade = CascadeBatch(
            series, band, use_improved=False, best_first=False, runtime=rt,
        )
        for i, q in enumerate(series):
            hit = cascade.nearest(q, exclude=i)
            winners["unindexed_keogh"].append(
                (entry.name, i, hit.index, hit.distance)
            )
            _merge(totals["unindexed_keogh"], hit.stats)
        seconds["unindexed_keogh"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        idx = build_index(series, band, runtime=rt)
        build_seconds = time.perf_counter() - t0

        for label, use_improved in (
            ("indexed_keogh", False), ("indexed_improved", True),
        ):
            searcher = idx.searcher(runtime=rt, use_improved=use_improved)
            t0 = time.perf_counter()
            for i, q in enumerate(series):
                hit = searcher.nearest(q, exclude=i, query_index=i)
                winners[label].append(
                    (entry.name, i, hit.index, hit.distance)
                )
                _merge(totals[label], hit.stats)
            seconds[label] += time.perf_counter() - t0
        seconds["indexed_keogh"] += build_seconds  # charge the build once

    reference = winners["unindexed_keogh"]
    agree = all(winners[label] == reference for label in winners)

    variants = {
        label: _variant_report(label, queries, total, seconds[label])
        for label, total in totals.items()
    }
    improved = variants["indexed_improved"]
    keogh = variants["indexed_keogh"]
    return {
        "benchmark": SCHEMA,
        "note": (
            "pruning power of the ahead-of-time index on the synthetic "
            "archive's leave-one-out 1-NN; dtw_calls counts candidates "
            "that reached the DP stage (completed + abandoned).  The "
            "paper harness (timing/, experiments/) never uses the "
            "index; this report quantifies the repeated-use headroom."
        ),
        "workload": {
            "kind": "synthetic_archive_loocv_nn",
            "n_datasets": n_datasets,
            "length_range": list(length_range),
            "classes": classes,
            "per_class": per_class,
            "window": window,
            "seed": seed,
            "queries": queries,
            "backend": rt.backend_name,
        },
        "variants": variants,
        "agree": agree,
        "improved_fewer_dtw_calls": (
            improved["dtw_calls"] < keogh["dtw_calls"]
        ),
    }


def format_index_report(report: dict) -> List[str]:
    """Human-readable lines for the CLI."""
    lines = [
        f"index pruning-power benchmark ({report['benchmark']})",
        f"  workload: {report['workload']['queries']} LOOCV queries over "
        f"{report['workload']['n_datasets']} datasets "
        f"(window={report['workload']['window']}, "
        f"backend={report['workload']['backend']})",
    ]
    for label, v in report["variants"].items():
        lines.append(
            f"  {label:18s} dtw_calls/query={v['dtw_calls_per_query']:.2f} "
            f"cells/query={v['cells_per_query']:.0f} "
            f"prune_rate={v['prune_rate']:.3f}"
        )
    lines.append(
        "  neighbours identical across variants: "
        f"{report['agree']}"
    )
    lines.append(
        "  LB_Improved reduces DTW calls vs LB_Keogh alone: "
        f"{report['improved_fewer_dtw_calls']}"
    )
    return lines
