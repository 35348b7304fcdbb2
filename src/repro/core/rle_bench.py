"""Compression-ratio-vs-speedup benchmark for the RLE fast path.

The compressed-domain DP (:mod:`repro.core.rle`) evaluates
``k*m + l*n`` boundary cells instead of the dense lattice, so its win
is a function of how step-like the input is.  This benchmark sweeps
quantization grids over the power-demand workload
(:func:`repro.datasets.power.midnight_hour_pair` with ``quantize=``):
a fine grid leaves the noise intact (runs of length ~1, RLE loses), a
coarse grid collapses the traces into long runs (RLE wins) -- tracing
out the crossover curve.

Every level asserts **bit-exact distance agreement** between the
compressed and dense engines (the quantized traces sit on the dyadic
exactness grid, where agreement is provable, not approximate).  The
CLI gate (``python -m repro rle bench``) exits nonzero unless every
distance matches exactly *and* the compressed path wins wall-clock at
the highest compression level -- an approximation or a slowdown is a
regression, the same standard the paper holds FastDTW to.

The paper harness (``timing/``, ``experiments/``) never routes
through RLE; this report quantifies the opt-in headroom only.
"""

from __future__ import annotations

import os
import time
from math import inf
from typing import List, Optional, Sequence

from ..datasets.power import midnight_hour_pair
from ..runtime import Runtime
from .measures import measure_fn
from .rle import RleSeries

__all__ = ["format_rle_report", "rle_benchmark"]

SCHEMA = "repro.rle.bench/v2"

#: dyadic quantization steps, fine to coarse (low to high compression)
DEFAULT_STEPS = (2.0 ** -8, 2.0 ** -6, 2.0 ** -4, 2.0 ** -2)


def _best_seconds(fn, repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs of ``fn`` (noise floor)."""
    best = inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _contender(label: str, fn, pairs, repeats: int) -> dict:
    """Distances, cells and best-of wall-clock of ``fn`` over pairs."""
    results = [fn(a, b) for a, b in pairs]
    seconds = _best_seconds(
        lambda: [fn(a, b) for a, b in pairs], repeats
    )
    return {
        "label": label,
        "distances": [r.distance for r in results],
        "cells": sum(r.cells for r in results),
        "seconds": seconds,
    }


def rle_benchmark(
    length: int = 450,
    n_pairs: int = 2,
    quantize_steps: Sequence[float] = DEFAULT_STEPS,
    repeats: int = 3,
    seed: int = 0,
    runtime: Optional[Runtime] = None,
) -> dict:
    """Sweep quantization levels; return a JSON-ready report.

    Each level generates ``n_pairs`` power-trace pairs quantized to
    that step, runs full DTW through both the dense and the
    compressed engines on the runtime's backend, and records
    compression ratio, cells, wall-clock and exact agreement.
    """
    if not quantize_steps:
        raise ValueError("need at least one quantization step")
    rt = Runtime.resolve(runtime).serial()
    backend = rt.backend_name
    dense_full = measure_fn("dtw", backend=backend)
    rle_full = measure_fn("rle_dtw", backend=backend)

    # scale the canonical peak positions with the length so short
    # smoke workloads stay valid; at the default length=450 these are
    # exactly the midnight_hour_pair defaults
    peaks_a = tuple(round(p * length / 450) for p in (60, 170, 260))
    peaks_b = tuple(round(p * length / 450) for p in (90, 140, 413))

    levels: List[dict] = []
    for step in quantize_steps:
        traces = [
            midnight_hour_pair(
                length=length, peaks_a=peaks_a, peaks_b=peaks_b,
                quantize=step, seed=seed + i,
            )
            for i in range(n_pairs)
        ]
        pairs = [(p.night_a, p.night_b) for p in traces]
        encoded = [
            RleSeries.encode(s) for pair in pairs for s in pair
        ]
        ratio = sum(len(e) for e in encoded) / sum(
            e.run_count for e in encoded
        )
        on_grid = all(e.exactness_grid() for e in encoded)

        dense = _contender("dense", dense_full, pairs, repeats)
        rle = _contender("rle", rle_full, pairs, repeats)
        levels.append({
            "quantize": step,
            "compression_ratio": ratio,
            "on_exactness_grid": on_grid,
            "variants": {"full": {
                "dense_seconds": dense["seconds"],
                "rle_seconds": rle["seconds"],
                "speedup": dense["seconds"] / rle["seconds"],
                "dense_cells": dense["cells"],
                "rle_cells": rle["cells"],
                "agree": dense["distances"] == rle["distances"],
            }},
        })

    agree = all(
        level["on_exactness_grid"]
        and all(v["agree"] for v in level["variants"].values())
        for level in levels
    )
    top = max(levels, key=lambda level: level["compression_ratio"])
    wins = top["variants"]["full"]["speedup"] > 1.0
    return {
        "benchmark": SCHEMA,
        "note": (
            "compression-ratio-vs-speedup curve of the compressed-"
            "domain exact DTW over quantized power traces; every "
            "level requires bit-exact distance agreement with the "
            "dense engine.  The paper harness (timing/, experiments/)"
            " never routes through RLE; this measures the opt-in "
            "fast path only."
        ),
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "kind": "quantized_power_pairs",
            "length": length,
            "n_pairs": n_pairs,
            "quantize_steps": [float(s) for s in quantize_steps],
            "repeats": repeats,
            "seed": seed,
            "backend": backend,
        },
        "levels": levels,
        "agree": agree,
        "compressed_wins_at_high_compression": wins,
        "passed": agree and wins,
    }


def format_rle_report(report: dict) -> List[str]:
    """Human-readable lines for the CLI."""
    workload = report["workload"]
    lines = [
        f"rle compression-vs-speedup benchmark ({report['benchmark']})",
        f"  workload: {workload['n_pairs']} power pairs of length "
        f"{workload['length']} per level, "
        f"backend={workload['backend']}",
    ]
    for level in report["levels"]:
        full = level["variants"]["full"]
        lines.append(
            f"  quantize=2^{level['quantize'].hex().split('p')[-1]:>3s} "
            f"ratio={level['compression_ratio']:7.2f}  "
            f"full: {full['speedup']:5.2f}x "
            f"({full['rle_cells']}/{full['dense_cells']} cells)"
        )
    lines.append(
        f"  all distances bit-identical to dense: {report['agree']}"
    )
    lines.append(
        "  compressed wins wall-clock at the highest compression: "
        f"{report['compressed_wins_at_high_compression']}"
    )
    return lines
