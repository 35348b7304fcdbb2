"""Metric names, units and the per-layer arithmetic over trace documents.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
lists; ``BENCHMARK.json`` repeats them and a test keeps the two equal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from harness import percentile, ratio

END_TO_END = (
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

PER_LAYER = (
    # serve.batcher / serve.server
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.batch_size.mean", "count", "higher"),
    ("serve.wire_ms.p50", "ms", "lower"),
    ("client.lag_ms.p95", "ms", "lower"),
    # serve.service / serve.registry
    ("serve.execute_ms.p50", "ms", "lower"),
    ("cache.result_hit_ratio", "ratio", "higher"),
    ("cache.index_builds", "count", "lower"),
    ("index.build_ms.total", "ms", "lower"),
    ("registry.register_ms.p50", "ms", "lower"),
    ("class.1nn.p50_ms", "ms", "lower"),
    ("class.1nn_hit.p50_ms", "ms", "lower"),
    ("class.knn.p50_ms", "ms", "lower"),
    ("class.subsequence.p50_ms", "ms", "lower"),
    ("class.rle_1nn.p50_ms", "ms", "lower"),
    ("class.nd_1nn.p50_ms", "ms", "lower"),
    ("class.register.p50_ms", "ms", "lower"),
    # index / lowerbounds
    ("lb.prune_ratio", "ratio", "higher"),
    ("lb.full_dtw_per_op", "count", "lower"),
    ("lb_cascade.self_ms_per_op", "ms", "lower"),
    ("index.lb_improved_prunes_per_op", "count", "higher"),
    ("index.reused_exact_per_op", "count", "higher"),
    # core DP
    ("dp.calls_per_op", "count", "lower"),
    ("dp.cells_per_op", "count", "lower"),
    ("dp.abandons_per_op", "count", "lower"),
    ("dp.ns_per_cell", "ns", "lower"),
    # batch
    ("batch.pairs_per_op", "count", "lower"),
    ("sched.chunks_per_op", "count", "lower"),
    ("sched.steals", "count", "lower"),
    ("chunk.pad_ratio", "ratio", "lower"),
    ("shm.bytes_per_op", "bytes", "lower"),
    ("shm.datasets_per_op", "count", "lower"),
    ("batch.pack_ms.p50", "ms", "lower"),
    ("batch.dispatch_ms.p50", "ms", "lower"),
    ("pool.created", "count", "lower"),
    ("pool.poisoned", "count", "lower"),
    # core.rle
    ("rle.block_cells_per_op", "count", "lower"),
    ("rle.cell_ratio", "ratio", "lower"),
    # failures, tracing, host
    ("fail_ratio", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
    ("host.loop_ms", "ms", "lower"),
)

UNITS = dict((name, unit) for name, unit, *_ in END_TO_END + PER_LAYER)


def p50(values: Sequence[float]) -> float:
    return percentile(values, 50) if values else 0.0


def emit(values: Dict[str, float], names: Iterable[str]) -> Dict[str, Dict]:
    """The ``metrics`` object: every name, with its unit, 0 when absent."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
        for name in names
    }


def e2e_names() -> List[str]:
    return [name for name, _, _ in END_TO_END]


def layer_names() -> List[str]:
    return [name for name, _, _ in PER_LAYER]


def _span(spans: Dict, suffix: str) -> float:
    """Seconds summed over every span path ending in ``suffix``."""
    return sum(
        s["seconds"] for path, s in spans.items()
        if path == suffix or path.endswith("/" + suffix)
    )


def trace_metrics(doc: Dict, ops: int) -> Dict[str, float]:
    """Per-layer metrics any ``repro.obs`` trace document yields.

    ``doc`` is ``RunTrace.to_dict()`` output (counters plus span
    aggregates, worker snapshots merged); ``ops`` the ops it covered.
    """
    c = doc.get("counters", {})
    spans = doc.get("spans", {})
    get = c.get
    candidates = get("lb.candidates", 0)
    pruned = sum(get(k, 0) for k in (
        "lb.pruned_kim", "lb.pruned_keogh", "lb.pruned_keogh_reversed",
        "lb.abandoned_dtw",
    ))
    cascade = _span(spans, "lb_cascade")
    cascade_dp = sum(
        s["seconds"] for path, s in spans.items()
        if "lb_cascade/" in path and path.endswith("/dp")
    )
    pairs, pad = get("chunk.pairs", 0), get("chunk.pad_rows", 0)
    return {
        "lb.prune_ratio": ratio(pruned, candidates),
        "lb.full_dtw_per_op": ratio(get("lb.full_dtw", 0), ops),
        "lb_cascade.self_ms_per_op": ratio(
            (cascade - cascade_dp) * 1000.0, ops),
        "index.lb_improved_prunes_per_op": ratio(
            get("index.lb_improved_prunes", 0), ops),
        "index.reused_exact_per_op": ratio(get("index.reused_exact", 0), ops),
        "dp.calls_per_op": ratio(get("dp.calls", 0), ops),
        "dp.cells_per_op": ratio(get("dp.cells", 0), ops),
        "dp.abandons_per_op": ratio(get("dp.abandons", 0), ops),
        "dp.ns_per_cell": ratio(_span(spans, "dp") * 1e9, get("dp.cells", 0)),
        "batch.pairs_per_op": ratio(get("batch.pairs", 0), ops),
        "sched.chunks_per_op": ratio(get("sched.chunks", 0), ops),
        "sched.steals": get("sched.steals", 0),
        "chunk.pad_ratio": ratio(pad, pairs + pad),
        "shm.bytes_per_op": ratio(get("shm.bytes", 0), ops),
        "shm.datasets_per_op": ratio(get("shm.datasets", 0), ops),
        "pool.created": get("pool.created", 0),
        "pool.poisoned": get("pool.poisoned", 0),
    }


def top_level_seconds(doc: Dict) -> float:
    """Seconds covered by the trace's outermost spans."""
    return sum(
        s["seconds"] for path, s in doc.get("spans", {}).items()
        if "/" not in path
    )


def overhead(traced_wall: float, untraced_wall: float) -> float:
    return ratio(traced_wall, untraced_wall) - 1.0 if untraced_wall else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
