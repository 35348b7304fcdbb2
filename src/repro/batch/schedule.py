"""Cost-model chunk planning for the batch engine and executor.

A pair-count split ("~4 chunks per worker") treats pairs as equally
priced, but they are not: one length-4000 cDTW pair costs as much DP
work as hundreds of length-200 pairs.  A fixed pair count per chunk
therefore leaves workers idle behind whichever chunk drew the long
series.  This model is the engine's only chunk plan.

This module prices each pair with the same cell models the rest of
the repository already trusts --
:func:`repro.core.cdtw.band_cells` for the exact measures (the
*exact* lattice size the DP will touch, corner clipping included) and
:func:`repro.timing.cells.fastdtw_cell_model` for the approximation
-- and packs pairs greedily into chunks of roughly equal predicted
cost.  Long-series pairs land in small chunks, cheap LB/Euclidean
pairs aggregate into big ones, and the chunk *order still flattens to
the input pair order*, so the engine's deterministic reassembly is
untouched.

For uniform workloads (equal lengths, one measure) the plan
degenerates to a pair-count split's shape: ~``OVERSUBSCRIBE`` chunks
per worker of equal pair count.  The two only diverge when costs do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.window import band_from_fraction

Pair = Tuple[int, int]

#: Target chunks per worker.  Several chunks per worker keep the
#: dynamic scheduler fed (a slow chunk cannot strand the pool), while
#: staying coarse enough to amortise per-chunk IPC.
OVERSUBSCRIBE = 4

def distance_pair_cost(
    lengths: Sequence[int],
    measure: str,
    window=None,
    band=None,
    radius: int = 1,
    run_counts: Optional[Sequence[int]] = None,
    dims: int = 1,
) -> Callable[[int, int], int]:
    """Per-pair cost function (predicted DP cells) for one spec.

    Delegates to :func:`repro.core.measures.pair_cost_model`, the
    registry beside the measure list itself: every measure has a
    declared price there (exact window geometry for ``dtw``/``cdtw``,
    Salvador & Chan's accounting for the fastdtw measures,
    ``k*m + l*n`` boundary cells for the rle measures via
    ``run_counts``, ``dims x`` the window geometry for the
    multivariate measures), and an unknown measure raises instead of
    silently falling back to a wrong model.

    Costs are memoized per shape, so planning a large batch over
    equal-length series prices one shape once.
    """
    from ..core.measures import pair_cost_model

    return pair_cost_model(
        measure, lengths, window=window, band=band, radius=radius,
        run_counts=run_counts, dims=dims,
    )


def lb_pair_cost(lengths: Sequence[int]) -> Callable[[int, int], int]:
    """Per-pair cost of an LB_Keogh evaluation: linear in the
    candidate length (the envelope is cached per series, so its
    amortised cost per pair rounds to zero)."""

    def cost(i: int, j: int) -> int:
        return max(1, lengths[j])

    return cost


def plan_chunks(
    pairs: Sequence[Pair],
    cost: Callable[[int, int], int],
    workers: int,
    oversubscribe: int = OVERSUBSCRIBE,
) -> List[List[Pair]]:
    """Pack pairs into contiguous chunks of ~equal predicted cost.

    The concatenation of the returned chunks is exactly ``pairs`` --
    scheduling never reorders work, only regroups it, so results
    reassemble by chunk index regardless of completion order.

    Guarantees: every chunk is non-empty; a single pair costing more
    than the target gets a chunk to itself; the chunk count is at
    least ``min(len(pairs), workers * oversubscribe)``-ish for
    uniform costs (matching the legacy heuristic's granularity).

    >>> plan_chunks([(0, 1), (0, 2), (1, 2)], lambda i, j: 10, workers=1,
    ...             oversubscribe=3)
    [[(0, 1)], [(0, 2)], [(1, 2)]]
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if oversubscribe < 1:
        raise ValueError("oversubscribe must be >= 1")
    if not pairs:
        return []
    costs = [cost(i, j) for i, j in pairs]
    total = sum(costs)
    # ceil-divide so the final partial chunk cannot push the count
    # past the target granularity
    target = max(1, -(-total // (workers * oversubscribe)))
    chunks: List[List[Pair]] = []
    current: List[Pair] = []
    acc = 0
    for pair, c in zip(pairs, costs):
        current.append(pair)
        acc += c
        if acc >= target:
            chunks.append(current)
            current, acc = [], 0
    if current:
        chunks.append(current)
    return chunks


@dataclass(frozen=True)
class ChunkGroup:
    """One shape-homogeneous slice of a chunk, ready for a stacked
    kernel call.

    Attributes
    ----------
    n, m:
        The shared series lengths of every pair in the group.
    band:
        The resolved Sakoe-Chiba half-width the spec implies for this
        shape (``None`` for an unconstrained window).  Part of the
        grouping key so that one group always maps to exactly one
        :class:`~repro.core.window.Window`.
    positions:
        For each pair, its index within the *original chunk* --
        results written back as ``out[positions[t]] = result[t]``
        reassemble the chunk's input order exactly, regardless of the
        order groups (or the chunks containing them) complete in.
    pairs:
        The ``(i, j)`` series-index pairs, in chunk order.
    """

    n: int
    m: int
    band: Optional[int]
    positions: Tuple[int, ...]
    pairs: Tuple[Pair, ...]

    def __len__(self) -> int:
        return len(self.pairs)


def chunk_band(
    measure: str,
    window: Optional[float] = None,
    band: Optional[int] = None,
) -> Callable[[int, int], Optional[int]]:
    """The resolved band half-width per pair shape, for grouping.

    Mirrors the geometry rules of the DP entry points exactly:
    ``dtw`` means no constraint (``None``), a fractional ``window``
    resolves to :func:`~repro.core.window.band_from_fraction` of
    ``max(n, m)`` (the :meth:`~repro.core.window.Window.from_fraction`
    convention), an
    absolute ``band`` is shape-independent.  Two pairs land in the
    same :class:`ChunkGroup` only when this function agrees on them,
    so every group shares one Window.
    """
    if measure in ("dtw", "dtw_d"):
        return lambda n, m: None
    if measure not in ("cdtw", "cdtw_d"):
        raise ValueError(
            f"no banded-window geometry for measure {measure!r}"
        )
    if (window is None) == (band is None):
        raise ValueError("specify exactly one of window= or band=")
    if window is not None:
        frac = window
        return lambda n, m: band_from_fraction(frac, max(n, m))
    return lambda n, m: band


def group_chunk(
    chunk: Sequence[Pair],
    lengths: Sequence[int],
    band_for: Optional[Callable[[int, int], Optional[int]]] = None,
) -> List[ChunkGroup]:
    """Split one chunk into shape-homogeneous groups for the stacked
    chunk kernels.

    Groups are keyed by ``(n, m, band)`` -- the exact attributes that
    determine a pair's Window -- in first-occurrence order, with pair
    order preserved inside each group.  The groups partition the
    chunk: every pair appears in exactly one group, and the recorded
    ``positions`` make reassembly deterministic under any completion
    order (the ``imap_unordered`` steal property the schedule tests
    pin down).

    ``band_for`` maps a pair shape to its resolved band (see
    :func:`chunk_band`); ``None`` groups purely by shape.
    """
    buckets: Dict[Tuple[int, int, Optional[int]], List[int]] = {}
    for t, (i, j) in enumerate(chunk):
        n, m = lengths[i], lengths[j]
        b = band_for(n, m) if band_for is not None else None
        buckets.setdefault((n, m, b), []).append(t)
    return [
        ChunkGroup(
            n=n, m=m, band=b,
            positions=tuple(ts),
            pairs=tuple(chunk[t] for t in ts),
        )
        for (n, m, b), ts in buckets.items()
    ]


def chunk_cost_summary(
    chunks: Sequence[Sequence[Pair]],
    cost: Callable[[int, int], int],
) -> Dict[str, float]:
    """Balance diagnostics for a plan (used by tests and the bench).

    Returns the per-chunk predicted costs' min/max/mean and the
    imbalance ratio ``max / mean`` (1.0 = perfectly level).
    """
    if not chunks:
        return {"chunks": 0, "min": 0, "max": 0, "mean": 0.0,
                "imbalance": 1.0}
    per_chunk = [
        sum(cost(i, j) for i, j in chunk) for chunk in chunks
    ]
    mean = sum(per_chunk) / len(per_chunk)
    return {
        "chunks": len(chunks),
        "min": min(per_chunk),
        "max": max(per_chunk),
        "mean": mean,
        "imbalance": (max(per_chunk) / mean) if mean else 1.0,
    }
