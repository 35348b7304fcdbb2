"""Agglomerative linkage from a distance matrix, from scratch.

Produces the same merge structure as ``scipy.cluster.hierarchy.linkage``
(against which the test-suite cross-checks): leaves are 0..k-1, each
merge creates node ``k + step``, and merges record the linkage distance
at which the two clusters joined.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import List, Optional, Sequence, Tuple

LINKAGES = ("single", "complete", "average")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step.

    ``left``/``right`` are node ids (leaf ids ``< k``, internal ids
    assigned in merge order starting at ``k``); ``distance`` is the
    linkage distance; ``size`` the resulting cluster's leaf count.
    """

    left: int
    right: int
    distance: float
    size: int


def linkage(
    matrix: Sequence[Sequence[float]],
    method: str = "average",
) -> List[Merge]:
    """Cluster ``k`` items from their symmetric distance matrix.

    Parameters
    ----------
    matrix:
        ``k x k`` symmetric matrix with a zero diagonal (validated).
    method:
        ``"single"`` (min), ``"complete"`` (max) or ``"average"``
        (unweighted mean, i.e. UPGMA).

    Returns
    -------
    list[Merge]
        ``k - 1`` merges in non-decreasing construction order.  Ties
        break towards the smallest node ids, making results
        deterministic.
    """
    if method not in LINKAGES:
        raise ValueError(f"unknown linkage {method!r}; pick from {LINKAGES}")
    k = len(matrix)
    if k < 2:
        raise ValueError("need at least two items to cluster")
    for i in range(k):
        if len(matrix[i]) != k:
            raise ValueError("distance matrix must be square")
        if abs(matrix[i][i]) > 1e-12:
            raise ValueError(f"diagonal entry ({i},{i}) must be zero")
        for j in range(i + 1, k):
            if abs(matrix[i][j] - matrix[j][i]) > 1e-9:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
            if matrix[i][j] < 0:
                raise ValueError(f"negative distance at ({i},{j})")

    # active clusters: node id -> (leaf count, row of distances keyed by id)
    dist = {
        i: {j: float(matrix[i][j]) for j in range(k) if j != i}
        for i in range(k)
    }
    sizes = {i: 1 for i in range(k)}
    merges: List[Merge] = []
    next_id = k

    while len(dist) > 1:
        best = (inf, -1, -1)
        for a in sorted(dist):
            row = dist[a]
            for b in sorted(row):
                if b > a and row[b] < best[0]:
                    best = (row[b], a, b)
        d, a, b = best
        new_size = sizes[a] + sizes[b]
        merges.append(Merge(a, b, d, new_size))

        new_row = {}
        for c in dist:
            if c in (a, b):
                continue
            dac, dbc = dist[a][c], dist[b][c]
            if method == "single":
                new_row[c] = min(dac, dbc)
            elif method == "complete":
                new_row[c] = max(dac, dbc)
            else:  # average (UPGMA)
                new_row[c] = (
                    sizes[a] * dac + sizes[b] * dbc
                ) / new_size
        del dist[a], dist[b]
        for c in list(dist):
            dist[c].pop(a, None)
            dist[c].pop(b, None)
            dist[c][next_id] = new_row[c]
        dist[next_id] = new_row
        sizes[next_id] = new_size
        next_id += 1
    return merges


def linkage_from_series(
    series: Sequence[Sequence[float]],
    measure: str = "cdtw",
    method: str = "average",
    window: Optional[float] = None,
    band: Optional[int] = None,
    radius: int = 1,
    cost: str = "squared",
    runtime=None,
) -> List[Merge]:
    """Cluster raw series: batched all-pairs matrix, then linkage.

    Convenience composition of
    :func:`repro.core.matrix.distance_matrix` (which fans the
    ``k * (k - 1) / 2`` pairwise computations out under the given
    :class:`repro.runtime.Runtime` -- ``None`` = the process default)
    and :func:`linkage`.  The merge structure is identical for any
    execution context -- worker count, executor, kernel backend --
    since the matrix is.
    """
    from ..core.matrix import distance_matrix

    matrix = distance_matrix(
        series, measure=measure, window=window, band=band,
        radius=radius, cost=cost, runtime=runtime,
    )
    return linkage(matrix.as_lists(), method=method)


def merge_order_signature(merges: Sequence[Merge]) -> Tuple[frozenset, ...]:
    """Order-insensitive signature of which leaf sets merged.

    Two dendrograms have the same topology iff their signatures match;
    used by the Fig. 7 experiment to show Full DTW and FastDTW_20 give
    *different* clusterings of the same three series.
    """
    k = len(merges) + 1
    members = {i: frozenset([i]) for i in range(k)}
    sig = []
    for step, m in enumerate(merges):
        merged = members[m.left] | members[m.right]
        members[k + step] = merged
        sig.append(merged)
    return tuple(sig)
