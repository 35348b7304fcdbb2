"""DTW k-means: partitional clustering with DBA centroids.

The intro's "clustering" task in its most common DTW form: Lloyd-style
iterations where assignment uses banded cDTW and the centroid update
is DTW Barycenter Averaging.  Every distance evaluated is exact; the
band both regularises alignments and keeps each iteration
O(k_clusters * n_series * N * band).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf
from typing import List, Optional, Sequence, Tuple

from ..core.cdtw import cdtw
from ..core.dtw import dtw
from ..core.validate import validate_series
from ..runtime import Runtime
from .dba import dba


@dataclass(frozen=True)
class KMeansResult:
    """Clustering outcome.

    Attributes
    ----------
    centroids:
        One barycenter per cluster.
    assignments:
        Cluster index per input series.
    inertia:
        Total DTW distance of every series to its centroid.
    iterations:
        Lloyd rounds performed.
    converged:
        Whether assignments stabilised before the iteration cap.
    """

    centroids: Tuple[Tuple[float, ...], ...]
    assignments: Tuple[int, ...]
    inertia: float
    iterations: int
    converged: bool


def dtw_kmeans(
    series: Sequence[Sequence[float]],
    k: int,
    band: Optional[int] = None,
    max_iterations: int = 10,
    dba_iterations: int = 3,
    seed: int = 0,
    runtime: Optional[Runtime] = None,
) -> KMeansResult:
    """Cluster equal-length series into ``k`` groups under DTW.

    Parameters
    ----------
    series:
        At least ``k`` equal-length series.
    k:
        Number of clusters.
    band:
        cDTW band for assignments and barycenters (``None`` = Full
        DTW).
    max_iterations:
        Lloyd iteration cap.
    dba_iterations:
        DBA rounds per centroid update.
    seed:
        Seeds the k-means++-style initial centroid choice.
    runtime:
        Execution context for every distance and alignment -- each
        Lloyd round's assignment batch, the DBA centroid updates and
        the inertia evaluation -- per :mod:`repro.runtime` (``None``
        = the process default).  Assignments, centroids and inertia
        are identical for every context: the DP results are
        bit-identical on every backend and the batched fan-out
        preserves the serial tie-breaks.  A runtime carrying a
        persistent executor shares one warm pool across the whole
        clustering run.

    Returns
    -------
    KMeansResult
        Deterministic for a given seed.
    """
    rt = Runtime.resolve(runtime)
    lists = [list(s) for s in series]
    for i, s in enumerate(lists):
        validate_series(s, f"series {i}")
    if k < 1:
        raise ValueError("k must be positive")
    if len(lists) < k:
        raise ValueError(f"need at least k={k} series, got {len(lists)}")
    if len({len(s) for s in lists}) != 1:
        raise ValueError("series must share one length")

    dist = _dist_fn(band, rt)

    centroids = _plus_plus_init(lists, k, dist, random.Random(seed))

    assignments: List[int] = [-1] * len(lists)
    iterations = 0
    converged = False
    for _ in range(max_iterations):
        new_assignments = _assign(lists, centroids, band, rt)
        iterations += 1
        if new_assignments == assignments:
            converged = True
            break
        assignments = new_assignments
        for c in range(k):
            members = [
                lists[i] for i, a in enumerate(assignments) if a == c
            ]
            if members:
                centroids[c] = list(
                    dba(members, max_iterations=dba_iterations,
                        band=band, runtime=rt).barycenter
                )
            # empty clusters keep their previous centroid

    inertia = _total_inertia(lists, centroids, assignments, band, rt)
    return KMeansResult(
        centroids=tuple(tuple(c) for c in centroids),
        assignments=tuple(assignments),
        inertia=inertia,
        iterations=iterations,
        converged=converged,
    )


def _dist_fn(band, rt: Runtime):
    """The pairwise distance the clustering uses, backend-dispatched."""
    if rt.backend_name != "python":
        from ..core.measures import measure_fn

        fn = measure_fn(
            "dtw" if band is None else "cdtw", band=band,
            backend=rt.backend_name,
        )
        return lambda a, b: fn(a, b).distance

    def dist(a, b) -> float:
        if band is None:
            return dtw(a, b).distance
        return cdtw(a, b, band=band).distance
    return dist


def _assign(lists, centroids, band, rt: Runtime) -> List[int]:
    """Nearest-centroid index per series (first centroid wins ties)."""
    if rt.parallel:
        from ..batch.engine import argmin_first, batch_distances

        k = len(centroids)
        result = batch_distances(
            list(centroids) + lists,
            pairs=[
                (c, k + i)
                for i in range(len(lists))
                for c in range(k)
            ],
            measure="dtw" if band is None else "cdtw",
            band=band,
            runtime=rt,
        )
        return [
            argmin_first(result.distances[i * k:(i + 1) * k])[0]
            for i in range(len(lists))
        ]
    dist = _dist_fn(band, rt)
    assignments = []
    for s in lists:
        best, best_c = inf, 0
        for c, centre in enumerate(centroids):
            d = dist(centre, s)
            if d < best:
                best, best_c = d, c
        assignments.append(best_c)
    return assignments


def _total_inertia(lists, centroids, assignments, band, rt: Runtime) -> float:
    """Sum of each series' distance to its assigned centroid."""
    if rt.parallel:
        from ..batch.engine import batch_distances

        k = len(centroids)
        result = batch_distances(
            list(centroids) + lists,
            pairs=[(assignments[i], k + i) for i in range(len(lists))],
            measure="dtw" if band is None else "cdtw",
            band=band,
            runtime=rt,
        )
        return sum(result.distances)
    dist = _dist_fn(band, rt)
    return sum(
        dist(centroids[assignments[i]], s) for i, s in enumerate(lists)
    )


def _plus_plus_init(lists, k, dist, rng) -> List[List[float]]:
    """k-means++ seeding: spread initial centroids apart."""
    centroids = [list(lists[rng.randrange(len(lists))])]
    while len(centroids) < k:
        weights = []
        for s in lists:
            weights.append(min(dist(c, s) for c in centroids))
        total = sum(weights)
        if total <= 0:  # all identical: arbitrary distinct picks
            centroids.append(list(lists[len(centroids) % len(lists)]))
            continue
        r = rng.uniform(0, total)
        acc = 0.0
        for s, w in zip(lists, weights):
            acc += w
            if acc >= r:
                centroids.append(list(s))
                break
    return centroids
