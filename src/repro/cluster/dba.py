"""DTW Barycenter Averaging (DBA): consensus series under warping.

The intro's task list includes *summarization*: representing a set of
series by one prototype.  The arithmetic mean smears time-shifted
features; DBA (Petitjean et al.) averages *under DTW alignment*
instead -- each iteration aligns every series to the current
barycenter with exact DTW and replaces each barycenter sample by the
mean of all samples aligned to it.  The result is the standard
centroid for DTW k-means and template construction.

Exact (c)DTW alignments are what make DBA work; with this package's
banded DTW each iteration over ``k`` series of length ``n`` costs
``O(k * n * band)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.cdtw import cdtw
from ..core.dtw import dtw
from ..core.validate import validate_series
from ..runtime import Runtime


@dataclass(frozen=True)
class DbaResult:
    """A DBA barycenter and its fit statistics.

    Attributes
    ----------
    barycenter:
        The consensus series.
    inertia:
        Sum of DTW distances from every input series to the
        barycenter (the quantity DBA descends).
    iterations:
        Update rounds performed (excluding the initialisation).
    converged:
        Whether the inertia improvement fell below the tolerance
        before the iteration cap.
    """

    barycenter: Tuple[float, ...]
    inertia: float
    iterations: int
    converged: bool


def dba(
    series: Sequence[Sequence[float]],
    max_iterations: int = 10,
    tolerance: float = 1e-6,
    band: Optional[int] = None,
    initial: Optional[Sequence[float]] = None,
    runtime: Optional[Runtime] = None,
) -> DbaResult:
    """Compute a DTW barycenter of equal-length series.

    Parameters
    ----------
    series:
        Non-empty collection of equal-length series.
    max_iterations:
        Cap on update rounds.
    tolerance:
        Stop once the inertia improves by less than this (absolute).
    band:
        Optional Sakoe-Chiba half-width for the alignments (``None``
        uses Full DTW, the classic DBA; a band both speeds it up and
        regularises the alignments).
    initial:
        Starting barycenter (defaults to the medoid-ish choice: the
        input series with the smallest summed Euclidean distance to
        the others, a cheap robust initialisation).
    runtime:
        Execution context for the per-iteration alignments and
        inertia evaluations, per :mod:`repro.runtime` (``None`` = the
        process default).  Every series aligns to the barycenter
        independently, so under a parallel context each round is one
        :mod:`repro.batch` job; distances *and recovered paths* are
        bit-identical on every backend and worker count, so the
        barycenter is too.  A runtime carrying a persistent executor
        re-ships the dataset each round (the barycenter moves), but
        the warm pool amortises across all rounds.

    Returns
    -------
    DbaResult
        The barycenter has the common input length; the inertia is
        non-increasing across iterations by construction.
    """
    rt = Runtime.resolve(runtime)
    if not series:
        raise ValueError("need at least one series")
    lists = [list(s) for s in series]
    for i, s in enumerate(lists):
        validate_series(s, f"series {i}")
    lengths = {len(s) for s in lists}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    n = lengths.pop()
    if max_iterations < 0:
        raise ValueError("max_iterations must be non-negative")

    if initial is not None:
        if len(initial) != n:
            raise ValueError("initial barycenter has wrong length")
        centre = [float(v) for v in initial]
    else:
        centre = list(lists[_euclidean_medoid(lists)])

    inertia = _inertia(centre, lists, band, rt)
    iterations = 0
    converged = False
    for _ in range(max_iterations):
        sums = [0.0] * n
        counts = [0] * n
        paths = _alignments(centre, lists, band, rt)
        for s, path in zip(lists, paths):
            for i, j in path:
                sums[i] += s[j]
                counts[i] += 1
        new_centre = [
            sums[i] / counts[i] if counts[i] else centre[i]
            for i in range(n)
        ]
        new_inertia = _inertia(new_centre, lists, band, rt)
        iterations += 1
        if new_inertia <= inertia:
            centre = new_centre
        improvement = inertia - new_inertia
        inertia = min(inertia, new_inertia)
        if improvement < tolerance:
            converged = True
            break
    return DbaResult(
        barycenter=tuple(centre),
        inertia=inertia,
        iterations=iterations,
        converged=converged,
    )


def _alignments(centre, lists, band, rt: Runtime):
    """One warping path per series, aligning each to ``centre``."""
    if rt.parallel:
        from ..batch.engine import batch_distances

        result = batch_distances(
            [centre] + lists,
            pairs=[(0, i + 1) for i in range(len(lists))],
            measure="dtw" if band is None else "cdtw",
            band=band,
            return_paths=True,
            runtime=rt,
        )
        return list(result.paths)
    # paths come from the pure engine on every backend
    if band is None:
        return [dtw(centre, s, return_path=True).path for s in lists]
    return [
        cdtw(centre, s, band=band, return_path=True).path for s in lists
    ]


def _inertia(centre, lists, band, rt: Runtime) -> float:
    if rt.parallel:
        from ..batch.engine import batch_distances

        result = batch_distances(
            [centre] + lists,
            pairs=[(0, i + 1) for i in range(len(lists))],
            measure="dtw" if band is None else "cdtw",
            band=band,
            runtime=rt,
        )
        return sum(result.distances)
    if rt.backend_name != "python":
        from ..core.measures import measure_fn

        fn = measure_fn(
            "dtw" if band is None else "cdtw", band=band,
            backend=rt.backend_name,
        )
        return sum(fn(centre, s).distance for s in lists)
    total = 0.0
    for s in lists:
        if band is None:
            total += dtw(centre, s).distance
        else:
            total += cdtw(centre, s, band=band).distance
    return total


def _euclidean_medoid(lists: List[List[float]]) -> int:
    """Index of the series minimising summed Euclidean distance."""
    if len(lists) == 1:
        return 0
    best_idx, best = 0, float("inf")
    for i, a in enumerate(lists):
        total = 0.0
        for b in lists:
            total += sum((x - y) ** 2 for x, y in zip(a, b))
        if total < best:
            best, best_idx = total, i
    return best_idx
