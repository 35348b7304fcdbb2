"""Discord discovery: the most anomalous subsequence of a stream.

The classic definition (Keogh et al.): among all length-``m`` windows
of a stream, the *discord* is the one whose nearest neighbour -- over
windows that do not overlap it -- is farthest away under the chosen
distance (here banded cDTW on z-normalised windows).

The brute-force search is O(windows^2) distance calls; two standard
exact optimisations keep it tractable:

* **inner early abandoning** -- each candidate's nearest-neighbour
  scan goes through the lossless LB cascade with the candidate's
  current nearest as the threshold;
* **outer early abandoning** -- once a candidate's running nearest
  drops below the best discord score so far, the candidate provably
  cannot be the discord and its scan stops.

Both are threshold tricks of exactly the kind the paper's Section 3.4
notes are unavailable to FastDTW.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import List, Optional, Sequence

from ..core.validate import validate_series
from ..lowerbounds.cascade import CascadeBatch
from ..preprocess.normalize import znorm, znorm_nd
from ..preprocess.sliding import sliding_windows
from ..runtime import Runtime


@dataclass(frozen=True)
class Discord:
    """The discord and the work done finding it.

    Attributes
    ----------
    start:
        Offset of the discord window in the stream.
    score:
        Its nearest-non-overlapping-neighbour distance.
    neighbor_start:
        Offset of that nearest neighbour.
    windows:
        Number of candidate windows considered.
    distance_calls:
        Distance computations requested.  Under a serial runtime:
        cascade invocations before its own pruning (naive count
        ``windows * (windows - 1)``).  Under a parallel runtime: the
        admissible *unordered* pairs actually computed -- cDTW is
        symmetric, so each pair is evaluated once and mirrored.
    """

    start: int
    score: float
    neighbor_start: int
    windows: int
    distance_calls: int


def find_discord(
    stream: Sequence[float],
    window: int,
    band: int,
    step: int = 1,
    exclusion: Optional[int] = None,
    normalize: bool = True,
    runtime: Optional[Runtime] = None,
    index=None,
) -> Discord:
    """Find the top discord of ``stream`` under banded cDTW.

    Parameters
    ----------
    stream:
        The series to scan; must contain at least two non-overlapping
        windows.
    window:
        Subsequence length ``m``.
    band:
        cDTW band half-width in cells.
    step:
        Stride between candidate window starts.
    exclusion:
        Overlap radius: neighbours with ``|start_a - start_b| <
        exclusion`` are ignored (default: ``window``, i.e. no overlap).
    normalize:
        Z-normalise windows (the meaningful setting).
    runtime:
        Execution context, per :mod:`repro.runtime` (``None`` = the
        process default).  The serial context runs the
        doubly-abandoning scan above; a parallel one computes every
        admissible pair's exact distance as one :mod:`repro.batch`
        job and replays the identical selection.  Both abandonings
        are lossless (they only discard provable losers), so
        ``start``, ``score`` and ``neighbor_start`` are bit-identical
        in every context; only the ``distance_calls`` provenance
        differs (see :class:`Discord`).
    index:
        Optional ahead-of-time index of this stream's windows (built
        by ``repro.index`` with the same ``window``/``band``/
        ``step``/``normalize``; fingerprint-verified).  The scan then
        serves the stored z-normalised windows and every envelope --
        the candidate's *and* each neighbour's -- from the index.
        Scan order, thresholds, cascade work and ``distance_calls``
        are unchanged, so the result is
        bit-identical to the serial index-free scan.  The indexed
        path is sequential; a parallel runtime contributes only its
        backend.

    Returns
    -------
    Discord
        The window with the provably largest nearest-neighbour
        distance (ties resolve to the earliest offset).
    """
    rt = Runtime.resolve(runtime)
    if window < 2:
        raise ValueError("window must be at least 2")
    if step < 1:
        raise ValueError("step must be positive")
    exclusion = window if exclusion is None else exclusion
    if exclusion < 1:
        raise ValueError("exclusion must be positive")
    validate_series(stream, "stream")
    # multivariate streams scan under the dependent measure (cdtw_d
    # semantics: one DP over vector samples), windows z-normalised
    # per channel
    nd = bool(stream) and hasattr(stream[0], "__len__")

    if index is not None:
        index.require(
            kind="windows", band=band, window=window, step=step,
            normalize=normalize,
            dims=len(stream[0]) if nd else 1,
        )
        index.verify_stream(stream)
        starts = list(index.starts)
        series = [list(s) for s in index.candidate_series()]
    else:
        starts = []
        series = []
        for start, w in sliding_windows(stream, window, step):
            starts.append(start)
            if nd:
                vw = [tuple(float(c) for c in v) for v in w]
                series.append(znorm_nd(vw) if normalize else vw)
            else:
                series.append(znorm(w) if normalize else w)
    k = len(series)
    if k < 2:
        raise ValueError("stream too short for two windows")
    if starts[-1] - starts[0] < exclusion:
        raise ValueError(
            "exclusion zone leaves every window without candidates"
        )

    best_score = -inf
    best_idx = -1
    best_neighbor = -1
    calls = 0

    if rt.parallel and index is None:
        dist, calls = _pairwise_distances(series, starts, exclusion,
                                          band, rt)
        for i in range(k):
            nn = inf
            nn_idx = -1
            for j in range(k):
                if abs(starts[i] - starts[j]) < exclusion:
                    continue
                d = dist[(i, j) if i < j else (j, i)]
                if d < nn:
                    nn, nn_idx = d, j
            if nn_idx >= 0 and nn > best_score:
                best_score = nn
                best_idx = i
                best_neighbor = nn_idx
    else:
        # the index serves stored envelopes; without one, every
        # window's envelope is built once and kept
        cascade = (
            index.searcher(runtime=rt) if index is not None
            else CascadeBatch(series, band, runtime=rt)
        )
        for i in range(k):
            nn = inf
            nn_idx = -1
            with cascade.scan(series[i], query_index=i) as scan:
                for j in range(k):
                    if abs(starts[i] - starts[j]) < exclusion:
                        continue
                    calls += 1
                    d = scan.distance(j, nn)
                    if d < nn:
                        nn, nn_idx = d, j
                    if nn < best_score:
                        # outer early abandoning: this candidate's
                        # neighbour is already closer than the best
                        # discord's -- it can only get closer, so it
                        # cannot win
                        break
                else:
                    if nn_idx >= 0 and nn > best_score:
                        best_score = nn
                        best_idx = i
                        best_neighbor = nn_idx

    if best_idx < 0:
        raise ValueError("no discord found (no valid neighbour pairs)")
    return Discord(
        start=starts[best_idx],
        score=best_score,
        neighbor_start=starts[best_neighbor],
        windows=k,
        distance_calls=calls,
    )


def _pairwise_distances(series, starts, exclusion, band, rt):
    """Exact cDTW for every admissible unordered window pair, batched.

    cDTW with a symmetric local cost is symmetric under argument
    transposition (the DP recurrence transposes exactly; the vector
    squared cost of ``cdtw_d`` is just as symmetric), so each
    unordered pair is computed once and serves both scan directions.
    """
    from ..batch.engine import batch_distances

    k = len(series)
    nd = bool(series[0]) and hasattr(series[0][0], "__len__")
    pairs = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if abs(starts[i] - starts[j]) >= exclusion
    ]
    if not pairs:
        return {}, 0
    result = batch_distances(
        series, pairs=pairs, measure="cdtw_d" if nd else "cdtw",
        band=band, runtime=rt,
    )
    return dict(zip(pairs, result.distances)), len(pairs)
