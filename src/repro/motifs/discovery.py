"""Top-motif discovery under banded DTW.

The *motif* of a stream is its most conserved structure: the pair of
non-overlapping length-``m`` windows with the smallest distance.  The
paper's Fig. 3 dishwasher pattern is exactly such a motif (the same
program recurring on different nights, warped by up to 34%).

The search is all-pairs with the package's lossless pruning: each
window's scan goes through the LB cascade against the global
best-so-far, so almost every pair is rejected by an O(1) or O(n)
bound rather than a DP.
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
class Motif:
    """The top motif pair and the work done finding it.

    Attributes
    ----------
    start_a, start_b:
        Offsets of the pair (``start_a < start_b``).
    distance:
        Their exact cDTW distance.
    windows:
        Candidate windows considered.
    distance_calls:
        Distance computations requested: cascade invocations under a
        serial runtime (naive: ``windows choose 2``), admissible
        pairs computed by the batch engine under a parallel one.
    """

    start_a: int
    start_b: int
    distance: float
    windows: int
    distance_calls: int


def find_motif(
    stream: Sequence[float],
    window: int,
    band: int,
    step: int = 1,
    exclusion: Optional[int] = None,
    normalize: bool = True,
    runtime: Optional[Runtime] = None,
    index=None,
) -> Motif:
    """Find the closest non-overlapping window pair under cDTW.

    Parameters mirror :func:`repro.anomaly.discord.find_discord`,
    including ``runtime``: a parallel execution context computes
    every admissible pair's exact distance as one :mod:`repro.batch`
    job and replays the identical earliest-pair selection, so the
    reported pair and distance are bit-identical to the serial
    cascade scan (whose pruning is lossless).  ``exclusion`` (default
    ``window``) keeps trivial self-matches of overlapping windows
    out.

    ``index`` accepts an ahead-of-time index of this stream's windows
    (as in :func:`repro.anomaly.discord.find_discord`): the all-pairs
    scan then reuses the stored windows and envelopes -- scan order,
    thresholds, cascade work and ``distance_calls`` unchanged, result
    bit-identical.

    Returns
    -------
    Motif
        The provably closest admissible pair (ties resolve to the
        earliest pair in scan order).
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
    # multivariate streams pair up under the dependent measure
    # (cdtw_d), per-channel z-normalised -- mirroring find_discord
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
    if k < 2 or starts[-1] - starts[0] < exclusion:
        raise ValueError("stream too short for two non-overlapping windows")

    best = inf
    best_pair = (-1, -1)
    calls = 0
    if rt.parallel and index is None:
        from ..batch.engine import batch_distances

        pairs = [
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if starts[j] - starts[i] >= exclusion
        ]
        if pairs:
            result = batch_distances(
                series, pairs=pairs, measure="cdtw_d" if nd else "cdtw",
                band=band, runtime=rt,
            )
            calls = len(pairs)
            # identical selection to the serial scan: pairs are
            # generated in scan order and the comparison is strict
            for (i, j), d in zip(pairs, result.distances):
                if d < best:
                    best = d
                    best_pair = (i, j)
    else:
        # the index serves stored envelopes; without one, every
        # window's envelope is built once and kept
        cascade = (
            index.searcher(runtime=rt) if index is not None
            else CascadeBatch(series, band, runtime=rt)
        )
        for i in range(k):
            with cascade.scan(series[i], query_index=i) as scan:
                for j in range(i + 1, k):
                    if starts[j] - starts[i] < exclusion:
                        continue
                    calls += 1
                    d = scan.distance(j, best)
                    if d < best:
                        best = d
                        best_pair = (i, j)
    if best_pair[0] < 0:
        raise ValueError("no admissible window pairs")
    return Motif(
        start_a=starts[best_pair[0]],
        start_b=starts[best_pair[1]],
        distance=best,
        windows=k,
        distance_calls=calls,
    )
