"""Leave-one-out cross-validation and brute-force best-window search.

The UCR archive's per-dataset "optimal w" (the paper's proxy for the
natural warping amount ``W``, Fig. 2a) is found by running 1-NN
leave-one-out cross-validation on the train split for every candidate
window 0%..100% and keeping the window with the lowest error -- Dau et
al. computed cDTW 61 trillion times doing this.  These functions are
that procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..runtime import Runtime
from .knn import DistanceSpec, OneNearestNeighbor


def loocv_error(
    series: Sequence[Sequence[float]],
    labels: Sequence[object],
    spec: DistanceSpec,
    runtime: Optional[Runtime] = None,
    index=None,
) -> float:
    """Leave-one-out 1-NN error of ``spec`` on a labelled dataset.

    Each series is classified against all the others; the returned
    value is the fraction misclassified.  A parallel ``runtime``
    fans each leave-one-out scan out over the :mod:`repro.batch`
    engine (the error is identical for any execution context); a
    runtime carrying a persistent executor runs those scans on a warm
    pool -- LOOCV issues one scan per series over the same dataset,
    the textbook repeated-use shape, so a shared executor amortises
    pool startup and dataset shipping across all of them.

    ``index`` accepts an ahead-of-time index of ``series`` (see
    :class:`~repro.classify.knn.OneNearestNeighbor`); LOOCV is the
    index's best case -- every scan hits the same collection, each
    query reuses its own stored envelope, and the shared
    exact-distance cache feeds later queries' thresholds.  The error
    is identical with or without it.
    """
    rt = Runtime.resolve(runtime)
    if len(series) != len(labels):
        raise ValueError("series and labels must have equal length")
    if len(series) < 2:
        raise ValueError("need at least two series for LOOCV")
    clf = OneNearestNeighbor(spec, runtime=rt, index=index).fit(series, labels)
    wrong = 0
    for i, (s, lab) in enumerate(zip(series, labels)):
        if clf.predict_one(s, exclude=i) != lab:
            wrong += 1
    return wrong / len(series)


@dataclass(frozen=True)
class WindowSearchResult:
    """Outcome of a best-window search.

    ``errors`` maps each candidate window fraction to its LOOCV error,
    in the order searched; ``best_window`` is the smallest window
    achieving the minimum error (ties break towards less warping, the
    archive's convention).
    """

    best_window: float
    best_error: float
    errors: Tuple[Tuple[float, float], ...]


def best_window_search(
    series: Sequence[Sequence[float]],
    labels: Sequence[object],
    windows: Sequence[float] = tuple(w / 100 for w in range(0, 21)),
    use_lower_bounds: bool = True,
    runtime: Optional[Runtime] = None,
) -> WindowSearchResult:
    """Brute-force the LOOCV-optimal cDTW window.

    Parameters
    ----------
    series, labels:
        The labelled training set.
    windows:
        Candidate window fractions (default 0%..20% in 1% steps, the
        range Fig. 2a shows almost all optima fall in).
    use_lower_bounds:
        Accelerate each LOOCV with the lossless LB cascade (the
        cascade is sequential, so it ignores the runtime's workers).
    runtime:
        Execution context shared by every window's LOOCV, per
        :mod:`repro.runtime` (``None`` = the process default).  A
        runtime carrying a persistent executor ships the dataset once
        for the whole search; parallelism is ignored when
        ``use_lower_bounds`` forces the serial cascade.

    Returns
    -------
    WindowSearchResult
    """
    rt = Runtime.resolve(runtime)
    if not windows:
        raise ValueError("no candidate windows")
    errors: List[Tuple[float, float]] = []
    best_w, best_e = None, None
    for w in windows:
        spec = DistanceSpec(
            "cdtw", window=w, use_lower_bounds=use_lower_bounds
        )
        e = loocv_error(series, labels, spec, runtime=rt)
        errors.append((w, e))
        if best_e is None or e < best_e or (e == best_e and w < best_w):
            best_w, best_e = w, e
    return WindowSearchResult(best_w, best_e, tuple(errors))
