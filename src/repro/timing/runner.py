"""Experiment runners: parameter sweeps over pairwise comparisons.

The paper's Figs. 1 and 4 share one experimental shape: fix a dataset,
sweep a parameter (``w`` for cDTW, ``r`` for FastDTW), and for each
setting report the cumulative time of all pairwise comparisons.  At
laptop scale we time a sample of pairs per setting and extrapolate to
the full pair count (valid: comparisons are independent and identically
sized; the full-scale pair counts are recorded in each experiment's
``PAPER_SCALE`` config).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

DistanceFn = Callable[[Sequence[float], Sequence[float]], object]

#: The only kernel backend the paper-reproduction timing harness will
#: run.  The paper's claim is "same language, same hardware": FastDTW
#: and cDTW must both be timed on the pure-Python engine, so this
#: harness refuses the vectorised backends outright instead of
#: consulting the :mod:`repro.core.kernels` process default.
PINNED_BACKEND = "python"


@dataclass(frozen=True)
class SweepPoint:
    """One parameter setting of a sweep.

    Attributes
    ----------
    algorithm:
        ``"cDTW"`` or ``"FastDTW"`` (or any label the caller chose).
    param:
        The swept parameter value (window fraction or radius).
    per_pair_seconds:
        Mean wall-clock seconds per comparison at this setting.
    per_pair_cells:
        Mean DP cells per comparison (0 if the result lacks ``cells``).
    pairs_measured:
        Number of comparisons actually timed.
    """

    algorithm: str
    param: float
    per_pair_seconds: float
    per_pair_cells: float
    pairs_measured: int

    def total_seconds(self, pair_count: int) -> float:
        """Extrapolated total for ``pair_count`` comparisons."""
        return self.per_pair_seconds * pair_count


@dataclass(frozen=True)
class PairwiseResult:
    """Measured cost of all-pairs comparisons at one setting."""

    pairs: int
    seconds: float
    cells: int

    @property
    def per_pair_seconds(self) -> float:
        return self.seconds / self.pairs if self.pairs else 0.0


def pairwise_experiment(
    series: Sequence[Sequence[float]],
    fn: DistanceFn,
    max_pairs: int = 0,
) -> PairwiseResult:
    """Time ``fn`` over (a sample of) all unordered pairs of ``series``.

    Parameters
    ----------
    series:
        At least two series.
    fn:
        Distance callable; if its result has a ``cells`` attribute it
        is accumulated.
    max_pairs:
        Cap on pairs to time (0 = all ``k*(k-1)/2``).  Pairs are taken
        in deterministic lexicographic order.
    """
    if len(series) < 2:
        raise ValueError("need at least two series")
    pairs = itertools.combinations(range(len(series)), 2)
    if max_pairs:
        pairs = itertools.islice(pairs, max_pairs)
    count = 0
    cells = 0
    start = time.perf_counter()
    for i, j in pairs:
        result = fn(series[i], series[j])
        cells += getattr(result, "cells", 0)
        count += 1
    seconds = time.perf_counter() - start
    return PairwiseResult(pairs=count, seconds=seconds, cells=cells)


@dataclass(frozen=True)
class BatchTimingResult:
    """Measured cost of one batched all-pairs run.

    Unlike :class:`PairwiseResult` (which times one serial distance
    call after another), this times a whole :mod:`repro.batch` job --
    including pool start-up and result marshalling -- so serial and
    parallel wall-clocks are comparable end to end.  ``cells`` is the
    engine's merged DP-cell provenance, which is identical for any
    worker count.
    """

    pairs: int
    seconds: float
    cells: int
    workers: int

    @property
    def per_pair_seconds(self) -> float:
        return self.seconds / self.pairs if self.pairs else 0.0

    def speedup_over(self, other: "BatchTimingResult") -> float:
        """How many times faster this run was than ``other``."""
        if self.seconds == 0:
            return float("inf")
        return other.seconds / self.seconds


def batch_pairwise_experiment(
    series: Sequence[Sequence[float]],
    measure: str = "cdtw",
    window: Optional[float] = None,
    band: Optional[int] = None,
    radius: int = 1,
    cost: str = "squared",
    workers: int = 1,
    max_pairs: int = 0,
    backend: str = PINNED_BACKEND,
) -> BatchTimingResult:
    """Time all-pairs comparisons as one batch-engine job.

    Parameters mirror :func:`repro.core.matrix.distance_matrix`;
    ``max_pairs`` caps the pair count (0 = all, lexicographic order).
    The distances and cell totals are ``workers``-invariant, so runs
    with different worker counts measure the same computation.

    ``backend`` exists only so the pin is explicit at the call site:
    anything other than :data:`PINNED_BACKEND` raises.  Time the
    vectorised backends outside the paper harness, e.g. with
    :func:`repro.batch.batch_distances` under an explicit
    :class:`~repro.runtime.Runtime`.
    """
    from ..batch.engine import all_pairs, batch_distances

    if backend != PINNED_BACKEND:
        raise ValueError(
            f"the paper timing harness is pinned to backend="
            f"{PINNED_BACKEND!r} ('same language, same hardware'); "
            f"got {backend!r} -- time other backends outside the "
            "paper harness (repro.batch.batch_distances under a Runtime)"
        )
    if len(series) < 2:
        raise ValueError("need at least two series")
    pairs = all_pairs(len(series))
    if max_pairs:
        pairs = pairs[:max_pairs]
    from ..runtime import Runtime

    start = time.perf_counter()
    # an explicit Runtime is a complete statement of the execution
    # context: it ignores the process default and environment seeding,
    # so nothing outside this call site can unpin the backend
    result = batch_distances(
        series, pairs=pairs, measure=measure, window=window, band=band,
        radius=radius, cost=cost,
        runtime=Runtime(workers=workers, backend=PINNED_BACKEND),
    )
    seconds = time.perf_counter() - start
    return BatchTimingResult(
        pairs=len(result),
        seconds=seconds,
        cells=result.cells,
        workers=workers,
    )


def sweep(
    series: Sequence[Sequence[float]],
    algorithm: str,
    params: Sequence[float],
    make_fn: Callable[[float], DistanceFn],
    max_pairs: int = 0,
) -> List[SweepPoint]:
    """Run :func:`pairwise_experiment` across parameter settings.

    ``make_fn(param)`` builds the distance callable for each setting.
    Returns one :class:`SweepPoint` per parameter, in order.
    """
    if not params:
        raise ValueError("no parameters to sweep")
    points: List[SweepPoint] = []
    for p in params:
        res = pairwise_experiment(series, make_fn(p), max_pairs=max_pairs)
        points.append(
            SweepPoint(
                algorithm=algorithm,
                param=p,
                per_pair_seconds=res.per_pair_seconds,
                per_pair_cells=res.cells / res.pairs if res.pairs else 0.0,
                pairs_measured=res.pairs,
            )
        )
    return points


def find_crossover(
    params: Sequence[float],
    series_a: Sequence[float],
    series_b: Sequence[float],
) -> Tuple[float, float]:
    """First param where ``series_b``'s value drops below ``series_a``'s.

    Generic helper for crossover experiments (e.g. Fig. 6: the first
    ``L`` where FastDTW becomes faster than Full DTW).  ``series_a``
    and ``series_b`` are per-param measurements aligned with
    ``params``.  Returns ``(param, ratio_b_over_a)``; raises
    ``ValueError`` if no crossover occurs.
    """
    if not (len(params) == len(series_a) == len(series_b)):
        raise ValueError("params and measurements must align")
    for p, a, b in zip(params, series_a, series_b):
        if b < a:
            return p, (b / a if a else float("inf"))
    raise ValueError("no crossover within the swept range")
