"""All-pairs distance matrices under any of the package's measures.

Clustering (Fig. 7), the pairwise timing sweeps (Figs. 1 and 4) and
several examples all need the same thing: a symmetric distance matrix
over a set of series.  This module provides it once, parameterised by
measure name, with the package's cell accounting carried through.

Construction runs on the :mod:`repro.batch` engine under a
:class:`repro.runtime.Runtime` execution context: the default is the
exact in-process serial loop, while a parallel context fans the
``k * (k - 1) / 2`` independent pairs out over a process pool with
identical results -- same distances, same cell totals, same ordering
-- as enforced by the equivalence suite in ``tests/batch/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..runtime import Runtime
from .cost import CostLike
from .measures import MEASURES, validate_measure

__all__ = ["DistanceMatrix", "MEASURES", "distance_matrix"]


@dataclass(frozen=True)
class DistanceMatrix:
    """A symmetric all-pairs distance matrix with provenance.

    Attributes
    ----------
    values:
        Row-major ``k x k`` matrix, zero diagonal.
    measure:
        The measure name that produced it.
    cells:
        Total DP cells evaluated across all pairs (0 for Euclidean).
    """

    values: Tuple[Tuple[float, ...], ...]
    measure: str
    cells: int

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, ij: Tuple[int, int]) -> float:
        i, j = ij
        return self.values[i][j]

    def as_lists(self) -> List[List[float]]:
        """Mutable copy, e.g. for :func:`repro.cluster.linkage.linkage`."""
        return [list(row) for row in self.values]

    def nearest_to(self, i: int) -> int:
        """Index of the series nearest to series ``i`` (not itself).

        Ties break towards the smallest index, deterministically.
        """
        k = len(self.values)
        if k < 2:
            raise ValueError("need at least two series")
        others = [j for j in range(k) if j != i]
        return min(others, key=lambda j: self.values[i][j])


def distance_matrix(
    series: Sequence[Sequence[float]],
    measure: str = "cdtw",
    window: Optional[float] = None,
    band: Optional[int] = None,
    radius: int = 1,
    cost: CostLike = "squared",
    runtime: Optional[Runtime] = None,
) -> DistanceMatrix:
    """Compute the all-pairs matrix under one measure.

    Parameters
    ----------
    series:
        At least two series (equal lengths required only by
        ``"euclidean"``).
    measure:
        One of :data:`repro.core.measures.MEASURES`.
    window, band:
        cDTW constraint (exactly one, for ``measure="cdtw"``).
    radius:
        FastDTW radius (for the fastdtw measures).
    cost:
        Local cost name.
    runtime:
        The execution context -- kernel backend, worker count,
        executor -- per :mod:`repro.runtime` (``None``
        = the process default; built-in default is the in-process
        serial computation).  Results are identical for every
        context; only the wall-clock changes.

    Returns
    -------
    DistanceMatrix
    """
    rt = Runtime.resolve(runtime)
    validate_measure(measure)
    if len(series) < 2:
        raise ValueError("need at least two series")

    from ..batch.engine import batch_distances

    result = batch_distances(
        series,
        measure=measure,
        window=window,
        band=band,
        radius=radius,
        cost=cost,
        runtime=rt,
    )
    k = len(series)
    values = [[0.0] * k for _ in range(k)]
    for (i, j), d in zip(result.pairs, result.distances):
        values[i][j] = values[j][i] = d
    return DistanceMatrix(
        values=tuple(tuple(row) for row in values),
        measure=measure,
        cells=result.cells,
    )
