"""FastDTW (Salvador & Chan, 2007), re-implemented from the paper.

FastDTW approximates Full DTW in three recursive steps:

1. **Coarsen** -- halve both series (:func:`repro.core.paa.halve`);
2. **Solve** -- recursively find a warping path at the coarse
   resolution (base case: Full DTW once a series is short enough);
3. **Refine** -- project the coarse path up to the fine lattice, dilate
   it by the radius ``r`` in every direction
   (:meth:`repro.core.window.Window.expand_path`), and run exact DTW
   restricted to that window.

The radius trades accuracy for time: Salvador & Chan show each level
evaluates roughly ``N * (8r + 14)`` cells, linear in ``N``.  The paper
under reproduction demonstrates that in practice this "linear" cost
(with its recursion overhead and large constant) loses to banded cDTW's
``N * (2wN + 1)`` cells for every realistic ``N`` and ``w``.

:func:`fastdtw` returns the same :class:`DtwResult` as the exact
routines (the path is always computed; the recursion needs it), plus --
with ``keep_levels=True`` -- a per-level trace used by the Appendix A
"wrong-way warping" analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..obs import trace as _obs
from .cost import CostLike, cost_name
from .dtw import dtw
from .engine import DtwResult, dp_over_window
from .paa import halve
from .path import WarpingPath
from .validate import validate_univariate_pair
from .window import Window


@dataclass(frozen=True)
class FastDtwLevel:
    """Trace of one resolution level of a FastDTW run.

    Attributes
    ----------
    n, m:
        Series lengths at this level.
    window_cells:
        Cells the refinement DP evaluated at this level (for the base
        case, the full coarse lattice).
    path:
        The warping path found at this level.
    distance:
        The (approximate) distance found at this level.
    """

    n: int
    m: int
    window_cells: int
    path: WarpingPath
    distance: float


@dataclass(frozen=True)
class FastDtwResult:
    """Outcome of a FastDTW run.

    ``distance``/``path``/``cells`` mirror
    :class:`repro.core.engine.DtwResult`; ``cells`` sums the DP cells
    of *every* recursion level, which is the honest cost of the
    algorithm.  ``levels`` (coarsest first) is populated only when
    ``keep_levels=True`` was requested.
    """

    distance: float
    path: WarpingPath
    cells: int
    cost: str
    radius: int
    levels: Optional[Tuple[FastDtwLevel, ...]] = None
    abandoned: bool = False

    def root(self) -> float:
        """``sqrt(distance)``, matching :meth:`DtwResult.root`."""
        from math import sqrt

        return sqrt(self.distance)


def fastdtw(
    x: Sequence[float],
    y: Sequence[float],
    radius: int = 1,
    cost: CostLike = "squared",
    keep_levels: bool = False,
    abandon_above: Optional[float] = None,
) -> FastDtwResult:
    """Approximate DTW distance via Salvador & Chan's FastDTW.

    Parameters
    ----------
    x, y:
        Non-empty 1-D series.
    radius:
        The accuracy/speed knob ``r >= 0``: how many cells beyond the
        projected coarse path the refinement may explore.  Larger radii
        approximate Full DTW better but evaluate more cells; the
        recursion bottoms out with exact DTW once a series has at most
        ``radius + 2`` samples, exactly as in the reference code.
    cost:
        Local cost, as everywhere in :mod:`repro.core`.
    keep_levels:
        Record a :class:`FastDtwLevel` per recursion level (coarsest
        first) for post-hoc analysis.
    abandon_above:
        Early-abandon the final refinement DP (the one that produces
        the returned distance) once every cell of a row exceeds this
        threshold; coarser levels still run in full (their paths seed
        the refinement window).  An abandoned result has
        ``distance=inf``, no path and ``abandoned=True``.

    Returns
    -------
    FastDtwResult
        ``distance`` is an *upper bound* on (approximation of) the Full
        DTW distance; ``path`` is always present.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    validate_univariate_pair(x, y, "fastdtw()")
    trace: Optional[List[FastDtwLevel]] = [] if keep_levels else None
    _obs.incr("fastdtw.calls")
    with _obs.span("fastdtw"):
        result, total_cells = _fastdtw_rec(
            list(x), list(y), radius, cost, trace, abandon_above
        )
    return FastDtwResult(
        distance=result.distance,
        path=result.path,
        cells=total_cells,
        cost=cost_name(cost),
        radius=radius,
        levels=tuple(trace) if trace is not None else None,
        abandoned=result.abandoned,
    )


def _fastdtw_rec(
    x: List[float],
    y: List[float],
    radius: int,
    cost: CostLike,
    trace: Optional[List[FastDtwLevel]],
    abandon_above: Optional[float] = None,
) -> Tuple[DtwResult, int]:
    # ``abandon_above`` applies only to this level's final DP; the
    # recursive call omits it because the coarse path must be complete
    # to seed the refinement window
    n, m = len(x), len(y)
    min_size = radius + 2
    _obs.incr("fastdtw.levels")

    if n <= min_size or m <= min_size:
        base = dtw(
            x, y, cost=cost, return_path=True,
            abandon_above=abandon_above,
        )
        if trace is not None:
            trace.append(
                FastDtwLevel(n, m, base.cells, base.path, base.distance)
            )
        return base, base.cells

    with _obs.span("coarsen"):
        sx, sy = halve(x), halve(y)
    coarse, coarse_cells = _fastdtw_rec(sx, sy, radius, cost, trace)
    with _obs.span("window"):
        window = Window.expand_path(coarse.path, n, m, radius)
    refined = dp_over_window(
        x, y, window, cost=cost, return_path=True,
        abandon_above=abandon_above,
    )
    if trace is not None:
        trace.append(
            FastDtwLevel(n, m, refined.cells, refined.path, refined.distance)
        )
    return refined, coarse_cells + refined.cells


def fastdtw_cell_estimate(n: int, radius: int) -> int:
    """Salvador & Chan's analytic cell count ``N * (8r + 14)``.

    A rough model of the cells FastDTW touches across all levels for
    equal-length series of length ``n``; the benchmarks compare it to
    the exact measured count reported by :class:`FastDtwResult`.
    """
    if n < 1 or radius < 0:
        raise ValueError("need n >= 1 and radius >= 0")
    return n * (8 * radius + 14)
