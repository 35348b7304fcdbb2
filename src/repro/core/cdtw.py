"""Constrained DTW (cDTW): the algorithm the paper recommends.

cDTW restricts the warping path to a Sakoe-Chiba band of half-width
``w`` around the lattice diagonal.  Following the paper (Section 2):

* ``w`` is stated as a *fraction of the series length* at this API
  (``window=0.1`` is the paper's "w = 10%"); pass ``band=`` for an
  absolute half-width in cells.
* ``cdtw(..., window=0)`` is the Euclidean distance;
  ``cdtw(..., window=1)`` is Full DTW.
* The band's true purpose is *accuracy* (it forbids pathological
  warpings); the O(n*w) speed is "a happy side effect".

Unequal-length series are supported via a slope-corrected band.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cost import CostLike
from .engine import DtwResult, dp_over_window
from .validate import validate_univariate_pair
from .window import Window


def cdtw(
    x: Sequence[float],
    y: Sequence[float],
    window: Optional[float] = None,
    band: Optional[int] = None,
    cost: CostLike = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> DtwResult:
    """Exact DTW constrained to a Sakoe-Chiba band.

    Exactly one of ``window`` (fraction of length, the paper's
    percentage convention) and ``band`` (absolute cells) must be given.

    Parameters
    ----------
    x, y:
        Non-empty 1-D series.
    window:
        Band half-width as a fraction of ``max(len(x), len(y))`` in
        ``[0, 1]``.  ``0`` degenerates to Euclidean, ``1`` to Full DTW.
    band:
        Band half-width in cells (``>= 0``).
    cost, return_path, abandon_above:
        As in :func:`repro.core.dtw.dtw`.

    Returns
    -------
    DtwResult

    Examples
    --------
    >>> x = [0.0, 1.0, 2.0, 1.0]
    >>> cdtw(x, x, window=0.0).distance
    0.0
    >>> cdtw([0, 0, 1], [0, 1, 1], band=1).distance
    0.0
    """
    if (window is None) == (band is None):
        raise ValueError("specify exactly one of window= or band=")
    validate_univariate_pair(x, y, "cdtw()")
    n, m = len(x), len(y)
    if window is not None:
        win = Window.from_fraction(n, m, window)
    else:
        win = Window.band(n, m, band)
    return dp_over_window(
        x, y, win, cost=cost, return_path=return_path,
        abandon_above=abandon_above,
    )


def band_cells(n: int, m: int, window: Optional[float] = None,
               band: Optional[int] = None) -> int:
    """Lattice cells a cDTW call with these parameters will evaluate.

    Useful for the benchmarks' analytic cost model without running the
    DP (``~ N * (2*w*N + 1)`` for equal lengths).
    """
    if (window is None) == (band is None):
        raise ValueError("specify exactly one of window= or band=")
    if window is not None:
        return Window.from_fraction(n, m, window).cell_count()
    return Window.band(n, m, band).cell_count()
