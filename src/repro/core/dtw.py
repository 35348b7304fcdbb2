"""Full (unconstrained) Dynamic Time Warping.

Full DTW -- ``cDTW_100`` in the paper's notation -- explores the whole
``n x m`` lattice and therefore costs O(n*m) time.  The paper's Case D
experiment (Fig. 6) pits this against FastDTW; everywhere else the
constrained :func:`repro.core.cdtw.cdtw` is the right tool.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cost import CostLike
from .engine import DtwResult, dp_over_window
from .validate import validate_univariate_pair
from .window import Window


def dtw(
    x: Sequence[float],
    y: Sequence[float],
    cost: CostLike = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> DtwResult:
    """Exact, unconstrained DTW distance between ``x`` and ``y``.

    Parameters
    ----------
    x, y:
        Non-empty 1-D series (any float sequence).
    cost:
        Local cost function: ``"squared"`` (default), ``"abs"`` or a
        callable ``f(a, b) -> float``.
    return_path:
        Also recover the optimal warping path.
    abandon_above:
        Optional early-abandoning threshold (see
        :func:`repro.core.engine.dp_over_window`).

    Returns
    -------
    DtwResult
        With ``distance`` equal to the minimum accumulated local cost
        over all valid warping paths.

    Examples
    --------
    >>> dtw([0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0]).distance
    0.0
    """
    validate_univariate_pair(x, y, "dtw()")
    window = Window.full(len(x), len(y))
    return dp_over_window(
        x, y, window, cost=cost, return_path=return_path,
        abandon_above=abandon_above,
    )


def windowed_dtw(
    x: Sequence[float],
    y: Sequence[float],
    window: Window,
    cost: CostLike = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> DtwResult:
    """Exact DTW restricted to an arbitrary :class:`Window`.

    This is the primitive FastDTW's refinement step uses: the window is
    the coarse path projected up one level and dilated by the radius.
    The returned distance is the minimum over paths *inside the
    window*, which upper-bounds the unconstrained distance.
    """
    return dp_over_window(
        x, y, window, cost=cost, return_path=return_path,
        abandon_above=abandon_above,
    )
