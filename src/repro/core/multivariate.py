"""Multivariate (n-dimensional) DTW, cDTW and FastDTW.

The paper's workloads are often intrinsically multivariate -- UWave
gestures are 3-axis accelerometry, the third-party Appendix B study
used 36 body-keypoint channels -- and Salvador & Chan define FastDTW
for n-dimensional series.  This module lifts the package's algorithms
to vector samples:

* a sample is a tuple/list of floats; all samples of a series share a
  dimensionality;
* the local cost is the *squared Euclidean distance between samples*
  (``"squared"``) or the L1 distance (``"abs"``), reducing exactly to
  the scalar definitions at dimension 1;
* the DP engine, windows and warping paths are reused unchanged --
  only the local cost and the coarsening (component-wise pair means)
  are dimension-aware.

Every scalar invariant carries over and is property-tested: cDTW is
monotone in the band, FastDTW upper-bounds full DTW and converges with
the radius, and dimension-1 vectors agree with the scalar API.
"""

from __future__ import annotations

import math
from math import inf
from typing import Callable, List, Optional, Sequence, Tuple

from .cost import CostFunction
from .engine import DtwResult, dp_over_window
from .fastdtw import FastDtwResult
from .validate import validate_series
from .window import Window

Vector = Tuple[float, ...]


def vector_squared_cost(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Euclidean distance between two samples.

    >>> vector_squared_cost((0.0, 0.0), (3.0, 4.0))
    25.0
    """
    total = 0.0
    for ai, bi in zip(a, b):
        d = ai - bi
        total += d * d
    return total


def vector_abs_cost(a: Sequence[float], b: Sequence[float]) -> float:
    """L1 (Manhattan) distance between two samples."""
    return sum(abs(ai - bi) for ai, bi in zip(a, b))


def _resolve_vector_cost(cost: object) -> CostFunction:
    if cost == "squared":
        return vector_squared_cost
    if cost == "abs":
        return vector_abs_cost
    if callable(cost):
        return cost
    raise ValueError(
        f"unknown multivariate cost {cost!r}; expected 'squared', 'abs' "
        "or a callable"
    )


def _as_vectors(x: Sequence[Sequence[float]], name: str) -> List[Vector]:
    if validate_series(x, name) is None:
        raise ValueError(
            f"{name}: got a flat scalar series; multivariate series "
            "must be shaped (length, dims) -- a sequence of equal-"
            "length sample vectors.  Wrap scalar samples as "
            "1-component vectors ([(v,) for v in x]) or use the "
            "scalar measures."
        )
    return [tuple(float(c) for c in v) for v in x]


def _check_same_dim(x: List[Vector], y: List[Vector]) -> None:
    if len(x[0]) != len(y[0]):
        raise ValueError(
            f"dimension mismatch: {len(x[0])} vs {len(y[0])}"
        )


def dtw_nd(
    x: Sequence[Sequence[float]],
    y: Sequence[Sequence[float]],
    cost: object = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> DtwResult:
    """Full DTW between two multivariate series.

    ``x`` and ``y`` are sequences of equal-dimension samples.  For
    1-dimensional samples this equals the scalar :func:`repro.core.dtw.dtw`.
    """
    vx, vy = _as_vectors(x, "series x"), _as_vectors(y, "series y")
    _check_same_dim(vx, vy)
    return dp_over_window(
        vx, vy, Window.full(len(vx), len(vy)),
        cost=_resolve_vector_cost(cost), return_path=return_path,
        abandon_above=abandon_above,
    )


def cdtw_nd(
    x: Sequence[Sequence[float]],
    y: Sequence[Sequence[float]],
    window: Optional[float] = None,
    band: Optional[int] = None,
    cost: object = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> DtwResult:
    """Banded DTW between multivariate series (see :func:`repro.core.cdtw.cdtw`)."""
    if (window is None) == (band is None):
        raise ValueError("specify exactly one of window= or band=")
    vx, vy = _as_vectors(x, "series x"), _as_vectors(y, "series y")
    _check_same_dim(vx, vy)
    n, m = len(vx), len(vy)
    win = (
        Window.from_fraction(n, m, window)
        if window is not None
        else Window.band(n, m, band)
    )
    return dp_over_window(
        vx, vy, win, cost=_resolve_vector_cost(cost),
        return_path=return_path, abandon_above=abandon_above,
    )


def split_channels(x: Sequence[Sequence[float]]) -> List[List[float]]:
    """The per-channel scalar series of a multivariate series.

    The inverse of :func:`interleave`:
    ``split_channels(interleave(a, b)) == [list(a), list(b)]``.

    >>> split_channels([(1.0, 10.0), (2.0, 20.0)])
    [[1.0, 2.0], [10.0, 20.0]]
    """
    vx = _as_vectors(x, "series")
    return _channels(vx)


def _channels(vx: List[Vector]) -> List[List[float]]:
    dims = len(vx[0])
    return [[v[k] for v in vx] for k in range(dims)]


def independent_nd(
    x: Sequence[Sequence[float]],
    y: Sequence[Sequence[float]],
    channel_fn: Callable[..., DtwResult],
    cost: object = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> DtwResult:
    """The independent-DTW (DTW_I) combinator: per-channel scalar DTWs
    summed in channel order.

    ``channel_fn(cx, cy, abandon_above)`` runs one scalar DTW (any
    backend) and returns a :class:`~repro.core.engine.DtwResult`.  The
    combination is a left fold from ``0.0`` in channel order, so for
    ``dims == 1`` the distance is bit-identical to the single scalar
    result, and two backends whose per-channel results agree bit-for-
    bit agree on the sum too.  ``cells`` is the sum of per-channel DP
    cells; the path (when requested) is a *tuple of per-channel
    paths*.  ``abandon_above`` threads the remaining budget to each
    channel (distances are non-negative, so a channel abandoning
    against ``threshold - sum_so_far`` proves the total exceeds the
    threshold -- the decision is lossless).
    """
    vx, vy = _as_vectors(x, "series x"), _as_vectors(y, "series y")
    _check_same_dim(vx, vy)
    name = cost if isinstance(cost, str) else getattr(
        cost, "__name__", "custom"
    )
    total = 0.0
    cells = 0
    paths: Optional[List[object]] = [] if return_path else None
    for cx, cy in zip(_channels(vx), _channels(vy)):
        remaining = (
            None if abandon_above is None else abandon_above - total
        )
        r = channel_fn(cx, cy, remaining)
        cells += r.cells
        if r.abandoned:
            return DtwResult(inf, None, cells, name, abandoned=True)
        total += r.distance
        if paths is not None:
            paths.append(r.path)
    return DtwResult(
        total, tuple(paths) if paths is not None else None, cells, name
    )


def dtw_i(
    x: Sequence[Sequence[float]],
    y: Sequence[Sequence[float]],
    cost: object = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> DtwResult:
    """Independent full DTW: the sum of per-channel scalar DTWs.

    ``cost`` is a *scalar* local cost (applied per channel), unlike
    :func:`dtw_nd`'s vector cost.  ``DTW_I(x, y) <= DTW_D(x, y)`` for
    the squared cost: the dependent DP's shared path is admissible for
    every channel, so each channel's free optimum can only be cheaper.
    """

    def channel(cx: List[float], cy: List[float], ab) -> DtwResult:
        return dp_over_window(
            cx, cy, Window.full(len(cx), len(cy)), cost=cost,
            return_path=return_path, abandon_above=ab,
        )

    return independent_nd(
        x, y, channel, cost=cost, return_path=return_path,
        abandon_above=abandon_above,
    )


def cdtw_i(
    x: Sequence[Sequence[float]],
    y: Sequence[Sequence[float]],
    window: Optional[float] = None,
    band: Optional[int] = None,
    cost: object = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> DtwResult:
    """Independent banded DTW: per-channel scalar cDTWs summed.

    Every channel uses the same Sakoe-Chiba band (exactly one of
    ``window``/``band``, as in :func:`repro.core.cdtw.cdtw`).
    """
    if (window is None) == (band is None):
        raise ValueError("specify exactly one of window= or band=")

    def channel(cx: List[float], cy: List[float], ab) -> DtwResult:
        n, m = len(cx), len(cy)
        win = (
            Window.from_fraction(n, m, window)
            if window is not None
            else Window.band(n, m, band)
        )
        return dp_over_window(
            cx, cy, win, cost=cost, return_path=return_path,
            abandon_above=ab,
        )

    return independent_nd(
        x, y, channel, cost=cost, return_path=return_path,
        abandon_above=abandon_above,
    )


def halve_nd(x: Sequence[Vector]) -> List[Vector]:
    """FastDTW's 2-to-1 reduction, component-wise.

    >>> halve_nd([(0.0, 4.0), (2.0, 0.0)])
    [(1.0, 2.0)]
    """
    if len(x) < 2:
        raise ValueError("cannot halve a series of fewer than 2 samples")
    return [
        tuple((a + b) / 2.0 for a, b in zip(x[i], x[i + 1]))
        for i in range(0, len(x) - len(x) % 2, 2)
    ]


def fastdtw_nd(
    x: Sequence[Sequence[float]],
    y: Sequence[Sequence[float]],
    radius: int = 1,
    cost: object = "squared",
    abandon_above: Optional[float] = None,
) -> FastDtwResult:
    """FastDTW between multivariate series.

    Same recursion as the scalar :func:`repro.core.fastdtw.fastdtw`
    with component-wise coarsening; returns the same result type and
    satisfies the same upper-bound/convergence contracts.

    ``abandon_above`` early-abandons the final refinement DP (the one
    that produces the returned distance) once every cell of a row
    exceeds the threshold; the coarser recursion levels still run in
    full, since their paths seed the refinement window.  An abandoned
    result has ``distance=inf`` and no path, exactly like the scalar
    engine's abandoned :class:`~repro.core.engine.DtwResult`.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    vx, vy = _as_vectors(x, "series x"), _as_vectors(y, "series y")
    _check_same_dim(vx, vy)
    cost_fn = _resolve_vector_cost(cost)
    result, cells = _fastdtw_nd_rec(
        vx, vy, radius, cost_fn, abandon_above
    )
    name = cost if isinstance(cost, str) else getattr(
        cost, "__name__", "custom"
    )
    return FastDtwResult(
        distance=result.distance,
        path=result.path,
        cells=cells,
        cost=name,
        radius=radius,
        abandoned=result.abandoned,
    )


def _fastdtw_nd_rec(x, y, radius, cost_fn, abandon_above=None):
    # ``abandon_above`` applies only at this level's final DP; the
    # recursive call below deliberately omits it (coarse paths must be
    # complete to seed the refinement window)
    n, m = len(x), len(y)
    min_size = radius + 2
    if n <= min_size or m <= min_size:
        base = dp_over_window(
            x, y, Window.full(n, m), cost=cost_fn, return_path=True,
            abandon_above=abandon_above,
        )
        return base, base.cells
    coarse, coarse_cells = _fastdtw_nd_rec(
        halve_nd(x), halve_nd(y), radius, cost_fn
    )
    window = Window.expand_path(coarse.path, n, m, radius)
    refined = dp_over_window(
        x, y, window, cost=cost_fn, return_path=True,
        abandon_above=abandon_above,
    )
    return refined, coarse_cells + refined.cells


def interleave(*channels: Sequence[float]) -> List[Vector]:
    """Zip per-axis channels into one multivariate series.

    The inverse of how archives like UWave store multi-axis data
    (separate X/Y/Z datasets); ``interleave(xs, ys, zs)`` yields
    3-vectors.

    >>> interleave([1.0, 2.0], [10.0, 20.0])
    [(1.0, 10.0), (2.0, 20.0)]
    """
    if not channels:
        raise ValueError("need at least one channel")
    lengths = {len(c) for c in channels}
    if len(lengths) != 1:
        raise ValueError(f"channel lengths differ: {sorted(lengths)}")
    return [tuple(float(c[i]) for c in channels)
            for i in range(len(channels[0]))]


def magnitude(series: Sequence[Vector]) -> List[float]:
    """Per-sample Euclidean norm -- the common n-D -> 1-D reduction.

    >>> magnitude([(3.0, 4.0)])
    [5.0]
    """
    return [math.sqrt(sum(c * c for c in v)) for v in series]
