"""The windowed dynamic-programming engine behind every DTW variant.

Full DTW, banded cDTW and FastDTW's refinement step are all the same
computation: a DP over some :class:`~repro.core.window.Window` of the
``n x m`` lattice with the recurrence

    D(i, j) = cost(x[i], y[j]) + min(D(i-1, j-1), D(i-1, j), D(i, j-1))

(the paper's Section 2 recurrence, with the standard three-way ``min``).
This module implements that DP once, in pure Python, with:

* per-row ``(lo, hi)`` ranges so only admitted cells are touched,
* one rolling row over absolute columns, updated in place (the
  diagonal carried in a local), so a cell costs a few list reads and
  writes and no per-row allocation,
* inlined ``squared`` / ``abs`` local costs, one inner loop per cost
  so nothing is dispatched per cell (callables also accepted),
* optional path recovery by backtracking over retained row slices,
* optional early abandoning against a threshold (used by
  :mod:`repro.search`), and
* an exact count of evaluated cells, the benchmarks' cost model.

The engine is deliberately *not* NumPy-vectorised: the paper's central
experiment requires cDTW and FastDTW "implemented in the same language,
running on the same hardware", and both call into this one function.
A NumPy cross-check lives in :mod:`repro.core.numpy_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt as _sqrt
from typing import List, Optional, Sequence, Tuple

from ..obs import trace as _obs
from .cost import CostLike, cost_name, resolve_cost
from .path import WarpingPath
from .window import Window


@dataclass(frozen=True)
class DtwResult:
    """Outcome of one DTW computation.

    Attributes
    ----------
    distance:
        Accumulated local cost along the optimal admitted path, or
        ``inf`` if the computation was abandoned early.
    path:
        The optimal path, when requested, else ``None``.
    cells:
        Number of lattice cells the DP evaluated -- the paper's
        hardware-independent cost measure.
    cost:
        Name of the local cost function used.
    abandoned:
        ``True`` if early abandoning cut the computation short (in
        which case ``distance`` is ``inf`` and only a lower bound on
        the true distance was established).
    """

    distance: float
    path: Optional[WarpingPath]
    cells: int
    cost: str
    abandoned: bool = False

    def root(self) -> float:
        """``sqrt(distance)`` -- the L2-style distance convention.

        Only meaningful for the ``squared`` local cost, under which
        ``cdtw(x, y, band=0).root()`` equals the Euclidean norm
        ``||x - y||``.
        """
        return _sqrt(self.distance)


def dp_over_window(
    x: Sequence[float],
    y: Sequence[float],
    window: Window,
    cost: CostLike = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
    suffix_bound: Optional[Sequence[float]] = None,
) -> DtwResult:
    """Run the DTW recurrence over ``window`` and return the result.

    Parameters
    ----------
    x, y:
        The two series; ``len(x) == window.n`` and
        ``len(y) == window.m`` are required.
    window:
        The admitted lattice region.
    cost:
        Local cost: ``"squared"`` (default), ``"abs"`` or a callable.
    return_path:
        If true, retain a copy of every DP row's range and backtrack
        the optimal path (memory O(cells) instead of one length-``m``
        row).
    abandon_above:
        If given, stop as soon as every cell of the current row exceeds
        this threshold; the result then has ``abandoned=True`` and
        ``distance=inf``.  Valid because costs are non-negative, so row
        minima are monotonically non-decreasing lower bounds on the
        final distance.
    suffix_bound:
        Optional length-``n`` array where ``suffix_bound[i]`` lower-
        bounds the cost any path must still accumulate in rows
        ``i+1 .. n-1`` (e.g. per-row LB_Keogh gap costs summed from the
        tail -- the UCR suite's cumulative-bound trick).  Combined with
        ``abandon_above``, abandoning happens as soon as
        ``min(row) + suffix_bound[i] > abandon_above``, typically much
        earlier than with the row minimum alone.  The caller is
        responsible for the bound's validity for the given window.

    Raises
    ------
    ValueError
        If series lengths disagree with the window, or a series is
        empty.
    """
    trace = _obs._ACTIVE
    if trace is None:
        return _dp_over_window(
            x, y, window, cost, return_path, abandon_above, suffix_bound
        )
    with _obs.span("dp"):
        result = _dp_over_window(
            x, y, window, cost, return_path, abandon_above, suffix_bound
        )
    _obs.record_dp(trace, result)
    return result


def _dp_over_window(
    x: Sequence[float],
    y: Sequence[float],
    window: Window,
    cost: CostLike,
    return_path: bool,
    abandon_above: Optional[float],
    suffix_bound: Optional[Sequence[float]],
) -> DtwResult:
    """The raw DP, free of observability hooks.

    :func:`dp_over_window` is a thin wrapper that adds the
    :mod:`repro.obs` counters and span when a trace is active; this
    function is also the baseline the trace-overhead guard
    (:mod:`repro.obs.bench`) times the wrapper against.

    One rolling row over absolute columns holds the DP: entering row
    ``i``, ``row[j]`` is ``D(i-1, j)`` inside the previous row's range
    and ``inf`` beyond its end (the window's ranges are monotone, so
    no earlier row wrote there).  The one stale cell a row can read is
    the one left of its range, whose previous-row value is the
    diagonal of the row's first cell: it is taken into a local and
    reset to ``inf``, so a next row starting at the same column sees
    no diagonal there.  Each cell takes the first smallest of
    ``(diagonal, vertical, horizontal)`` by strict ``<`` from ``inf``
    -- NaN neighbours never win, ties go to the earlier move -- which
    is the per-row-list loop this replaced, bit for bit.
    """
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        raise ValueError("cannot warp empty series")
    if (n, m) != (window.n, window.m):
        raise ValueError(
            f"window is {window.n}x{window.m} but series are {n}x{m}"
        )

    named = cost if isinstance(cost, str) else None
    local = resolve_cost(cost)

    ranges = window.ranges
    cells = 0
    rows: List[List[float]] = []  # retained only when return_path
    row = [inf] * m

    for i in range(n):
        lo, hi = ranges[i]
        cells += hi - lo + 1
        xi = x[i]
        if i == 0:
            # horizontal moves only, from D(0, 0) = local(x[0], y[0])
            acc = 0.0
            for j in range(hi + 1):
                acc = local(xi, y[j]) + acc
                row[j] = acc
        else:
            if lo:
                diag = row[lo - 1]
                row[lo - 1] = inf
            else:
                diag = inf
            left = inf
            # one loop per local cost: nothing is dispatched per cell
            if named == "squared":
                for j in range(lo, hi + 1):
                    up = row[j]
                    b = inf
                    if diag < b:
                        b = diag
                    if up < b:
                        b = up
                    if left < b:
                        b = left
                    d = xi - y[j]
                    left = d * d + b
                    row[j] = left
                    diag = up
            elif named == "abs":
                for j in range(lo, hi + 1):
                    up = row[j]
                    b = inf
                    if diag < b:
                        b = diag
                    if up < b:
                        b = up
                    if left < b:
                        b = left
                    left = abs(xi - y[j]) + b
                    row[j] = left
                    diag = up
            else:
                for j in range(lo, hi + 1):
                    c = local(xi, y[j])
                    up = row[j]
                    b = inf
                    if diag < b:
                        b = diag
                    if up < b:
                        b = up
                    if left < b:
                        b = left
                    left = c + b
                    row[j] = left
                    diag = up

        if abandon_above is not None:
            floor = min(row[lo:hi + 1])
            if suffix_bound is not None:
                floor += suffix_bound[i]
            if floor > abandon_above:
                return DtwResult(
                    inf, None, cells, cost_name(cost), abandoned=True
                )

        if return_path:
            rows.append(row[lo:hi + 1])

    path = _backtrack(rows, ranges) if return_path else None
    return DtwResult(row[m - 1], path, cells, cost_name(cost))


def _backtrack(
    rows: List[List[float]], ranges: Tuple[Tuple[int, int], ...]
) -> WarpingPath:
    """Recover the optimal path from retained DP rows.

    Ties are broken in favour of the diagonal move, which yields the
    shortest (and most intuitive) of the optimal paths.
    """
    n = len(rows)
    i = n - 1
    j = ranges[i][1]
    cells = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        else:
            plo, phi = ranges[i - 1]
            lo, _hi = ranges[i]
            diag = rows[i - 1][j - 1 - plo] if plo <= j - 1 <= phi else inf
            vert = rows[i - 1][j - plo] if plo <= j <= phi else inf
            horz = rows[i][j - 1 - lo] if j - 1 >= lo else inf
            best = min(diag, vert, horz)
            if best == inf:
                raise RuntimeError("backtracking escaped the window")
            if diag == best:
                i, j = i - 1, j - 1
            elif vert == best:
                i -= 1
            else:
                j -= 1
        cells.append((i, j))
    cells.reverse()
    return WarpingPath(cells)
