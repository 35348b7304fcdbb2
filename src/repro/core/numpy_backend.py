"""NumPy-vectorised stacked DTW and lower-bound kernels.

The paper's head-to-head timings intentionally use the pure-Python
engine for *both* algorithms ("implemented in the same language,
running on the same hardware") -- :mod:`repro.timing` is pinned to it.
Everything *around* the head-to-head, however, is a repeated-use
workload (classification, clustering, similarity search), and there
the ROADMAP's goal is "as fast as the hardware allows".  This module
is the NumPy side of the :mod:`repro.core.kernels` registry: stacked
DP kernels that compute many pair distances per call, plus batched
envelope/LB kernels for pruning cascades.

There is no per-pair DP here.  A DP that returns a path or may
abandon runs :func:`repro.core.engine.dp_over_window` on every
backend; a plain per-pair distance is a one-pair :func:`dtw_chunk` /
:func:`dtw_nd_chunk` call (see :func:`repro.core.kernels.stacked_kernels`).

Parity is *bit-level*, not approximate: every distance a stacked
kernel returns equals the pure engine's, down to the last ulp.  The
test-suite (``tests/core/test_numpy_parity.py``,
``tests/core/test_chunk_kernels.py``) fuzzes that contract.

How the DP is vectorised while staying bit-identical
----------------------------------------------------

The DP's cell values are *evaluation-order independent*: each equals
``local + min(three predecessor values)``, where the predecessors'
final values do not depend on the order cells were filled in.  Any
schedule that finishes a cell's predecessors first therefore produces
bitwise the same lattice (IEEE-754 ``+`` is commutative and ``min`` is
a true minimum, so the combining arithmetic is operand-identical).
The kernels sweep **anti-diagonal wavefronts** (``i + j = d``): all
three predecessors of a wavefront-``d`` cell sit on wavefronts
``d-1``/``d-2``, so each step is a handful of whole-front NumPy ops
with no intra-step dependency at all.  Feasible windows make each
wavefront a contiguous row interval, so fronts are plain slices.
A whole stack of equal-shape pairs advances through each wavefront
together, which amortises the per-step NumPy dispatch over the stack.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .cost import BUILTIN_COSTS, CostLike
from .window import Window

__all__ = [
    "dtw_chunk",
    "dtw_nd_chunk",
    "envelope_nd_chunk",
    "lb_keogh_nd_chunk",
    "pairwise_matrix_numpy",
    "envelope_numpy",
    "envelope_chunk",
    "lb_keogh_chunk",
    "lb_kim_batch",
]

_INF = np.inf

#: Pairs per internal block of the batched DP (bounds the local-cost
#: tensor to ~48 MB of float64 regardless of batch size).
_BLOCK_BUDGET_CELLS = 6_000_000


def _require_named_cost(cost: CostLike) -> str:
    """The cost name, or a pointed error for callables.

    The NumPy kernels inline the built-in costs into array expressions;
    arbitrary Python callables cannot be vectorised without silently
    falling back to scalar speed, so they are rejected here -- use
    ``backend="python"`` for custom costs.
    """
    if isinstance(cost, str) and cost in BUILTIN_COSTS:
        return cost
    raise ValueError(
        f"the numpy backend supports the named costs {BUILTIN_COSTS}; "
        f"got {cost!r} (use backend='python' for callable costs)"
    )


def _as_series(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D series")
    if not np.isfinite(arr).all():
        i = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"series {name}: sample {i} is not finite ({arr[i]!r})")
    return arr


def _antidiag_layout(window: Window):
    """Wavefront geometry of a window: for each anti-diagonal
    ``d = i + j``, the (contiguous, by feasibility) row interval
    ``[istart[d], iend[d]]`` of admitted cells, plus gather indices
    ``I``/``J`` mapping ``(d, k)`` to lattice coordinates
    ``(istart[d] + k, d - i)`` (junk columns clamped to the interval's
    last real cell)."""
    n, m = window.n, window.m
    lo = np.fromiter((r[0] for r in window.ranges), dtype=np.int64, count=n)
    hi = np.fromiter((r[1] for r in window.ranges), dtype=np.int64, count=n)
    rows = np.arange(n, dtype=np.int64)
    d = np.arange(n + m - 1, dtype=np.int64)
    # row i covers anti-diagonals [i + lo_i, i + hi_i]; both bounds are
    # non-decreasing in i, so membership intervals come from bisection
    istart = np.searchsorted(hi + rows, d, side="left")
    iend = np.searchsorted(lo + rows, d, side="right") - 1
    wdmax = int((iend - istart).max()) + 1
    I = istart[:, None] + np.arange(wdmax, dtype=np.int64)[None, :]
    np.minimum(I, iend[:, None], out=I)
    J = d[:, None] - I
    return istart, iend, I, J


def _dtw_antidiag(X: np.ndarray, Y: np.ndarray, window: Window,
                  named: str) -> np.ndarray:
    """Distances for a ``(p, n) x (p, m)`` pair stack by wavefront
    sweep; bit-identical to the pure engine (see the module docstring
    for the evaluation-order argument)."""
    p = X.shape[0]
    n, m = window.n, window.m
    istart, iend, I, J = _antidiag_layout(window)
    out = np.empty(p, dtype=np.float64)
    block = max(1, _BLOCK_BUDGET_CELLS // I.size)
    for start in range(0, p, block):
        sl = slice(start, min(start + block, p))
        out[sl] = _antidiag_block(X[sl], Y[sl], n, m, istart, iend, I, J,
                                  named)
    return out


def _antidiag_block(X, Y, n, m, istart, iend, I, J, named) -> np.ndarray:
    # skewed local costs: LS[t, d, k] is the cost of cell
    # (istart[d] + k, d - i) for pair t
    LS = X[:, I] - Y[:, J]
    if named == "squared":
        np.multiply(LS, LS, out=LS)
    else:
        np.abs(LS, out=LS)
    return _antidiag_sweep(LS, n, m, istart, iend)


def _antidiag_sweep(LS, n, m, istart, iend) -> np.ndarray:
    p = LS.shape[0]
    starts = istart.tolist()
    ends = iend.tolist()
    # three rotating wavefront buffers over absolute row indices with a
    # guard slot: buffer index i+1 holds the cell in row i; slots
    # outside a front's interval stay inf.
    b2 = np.full((p, n + 1), _INF)   # front d-2
    b1 = np.full((p, n + 1), _INF)   # front d-1
    b0 = np.full((p, n + 1), _INF)   # front d (reuses the d-3 buffer)
    b1[:, 1] = LS[:, 0, 0]           # cell (0, 0): local cost + 0
    written = [0, 0, 0]              # written interval starts per buffer
    minimum = np.minimum
    for d in range(1, n + m - 1):
        s = starts[d]
        e1 = ends[d] + 1
        old = written[0]
        if old < s:  # clear the margin the d-3 front exposes
            b0[:, old + 1:s + 1] = _INF
        written[0] = written[1]
        written[1] = written[2]
        written[2] = s
        cur = b0[:, s + 1:e1 + 1]
        # vertical (i-1, j) and horizontal (i, j-1) live on front d-1
        # at row offsets i-1 and i; diagonal (i-1, j-1) on front d-2
        minimum(b1[:, s:e1], b1[:, s + 1:e1 + 1], out=cur)
        minimum(cur, b2[:, s:e1], out=cur)
        cur += LS[:, d, :e1 - s]
        b2, b1, b0 = b1, b0, b2
    return b1[:, n].copy()


def _chunk_rows(shape0: int, count: Optional[int]) -> int:
    """Resolve the ``count=`` padding contract: the number of real
    rows in a possibly padded chunk stack.

    ``None`` means every row is real.  ``count`` beyond the stack (or
    negative) is an error -- padding can only *add* rows, never invent
    them.
    """
    if count is None:
        return shape0
    if not 0 <= count <= shape0:
        raise ValueError(
            f"count={count} outside the chunk's 0..{shape0} rows"
        )
    return count


def dtw_chunk(
    xs,
    ys,
    window: Window,
    cost: CostLike = "squared",
    count: Optional[int] = None,
) -> np.ndarray:
    """Windowed DTW distances for one shape-homogeneous chunk.

    Pairs arrive stacked as ``(chunk, n)`` / ``(chunk, m)`` arrays
    (the batch engine's schedule groups pairs by ``(n, m, band)`` and
    pads each group into reusable scratch stacks; a single per-pair
    distance is a one-row stack), and the anti-diagonal wavefront
    advances every pair of the chunk together.

    Parameters
    ----------
    xs, ys:
        Stacked pairs; row ``t`` is the pair ``(xs[t], ys[t])``.
    window:
        The admitted region, shared by every pair in the chunk.
    cost:
        Built-in cost name.
    count:
        Number of *real* leading rows.  Rows at index ``count`` and
        beyond are padding and are **never read** -- they may hold
        NaN/inf garbage without affecting any result (the property
        suite poisons them on purpose).  ``None`` means all rows are
        real.

    Returns
    -------
    numpy.ndarray
        ``(count,)`` distances; entry ``t`` is bit-identical to
        ``dp_over_window(xs[t], ys[t], window, cost=cost).distance``.
        Each real pair evaluates ``window.cell_count()`` lattice
        cells.

    Raises
    ------
    ValueError
        On shape/window mismatch, a callable cost, an out-of-range
        ``count``, a window excluding the mandatory ``(0, 0)`` start,
        or a non-finite sample in a *real* row (padding is exempt).
    """
    named = _require_named_cost(cost)
    X = np.ascontiguousarray(xs, dtype=np.float64)
    Y = np.ascontiguousarray(ys, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("xs and ys must be 2-D with matching pair counts")
    rows = _chunk_rows(X.shape[0], count)
    # slice the real rows *before* any arithmetic or checks: padding
    # must be unable to affect results, warnings or validation
    X, Y = X[:rows], Y[:rows]
    n, m = X.shape[1], Y.shape[1]
    if (n, m) != (window.n, window.m):
        raise ValueError(
            f"window is {window.n}x{window.m} but series are {n}x{m}"
        )
    if window.ranges[0][0] != 0:
        raise ValueError(
            f"window row 0 starts at column {window.ranges[0][0]}, "
            "excluding the mandatory path start (0, 0)"
        )
    if rows == 0:
        return np.empty(0, dtype=np.float64)
    for name, A in (("xs", X), ("ys", Y)):
        if not np.isfinite(A).all():
            t, i = np.argwhere(~np.isfinite(A))[0]
            raise ValueError(
                f"chunk {name} row {t}: sample {i} is not finite "
                f"({A[t, i]!r})"
            )
    return _dtw_antidiag(X, Y, window, named)


def pairwise_matrix_numpy(
    series: Sequence[Sequence[float]],
    window: Optional[float] = None,
    band: Optional[int] = None,
    cost: CostLike = "squared",
):
    """Symmetric all-pairs DTW distance matrix via the batched kernel.

    Follows the package-wide configuration conventions (the same ones
    :func:`repro.core.matrix.distance_matrix` uses): ``window`` is the
    paper's *fractional* band, ``band`` an absolute half-width in
    cells, at most one of the two (neither means Full DTW), and
    ``cost`` a built-in cost name.

    Returns
    -------
    repro.core.matrix.DistanceMatrix
        With ``measure`` set to ``"cdtw"`` (constrained) or ``"dtw"``
        (unconstrained) and ``cells`` carrying the exact total DP-cell
        count, like every other matrix producer.
    """
    from .matrix import DistanceMatrix

    named = _require_named_cost(cost)
    if window is not None and band is not None:
        raise ValueError("pass either window= or band=, not both")
    k = len(series)
    if k < 2:
        raise ValueError("need at least two series")
    arrs = [_as_series(s, f"series[{i}]") for i, s in enumerate(series)]
    n = len(arrs[0])
    if any(len(a) != n for a in arrs):
        raise ValueError(
            "pairwise_matrix_numpy requires equal-length series "
            "(use distance_matrix for ragged sets)"
        )

    if window is not None:
        win = Window.from_fraction(n, n, window)
    elif band is not None:
        win = Window.band(n, n, band)
    else:
        win = Window.full(n, n)

    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    values = [[0.0] * k for _ in range(k)]
    if pairs:
        xs = np.stack([arrs[i] for i, _ in pairs])
        ys = np.stack([arrs[j] for _, j in pairs])
        dists = dtw_chunk(xs, ys, win, cost=named)
        for (i, j), d in zip(pairs, dists):
            values[i][j] = values[j][i] = float(d)
    measure = "dtw" if (window is None and band is None) else "cdtw"
    return DistanceMatrix(
        values=tuple(tuple(row) for row in values),
        measure=measure,
        cells=win.cell_count() * len(pairs),
    )


# -- envelopes and lower bounds ------------------------------------------


def _sliding_extreme(a: np.ndarray, band: int, ufunc, pad: float) -> np.ndarray:
    """Exact sliding min/max with half-width ``band`` along the last
    axis, via the van Herk/Gil-Werman two-pass prefix/suffix trick:
    O(n) for any band, fully vectorised."""
    if band == 0:
        return a.copy()
    w = 2 * band + 1
    padded = np.concatenate(
        [np.full(a.shape[:-1] + (band,), pad), a,
         np.full(a.shape[:-1] + (band,), pad)], axis=-1,
    )
    length = padded.shape[-1]
    nblocks = -(-length // w)
    total = nblocks * w
    if total > length:
        padded = np.concatenate(
            [padded, np.full(a.shape[:-1] + (total - length,), pad)],
            axis=-1,
        )
    blocks = padded.reshape(a.shape[:-1] + (nblocks, w))
    prefix = ufunc.accumulate(blocks, axis=-1)
    suffix = ufunc.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1]
    prefix = prefix.reshape(a.shape[:-1] + (total,))
    suffix = suffix.reshape(a.shape[:-1] + (total,))
    count = a.shape[-1]
    return ufunc(suffix[..., :count], prefix[..., w - 1:w - 1 + count])


def envelope_numpy(x, band: int):
    """Vectorised warping envelope, value-identical to
    :func:`repro.lowerbounds.envelope.envelope`."""
    from ..lowerbounds.envelope import Envelope

    if band < 0:
        raise ValueError("band must be non-negative")
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("cannot compute envelope of an empty series")
    upper = _sliding_extreme(arr, band, np.maximum, -_INF)
    lower = _sliding_extreme(arr, band, np.minimum, _INF)
    return Envelope(band, upper.tolist(), lower.tolist())


def envelope_chunk(
    series,
    band: int,
    count: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lemire warping envelopes for a stacked chunk of series.

    Two sliding-extreme passes over the whole ``(chunk, n)`` stack at
    once; row ``t`` of the output is value-identical to
    :func:`repro.lowerbounds.envelope.envelope` of ``series[t]``.

    Parameters
    ----------
    series:
        ``(chunk, n)`` stack (a single 1-D series is promoted to one
        row).
    band:
        Envelope half-width in samples.
    count:
        Real leading rows, as in :func:`dtw_chunk`; pad rows are never
        read.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``(upper, lower)`` stacks of shape ``(count, n)``.
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    arr = np.ascontiguousarray(series, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("series must stack as a non-empty 2-D chunk")
    rows = _chunk_rows(arr.shape[0], count)
    arr = arr[:rows]
    upper = _sliding_extreme(arr, band, np.maximum, -_INF)
    lower = _sliding_extreme(arr, band, np.minimum, _INF)
    return upper, lower


def lb_keogh_chunk(
    upper,
    lower,
    candidates,
    squared: bool = True,
    abandon_above: Optional[float] = None,
    count: Optional[int] = None,
) -> np.ndarray:
    """LB_Keogh over a stacked chunk, bit-identical to the scalar sum.

    Each row's gap costs accumulate with ``np.cumsum`` -- a strictly
    sequential left-to-right fold (a pairwise ``sum`` would
    reassociate the additions), so every bound equals
    :func:`repro.lowerbounds.lb_keogh.lb_keogh` bit for bit, and the
    ``abandon_above`` decision is identical too: gap costs are
    non-negative, so the running total exceeds the threshold at some
    prefix iff the full total does.

    Parameters
    ----------
    upper, lower:
        Query envelope(s): 1-D ``(n,)`` arrays shared by every
        candidate, or ``(chunk, n)`` stacks with one envelope per row
        (e.g. from :func:`envelope_chunk`).
    candidates:
        ``(chunk, n)`` candidate stack (1-D promotes to one row).
    squared:
        Squared (default) or absolute per-point gap cost.
    abandon_above:
        Bounds exceeding this report ``inf``, exactly as the scalar
        early-abandon does.
    count:
        Real leading rows, as in :func:`dtw_chunk`; pad rows (of the
        candidates *and* of stacked envelopes) are never read.

    Returns
    -------
    numpy.ndarray
        ``(count,)`` bounds.
    """
    C = np.ascontiguousarray(candidates, dtype=np.float64)
    if C.ndim == 1:
        C = C[None, :]
    rows = _chunk_rows(C.shape[0], count)
    C = C[:rows]
    up = np.asarray(upper, dtype=np.float64)
    lo = np.asarray(lower, dtype=np.float64)
    if up.shape != lo.shape:
        raise ValueError("upper and lower envelopes must match in shape")
    if up.ndim == 2:
        up, lo = up[:rows], lo[:rows]
    elif up.ndim != 1:
        raise ValueError("envelopes must be 1-D or a 2-D stack")
    if up.shape[-1] != C.shape[1]:
        raise ValueError(
            f"candidate length {C.shape[1]} != envelope length "
            f"{up.shape[-1]}"
        )
    if rows == 0:
        return np.empty(0, dtype=np.float64)
    gaps = _gap_costs(C, lo, up, squared)
    # cumsum adds strictly left to right; its last column is the
    # scalar loop's total, operand for operand
    totals = np.cumsum(gaps, axis=1)[:, -1]
    if abandon_above is not None:
        totals[totals > abandon_above] = _INF
    return totals


def lb_improved_chunk(
    upper,
    lower,
    candidates,
    query,
    band: int,
    squared: bool = True,
    keogh=None,
    abandon_above: Optional[float] = None,
    count: Optional[int] = None,
) -> np.ndarray:
    """LB_Improved over a stacked chunk, bit-identical to the scalar.

    Lemire's two-pass bound
    (:func:`repro.lowerbounds.lb_improved.lb_improved`): the first
    pass is LB_Keogh of each candidate against the query envelope;
    the second clips each candidate into that envelope (``np.clip``
    is a pure selection, matching the scalar projection bit for bit),
    builds the clipped rows' envelopes with one
    :func:`envelope_chunk` call, and charges the query's gaps to
    them.  Both passes accumulate with ``np.cumsum`` -- a strict
    left-to-right fold -- and the passes combine with a single
    addition, exactly as the scalar does, so values *and* abandon
    decisions are bit-identical.

    Parameters
    ----------
    upper, lower:
        Query envelope(s), band-``band``: 1-D ``(n,)`` arrays shared
        by every candidate, or ``(chunk, n)`` per-row stacks.
    candidates:
        ``(chunk, n)`` candidate stack (1-D promotes to one row).
    query:
        The query series, ``(n,)``.
    band:
        Sakoe-Chiba half-width; the second pass's envelopes use it.
    squared:
        Squared (default) or absolute per-point gap cost.
    keogh:
        Optional precomputed *full* first-pass bounds aligned with the
        candidate rows (e.g. the cascade's forward-Keogh stage
        values); computed here when ``None``.
    abandon_above:
        Bounds exceeding this report ``inf``, exactly as the scalar
        early-abandon does.
    count:
        Real leading rows, as in :func:`dtw_chunk`; pad rows are never
        read.

    Returns
    -------
    numpy.ndarray
        ``(count,)`` bounds.
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    C = np.ascontiguousarray(candidates, dtype=np.float64)
    if C.ndim == 1:
        C = C[None, :]
    rows = _chunk_rows(C.shape[0], count)
    C = C[:rows]
    q = np.ascontiguousarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != C.shape[1]:
        raise ValueError("query and candidates must share their length")
    up = np.asarray(upper, dtype=np.float64)
    lo = np.asarray(lower, dtype=np.float64)
    if up.shape != lo.shape:
        raise ValueError("upper and lower envelopes must match in shape")
    if up.ndim == 2:
        up, lo = up[:rows], lo[:rows]
    elif up.ndim != 1:
        raise ValueError("envelopes must be 1-D or a 2-D stack")
    if up.shape[-1] != C.shape[1]:
        raise ValueError(
            f"candidate length {C.shape[1]} != envelope length "
            f"{up.shape[-1]}"
        )
    if rows == 0:
        return np.empty(0, dtype=np.float64)

    if keogh is None:
        first = np.cumsum(_gap_costs(C, lo, up, squared), axis=1)[:, -1]
    else:
        first = np.ascontiguousarray(keogh, dtype=np.float64)[:rows]
        if first.shape != (rows,):
            raise ValueError(
                "keogh must supply one full first-pass bound per row"
            )

    # projection onto the query envelope: min(max(c, lower), upper) is
    # the scalar clip's selection, operand for operand
    H = np.clip(C, lo, up)
    env_upper, env_lower = envelope_chunk(H, band)
    second = np.cumsum(
        _gap_costs(q[None, :], env_lower, env_upper, squared), axis=1
    )[:, -1]
    totals = first + second
    if abandon_above is not None:
        totals[totals > abandon_above] = _INF
    return totals


def _gap_costs(values: np.ndarray, lower: np.ndarray, upper: np.ndarray,
               squared: bool) -> np.ndarray:
    gaps = np.maximum(values - upper, 0.0) + np.maximum(lower - values, 0.0)
    if squared:
        np.multiply(gaps, gaps, out=gaps)
    return gaps


def lb_kim_batch(
    x,
    candidates,
    cost: CostLike = "squared",
    tiers: int = 2,
) -> np.ndarray:
    """Batched :func:`repro.lowerbounds.lb_kim.lb_kim` against one
    query ``x`` (equal lengths, named costs)."""
    named = _require_named_cost(cost)
    if tiers not in (1, 2):
        raise ValueError("tiers must be 1 or 2")
    q = np.ascontiguousarray(x, dtype=np.float64)
    C = np.ascontiguousarray(candidates, dtype=np.float64)
    if C.ndim == 1:
        C = C[None, :]
    n = q.shape[0]
    if n == 0:
        raise ValueError("cannot bound empty series")
    if C.shape[1] != n:
        raise ValueError("lb_kim requires equal-length series")

    def d(a, b):
        diff = a - b
        return diff * diff if named == "squared" else np.abs(diff)

    if n == 1:
        return d(q[0], C[:, 0])
    bound = d(q[0], C[:, 0]) + d(q[-1], C[:, -1])
    if tiers == 2 and n >= 4:
        bound += np.minimum(
            np.minimum(d(q[1], C[:, 0]), d(q[0], C[:, 1])),
            d(q[1], C[:, 1]),
        )
        bound += np.minimum(
            np.minimum(d(q[-2], C[:, -1]), d(q[-1], C[:, -2])),
            d(q[-2], C[:, -2]),
        )
    return bound


# -- multivariate (nd) kernels -------------------------------------------
#
# A multivariate series is shaped ``(length, dims)``.  The dependent
# DP's local cost is the per-sample squared-Euclidean (or L1) distance,
# accumulated **per channel in channel order** -- a strict left fold
# from 0.0, exactly like :func:`repro.core.multivariate.vector_squared_cost`
# -- so every lattice value (and hence every distance) is
# bit-identical to the pure engine.  A
# ``np.sum(..., axis=-1)`` over channels would NOT be: NumPy's pairwise
# reduction reassociates the additions.


def _as_series_nd(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(
            f"{name} must be a non-empty multivariate series shaped "
            "(length, dims)"
        )
    if not np.isfinite(arr).all():
        i, k = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(
            f"series {name}: sample {i} component {k} is not finite "
            f"({arr[i, k]!r})"
        )
    return arr


def _antidiag_block_nd(X, Y, n, m, istart, iend, I, J, named) -> np.ndarray:
    # per-channel sequential accumulation of the skewed local costs;
    # the wavefront sweep itself is channel-agnostic
    p = X.shape[0]
    LS = np.zeros((p,) + I.shape, dtype=np.float64)
    for k in range(X.shape[2]):
        D = X[:, :, k][:, I] - Y[:, :, k][:, J]
        if named == "squared":
            np.multiply(D, D, out=D)
        else:
            np.abs(D, out=D)
        LS += D
    return _antidiag_sweep(LS, n, m, istart, iend)


def _dtw_antidiag_nd(X: np.ndarray, Y: np.ndarray, window: Window,
                     named: str) -> np.ndarray:
    """Distances for a ``(p, n, dims) x (p, m, dims)`` pair stack by
    wavefront sweep, bit-identical to the pure engine with the vector
    cost."""
    p, dims = X.shape[0], X.shape[2]
    n, m = window.n, window.m
    istart, iend, I, J = _antidiag_layout(window)
    out = np.empty(p, dtype=np.float64)
    block = max(1, _BLOCK_BUDGET_CELLS // (I.size * dims))
    for start in range(0, p, block):
        sl = slice(start, min(start + block, p))
        out[sl] = _antidiag_block_nd(X[sl], Y[sl], n, m, istart, iend,
                                     I, J, named)
    return out


def dtw_nd_chunk(
    xs,
    ys,
    window: Window,
    cost: CostLike = "squared",
    count: Optional[int] = None,
) -> np.ndarray:
    """Dependent-DTW distances for one shape-homogeneous nd chunk.

    The multivariate face of :func:`dtw_chunk`: pairs arrive stacked
    as ``(chunk, n, dims)`` / ``(chunk, m, dims)`` arrays and every
    pair advances through the anti-diagonal wavefront together.  The
    ``count=`` padding contract is identical -- rows at index
    ``count`` and beyond are **never read** and may hold NaN/inf
    garbage; real rows are sliced off before any arithmetic or
    validation.

    Returns
    -------
    numpy.ndarray
        ``(count,)`` distances; entry ``t`` is bit-identical to
        ``dp_over_window(xs[t], ys[t], window, cost=vcost).distance``
        with ``vcost`` the vector cost
        :mod:`repro.core.multivariate` resolves ``cost`` to.
    """
    named = _require_named_cost(cost)
    X = np.ascontiguousarray(xs, dtype=np.float64)
    Y = np.ascontiguousarray(ys, dtype=np.float64)
    if X.ndim != 3 or Y.ndim != 3 or X.shape[0] != Y.shape[0]:
        raise ValueError(
            "xs and ys must be 3-D (chunk, length, dims) stacks with "
            "matching pair counts"
        )
    if X.shape[2] != Y.shape[2]:
        raise ValueError(
            f"dimension mismatch: {X.shape[2]} vs {Y.shape[2]}"
        )
    rows = _chunk_rows(X.shape[0], count)
    # slice the real rows *before* any arithmetic or checks: padding
    # must be unable to affect results, warnings or validation
    X, Y = X[:rows], Y[:rows]
    n, m = X.shape[1], Y.shape[1]
    if (n, m) != (window.n, window.m):
        raise ValueError(
            f"window is {window.n}x{window.m} but series are {n}x{m}"
        )
    if window.ranges[0][0] != 0:
        raise ValueError(
            f"window row 0 starts at column {window.ranges[0][0]}, "
            "excluding the mandatory path start (0, 0)"
        )
    if rows == 0:
        return np.empty(0, dtype=np.float64)
    for name, A in (("xs", X), ("ys", Y)):
        if not np.isfinite(A).all():
            t, i, k = np.argwhere(~np.isfinite(A))[0]
            raise ValueError(
                f"chunk {name} row {t}: sample {i} component {k} is "
                f"not finite ({A[t, i, k]!r})"
            )
    return _dtw_antidiag_nd(X, Y, window, named)


def envelope_nd_chunk(
    series,
    band: int,
    count: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel Lemire envelopes for a stacked nd chunk.

    Each channel's envelope is computed independently (the
    multivariate bounds charge gap costs per channel and sum), so row
    ``t`` channel ``k`` of the output is value-identical to
    :func:`repro.lowerbounds.envelope.envelope` of
    ``series[t][:, k]``.

    Parameters
    ----------
    series:
        ``(chunk, n, dims)`` stack (a single ``(n, dims)`` series is
        promoted to one row).
    band:
        Envelope half-width in samples.
    count:
        Real leading rows, as in :func:`dtw_chunk`; pad rows are never
        read.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``(upper, lower)`` stacks of shape ``(count, n, dims)`` --
        sample-major, like the series themselves.
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    arr = np.ascontiguousarray(series, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1] == 0 or arr.shape[2] == 0:
        raise ValueError(
            "series must stack as a non-empty (chunk, length, dims) "
            "3-D chunk"
        )
    rows = _chunk_rows(arr.shape[0], count)
    arr = arr[:rows]
    # the sliding extreme runs over the last axis; put length there
    swapped = np.ascontiguousarray(arr.swapaxes(1, 2))
    upper = _sliding_extreme(swapped, band, np.maximum, -_INF)
    lower = _sliding_extreme(swapped, band, np.minimum, _INF)
    return upper.swapaxes(1, 2), lower.swapaxes(1, 2)


def lb_keogh_nd_chunk(
    upper,
    lower,
    candidates,
    squared: bool = True,
    abandon_above: Optional[float] = None,
    count: Optional[int] = None,
) -> np.ndarray:
    """Multivariate LB_Keogh over a stacked chunk: per-channel scalar
    LB_Keogh values summed in channel order.

    The summed bound lower-bounds **both** multivariate measures: it
    is admissible for ``cdtw_i`` per channel, and
    ``cdtw_i <= cdtw_d`` (the dependent optimum's shared path is
    admissible for every channel).  Bit-identical to the pure-python
    twin: each channel accumulates with ``np.cumsum`` (a strict
    left-to-right fold) and channels accumulate sequentially from 0.0.

    Parameters
    ----------
    upper, lower:
        Query envelope(s): ``(n, dims)`` arrays shared by every
        candidate, or ``(chunk, n, dims)`` stacks with one envelope
        per row (e.g. from :func:`envelope_nd_chunk`).
    candidates:
        ``(chunk, n, dims)`` candidate stack (a single series
        promotes to one row).
    squared:
        Squared (default) or absolute per-point gap cost.
    abandon_above:
        Bounds exceeding this report ``inf``.  Gap costs are
        non-negative, so the decision equals the sequential
        early-abandon's.
    count:
        Real leading rows, as in :func:`dtw_chunk`; pad rows (of the
        candidates *and* of stacked envelopes) are never read.

    Returns
    -------
    numpy.ndarray
        ``(count,)`` bounds.
    """
    C = np.ascontiguousarray(candidates, dtype=np.float64)
    if C.ndim == 2:
        C = C[None]
    if C.ndim != 3:
        raise ValueError(
            "candidates must stack as a (chunk, length, dims) 3-D chunk"
        )
    rows = _chunk_rows(C.shape[0], count)
    C = C[:rows]
    up = np.asarray(upper, dtype=np.float64)
    lo = np.asarray(lower, dtype=np.float64)
    if up.shape != lo.shape:
        raise ValueError("upper and lower envelopes must match in shape")
    if up.ndim == 3:
        up, lo = up[:rows], lo[:rows]
    elif up.ndim != 2:
        raise ValueError(
            "envelopes must be (length, dims) or a (chunk, length, "
            "dims) stack"
        )
    if up.shape[-2:] != C.shape[1:]:
        raise ValueError(
            f"candidate shape {C.shape[1:]} != envelope shape "
            f"{up.shape[-2:]}"
        )
    if rows == 0:
        return np.empty(0, dtype=np.float64)
    totals = np.zeros(rows, dtype=np.float64)
    for k in range(C.shape[2]):
        gaps = _gap_costs(C[..., k], lo[..., k], up[..., k], squared)
        # cumsum adds strictly left to right; its last column is the
        # scalar loop's per-channel total, operand for operand
        totals += np.cumsum(gaps, axis=1)[:, -1]
    if abandon_above is not None:
        totals[totals > abandon_above] = _INF
    return totals
