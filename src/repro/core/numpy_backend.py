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
backend; a plain per-pair distance is a one-pair :func:`dtw_chunk`
call (see :func:`repro.core.kernels.stacked_kernels`).

One kernel family serves scalar and multivariate series.
:func:`dtw_chunk` and :func:`envelope_chunk` take ``(chunk, n)``
stacks of scalar rows or ``(chunk, n, dims)`` stacks of vector
samples, and the rank alone decides which.  A scalar stack runs as the
one-channel case of the same code.

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

The local cost of a cell sums its channels **in channel order**: the
first channel's costs become the running total and later channels add
in place, a strict left fold like
:func:`repro.core.multivariate.vector_squared_cost` (whose ``0.0 + c``
start equals ``c`` for every cost ``c >= +0``).  A
``np.sum(..., axis=-1)`` over channels would NOT be bit-identical:
NumPy's pairwise reduction reassociates the additions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .cost import BUILTIN_COSTS, CostLike
from .window import Window

__all__ = [
    "dtw_chunk",
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


def _require_finite(arr: np.ndarray, label: str, stacked: bool) -> None:
    """Raise on the first non-finite value of ``arr``, a series
    (``stacked=False``) or a chunk stack, naming its row, sample and,
    on a channel axis, component."""
    if np.isfinite(arr).all():
        return
    at = [int(v) for v in np.argwhere(~np.isfinite(arr))[0]]
    value = arr[tuple(at)]
    if stacked:
        label = f"{label} row {at.pop(0)}"
    where = f"sample {at[0]}"
    if len(at) > 1:
        where += f" component {at[1]}"
    raise ValueError(f"{label}: {where} is not finite ({value!r})")


def _as_series(x, name: str) -> np.ndarray:
    """One series as a validated float64 array: ``(n,)`` scalar
    samples or ``(n, dims)`` vector samples."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2) or 0 in arr.shape:
        raise ValueError(
            f"{name} must be a non-empty series shaped (length,) or "
            "(length, dims)"
        )
    _require_finite(arr, f"series {name}", stacked=False)
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
    """Distances for a ``(p, n, dims) x (p, m, dims)`` pair stack by
    wavefront sweep; bit-identical to the pure engine (see the module
    docstring for the evaluation-order and channel-fold arguments)."""
    p, dims = X.shape[0], X.shape[2]
    n, m = window.n, window.m
    istart, iend, I, J = _antidiag_layout(window)
    out = np.empty(p, dtype=np.float64)
    block = max(1, _BLOCK_BUDGET_CELLS // (I.size * dims))
    for start in range(0, p, block):
        sl = slice(start, min(start + block, p))
        out[sl] = _antidiag_block(X[sl], Y[sl], n, m, istart, iend, I, J,
                                  named)
    return out


def _antidiag_block(X, Y, n, m, istart, iend, I, J, named) -> np.ndarray:
    # skewed local costs: LS[t, d, k] is the cost of cell
    # (istart[d] + k, d - i) for pair t, folded over the channels in
    # channel order; the wavefront sweep itself is channel-agnostic
    LS = None
    for c in range(X.shape[2]):
        D = X[:, :, c][:, I] - Y[:, :, c][:, J]
        if named == "squared":
            np.multiply(D, D, out=D)
        else:
            np.abs(D, out=D)
        if LS is None:
            LS = D
        else:
            LS += D
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
    advances every pair of the chunk together.  Multivariate pairs
    stack as ``(chunk, n, dims)`` / ``(chunk, m, dims)``: each cell's
    vector cost sums its channels in channel order (the dependent
    DTW_D measure), and a scalar stack is the one-channel case.

    Parameters
    ----------
    xs, ys:
        Stacked pairs of one rank (2 or 3); row ``t`` is the pair
        ``(xs[t], ys[t])``.
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
        ``dp_over_window(xs[t], ys[t], window, cost=cost).distance``
        (on a channel axis, with the vector cost
        :mod:`repro.core.multivariate` resolves ``cost`` to).  Each
        real pair evaluates ``window.cell_count()`` lattice cells.

    Raises
    ------
    ValueError
        On mixed ranks, a shape/window or channel-count mismatch, a
        callable cost, an out-of-range ``count``, a window excluding
        the mandatory ``(0, 0)`` start, or a non-finite sample in a
        *real* row (padding is exempt).
    """
    named = _require_named_cost(cost)
    X = np.ascontiguousarray(xs, dtype=np.float64)
    Y = np.ascontiguousarray(ys, dtype=np.float64)
    if (X.ndim not in (2, 3) or Y.ndim != X.ndim
            or X.shape[0] != Y.shape[0] or 0 in X.shape[2:]):
        raise ValueError(
            "xs and ys must be (chunk, length) or (chunk, length, dims) "
            "stacks of one rank with matching pair counts and dims >= 1"
        )
    if X.shape[2:] != Y.shape[2:]:
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
        _require_finite(A, f"chunk {name}", stacked=True)
    if X.ndim == 2:  # scalar rows: the one-channel view
        X, Y = X[:, :, None], Y[:, :, None]
    return _dtw_antidiag(X, Y, window, named)


# -- envelopes and lower bounds ------------------------------------------


def _sliding_extreme(a: np.ndarray, band: int, ufunc, pad: float) -> np.ndarray:
    """Exact sliding min/max with half-width ``band`` along axis 1, the
    sample axis of a ``(chunk, n)`` or ``(chunk, n, dims)`` stack (each
    channel independently), via the van Herk/Gil-Werman two-pass
    prefix/suffix trick: O(n) for any band, fully vectorised."""
    if band == 0:
        return a.copy()
    w = 2 * band + 1
    rows, count = a.shape[:2]
    channels = a.shape[2:]
    nblocks = -(-(count + 2 * band) // w)
    padded = np.full((rows, nblocks * w) + channels, pad)
    padded[:, band:band + count] = a
    blocks = padded.reshape((rows, nblocks, w) + channels)
    prefix = ufunc.accumulate(blocks, axis=2).reshape(padded.shape)
    suffix = ufunc.accumulate(blocks[:, :, ::-1], axis=2)[:, :, ::-1]
    suffix = suffix.reshape(padded.shape)
    return ufunc(suffix[:, :count], prefix[:, w - 1:w - 1 + count])


def envelope_chunk(
    series,
    band: int,
    count: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lemire warping envelopes for a stacked chunk of series.

    Two sliding-extreme passes over the whole stack at once; row ``t``
    of the output is value-identical to
    :func:`repro.lowerbounds.envelope.envelope` of ``series[t]``.  On a
    channel axis each channel's envelope is computed independently (the
    multivariate bounds charge gap costs per channel and sum), so row
    ``t`` channel ``k`` is value-identical to the envelope of
    ``series[t][:, k]``.

    Parameters
    ----------
    series:
        ``(chunk, n)`` or ``(chunk, n, dims)`` stack (a single 1-D
        series is promoted to one row; a single ``(n, dims)`` series
        is passed as a one-row stack).
    band:
        Envelope half-width in samples.
    count:
        Real leading rows, as in :func:`dtw_chunk`; pad rows are never
        read.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``(upper, lower)`` stacks shaped like the real rows:
        ``(count, n)``, or ``(count, n, dims)`` sample-major like the
        series themselves.
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    arr = np.ascontiguousarray(series, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim not in (2, 3) or 0 in arr.shape[1:]:
        raise ValueError(
            "series must stack as a non-empty (chunk, length) or "
            "(chunk, length, dims) chunk"
        )
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
