"""Run-length-encoded exact DTW: the compressed-domain fast path.

Step-like series (smart-meter traces, quantised telemetry, on/off
signals) compress losslessly into runs ``(value, length)``.  Froese et
al. ("Fast Exact Dynamic Time Warping on Run-Length Encoded Time
Series", arXiv:1903.03003) show the DTW lattice of two such series
decomposes into ``k x l`` constant-cost *blocks* (one per run pair),
and that the DP only ever needs the *boundary* of each block: the
optimal distance is computable exactly in ``O(k*m + l*n)`` instead of
``O(n*m)``, where ``k``/``l`` are the run counts.  For heavily
compressed series this is orders of magnitude cheaper -- and still
**exact**, which is this repo's whole thesis: engineering exact DTW
beats approximating it.

The block recurrence
--------------------
Every cell of block ``(p, q)`` (spanning ``h = n_p`` rows and
``w = m_q`` columns) has the same local cost ``c = cost(v_p, w_q)``.
A cheapest monotone path from a boundary entry to an interior cell of
the block is then any *staircase* with the fewest cells; a path
entering from the top boundary at relative column ``b`` and leaving at
relative cell ``(r, s)`` (1-indexed) costs ``c * max(r, s - b)``
beyond the entry value, and symmetrically ``c * max(r - a, s)`` from a
left entry at row ``a``.  The bottom row of a block therefore is, for
``s = 1..w`` (``T``/``L`` the incoming top/left boundary arrays,
``T[0] == L[0]`` the corner)::

    B[s] = min( min_{b in [max(0,s-h)..s]} T[b] + c*h,        # g1
                c*s + min_{b <= s-h-1}    (T[b] - c*b),       # g2
                min_{a in [0..h-s]}        L[a] + c*(h-a),    # g3
                c*s + min_{a >= max(0,h-s+1)} L[a] )          # g4

computable in ``O(h + w)`` per block with running minima: while
``s <= h``, g1 is a prefix minimum of ``T`` and g2 is empty; past it,
g2 and g4 share ``c*s`` and fold into one running minimum, and g1's
sliding window keeps a minimum that is rescanned only when its
element has left *and* it could still beat g2/g4 (see ``_edge``).  The
right column is the same sweep with roles swapped.  The corner cell
belongs to both; this implementation canonically assigns it the
bottom-row expression so propagation is deterministic.  Every term is
evaluated in the same float operations as written above, so the
sweep is bit-identical to evaluating the formula directly (the deque
sweep it replaced is kept in the tests as the oracle).

Exactness regime
----------------
The block form evaluates ``c * <integer>`` where the dense engine sums
``c`` repeatedly.  Whenever the arithmetic is exactly representable --
e.g. values on a dyadic grid (multiples of ``2**-10``, magnitudes
below ``2**6``, lengths below ``2**13`` keep every partial sum within
float64's 53 bits) -- both forms are **bit-identical**, and the
property suites pin that down.  For arbitrary floats the two forms may
differ in final ulps (documented; ``RleSeries.exactness_grid`` checks
for such a grid).

Cell accounting: each block charges ``h + w`` cells (its computed
boundary), summing to exactly ``k*m + l*n`` -- also the
:func:`repro.core.measures.pair_cost_model` price the batch scheduler
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, inf, isfinite
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs import trace as _obs
from .cost import CostLike, cost_name, resolve_cost
from .engine import DtwResult
from .path import WarpingPath

__all__ = [
    "RleSeries",
    "as_rle",
    "rle_dtw",
    "rle_block_python",
]


@dataclass(frozen=True)
class RleSeries:
    """A run-length-encoded series: parallel ``(value, length)`` runs.

    Immutable and validated: every run value is finite, every run
    length a positive integer.  With ``tolerance=0`` (the default),
    :meth:`encode` followed by :meth:`decode` is a bit-exact float64
    round-trip -- ``-0.0`` and ``0.0`` start separate runs, so even
    signed zeros survive.
    """

    values: Tuple[float, ...]
    lengths: Tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        lengths = tuple(self.lengths)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lengths", lengths)
        if len(values) != len(lengths):
            raise ValueError(
                f"{len(values)} run values but {len(lengths)} run lengths"
            )
        if not values:
            raise ValueError("series is empty")
        for i, v in enumerate(values):
            if not isfinite(v):
                raise ValueError(f"run {i}: value is not finite ({v!r})")
        for i, r in enumerate(lengths):
            if isinstance(r, bool) or not isinstance(r, int) or r < 1:
                raise ValueError(
                    f"run {i}: length must be a positive int, got {r!r}"
                )

    # -- codec ---------------------------------------------------------

    @classmethod
    def encode(
        cls,
        x: Sequence[float],
        tolerance: float = 0.0,
        name: str = "series",
    ) -> "RleSeries":
        """Encode a raw series into runs.

        ``tolerance=0`` (default) is exact: a run extends only over
        bit-identical float64 samples (``==`` plus matching zero
        signs).  A positive tolerance merges samples within
        ``tolerance`` of the run's *first* sample (lossy; decoding
        reproduces that anchor).

        Rejects empty series and non-finite samples with the same
        errors as :func:`repro.core.validate.validate_series`.
        """
        if tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        if len(x) == 0:
            raise ValueError(f"{name} is empty")
        values: List[float] = []
        lengths: List[int] = []
        anchor = 0.0
        for i, raw in enumerate(x):
            v = float(raw)
            if not isfinite(v):
                raise ValueError(
                    f"{name}: sample {i} is not finite ({raw!r})"
                )
            if values and _same_run(v, anchor, tolerance):
                lengths[-1] += 1
            else:
                values.append(v)
                lengths.append(1)
                anchor = v
        return cls(tuple(values), tuple(lengths))

    def decode(self) -> List[float]:
        """Expand back to a raw sample list."""
        return [v for v, r in zip(self.values, self.lengths) for _ in range(r)]

    # -- shape ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Decoded length (sum of run lengths)."""
        return sum(self.lengths)

    @property
    def run_count(self) -> int:
        """Number of runs (``k`` in the O(k*m + l*n) bound)."""
        return len(self.values)

    @property
    def compression_ratio(self) -> float:
        """Decoded length over run count (1.0 = incompressible)."""
        return self.n / self.run_count

    def exactness_grid(
        self, fraction_bits: int = 10, magnitude: float = 64.0
    ) -> bool:
        """Whether every value sits on a dyadic grid safe for bit-exactness.

        True iff each run value is an exact multiple of
        ``2**-fraction_bits`` with ``|v| <= magnitude``.  On such data
        every partial sum the dense DP forms is exactly representable,
        so the block DP's multiplication form is bit-identical to the
        dense engine (see the module docstring).
        """
        scale = float(1 << fraction_bits)
        for v in self.values:
            if abs(v) > magnitude:
                return False
            scaled = v * scale
            if scaled != int(scaled):
                return False
        return True

    def __len__(self) -> int:
        return self.n


def _same_run(v: float, anchor: float, tolerance: float) -> bool:
    if tolerance == 0.0:
        return v == anchor and copysign(1.0, v) == copysign(1.0, anchor)
    return abs(v - anchor) <= tolerance


RleLike = Union[RleSeries, Sequence[float]]


def as_rle(x: RleLike, name: str = "series") -> RleSeries:
    """Coerce raw samples to :class:`RleSeries` (pass-through if already)."""
    if isinstance(x, RleSeries):
        return x
    return RleSeries.encode(x, name=name)


# -- the O(h + w) block boundary kernel (pure python) ----------------------


def rle_block_python(
    T: Sequence[float], L: Sequence[float], c: float, h: int, w: int
) -> Tuple[List[float], List[float]]:
    """Bottom row ``B`` and right column ``R`` of one constant-cost block.

    ``T`` (length ``w + 1``) and ``L`` (length ``h + 1``) are the
    incoming top/left boundary arrays (``T[0] == L[0]`` is the shared
    corner); ``c`` the block's local cost.  Returns ``(B, R)`` with
    ``B[s-1] = D(h, s)`` and ``R[r-1] = D(r, w)`` in block-relative
    coordinates.  The corner ``R[h-1]`` is canonically assigned
    ``B[w-1]``.  :func:`_rle_dp` runs the same two edge sweeps.
    """
    B = _edge(T, L, c, h, w, T[0])[1:]
    R = _edge(L, T, c, w, h - 1, L[0])[1:] if h > 1 else []
    R.append(B[w - 1])
    return B, R


def _edge(
    T: Sequence[float], L: Sequence[float], c: float, h: int, count: int,
    head: float,
) -> List[float]:
    """``[head, B[1], .., B[count]]``: the first ``count`` cells of the
    bottom row of a height-``h`` block, ``B[s] = min(g1, g2, g3, g4)``
    per the module docstring (``1 <= count``; the right column is the
    same sweep with ``T`` and ``L`` swapped).

    Every term is the docstring's expression, evaluated in the same
    float operations as a direct evaluation would, so the result is
    bit-identical to one; only which terms get evaluated is organised
    for speed:

    * ``g3`` reads prefix minima of ``L[a] + c*(h-a)`` at ``a = h-s``,
      so it is filled in first, from ``s = min(count, h)`` down;
    * while ``s <= h``, ``g1`` is a running prefix minimum of ``T``,
      ``g4`` a running suffix minimum of ``L`` and ``g2`` is empty;
    * past ``s = h``, ``g2`` and ``g4`` share ``c*s`` (rounding is
      monotone, so ``min(c*s + u, c*s + v) == c*s + min(u, v)``) and
      fold into one running minimum.  ``g1``'s window keeps a running
      minimum that goes *stale* -- a lower bound, no longer the
      window's minimum -- when its element leaves; a stale bound that
      already loses to ``g2``/``g4`` decides the cell unchanged, and
      the window is rescanned only when it could win.
    """
    k = count if count < h else h
    out = [head] * (count + 1)
    g3 = inf
    for a in range(h - k + 1):
        v = L[a] + c * (h - a)
        if v < g3:
            g3 = v
    out[k] = g3
    for s in range(k - 1, 0, -1):
        v = L[h - s] + c * s
        if v < g3:
            g3 = v
        out[s] = g3
    ch = c * h
    g1 = T[0]
    g4 = inf
    for s in range(1, k + 1):
        v = T[s]
        if v <= g1:
            g1 = v
        v = L[h - s + 1]
        if v < g4:
            g4 = v
        val = g1 + ch
        v = out[s]
        if v < val:
            val = v
        v = c * s + g4
        if v < val:
            val = v
        out[s] = val
    if count > h:
        v = L[0]
        if v < g4:
            g4 = v
        low = g4  # min(L) and T[b] - c*b over b <= s-h-1
        stale = False
        for s in range(h + 1, count + 1):
            b = s - h - 1
            gone = T[b]
            v = gone - c * b
            if v < low:
                low = v
            v = T[s]
            if v <= g1:
                g1 = v
                stale = False
            elif gone == g1:
                stale = True
            val = c * s + low
            if stale:
                if val <= g1 + ch:
                    out[s] = val
                    continue
                g1 = min(T[b + 1:s + 1])
                stale = False
            v = g1 + ch
            if v <= val:
                val = v
            out[s] = val
    return out


# -- the global block DP ---------------------------------------------------


def _rle_dp(
    rx: RleSeries,
    ry: RleSeries,
    cost_fn,
    keep_blocks: bool,
):
    """Sweep all ``k x l`` blocks; returns ``(distance, cells, blocks)``.

    ``row_bound`` carries ``D(row-1, col)`` for ``col = -1..m-1``
    across block rows (index 0 is the virtual column ``-1``:
    ``D(-1,-1) = 0``, everything else ``inf`` -- exactly the dense
    engine's implicit boundary).  Each block's bottom row is written
    into the next ``row_bound`` in place, and its right column becomes
    the next block's left boundary as is; the last block column's
    right column feeds nothing (path recovery reads only each block's
    incoming boundaries), so it is never computed.  ``blocks`` maps
    ``(p, q)`` to the stored boundary state for path recovery.
    """
    xv, xl = rx.values, rx.lengths
    yv, yl = ry.values, ry.lengths
    last = len(yv) - 1
    m = ry.n
    row_bound: List[float] = [0.0] + [inf] * m
    cells = 0
    blocks: Optional[Dict] = {} if keep_blocks else None
    top = 0
    for p, (vp, h) in enumerate(zip(xv, xl)):
        new_row: List[float] = [inf] * (m + 1)
        L: List[float] = [row_bound[0]] + [inf] * h
        left = 0
        for q, (vq, w) in enumerate(zip(yv, yl)):
            c = cost_fn(vp, vq)
            if not c >= 0.0:  # catches negatives and NaN
                raise ValueError(
                    "rle measures require finite non-negative local "
                    f"costs, got {c!r}"
                )
            right = left + w
            T = row_bound[left:right + 1]
            # slot 0 rewrites D(bottom, left - 1) with itself
            new_row[left:right + 1] = _edge(T, L, c, h, w, new_row[left])
            cells += h + w
            if keep_blocks:
                blocks[(p, q)] = (T, L, c, h, w, top, left)
            if q < last:
                # the corner T[w] heads the next left boundary; its
                # last cell is canonically the bottom row's
                L = _edge(L, T, c, w, h - 1, T[w]) if h > 1 else [T[w]]
                L.append(new_row[right])
            left = right
        row_bound = new_row
        top += h
    return row_bound[m], cells, blocks


# -- path recovery ---------------------------------------------------------


def _blocks_path(blocks: Dict, rx: RleSeries, ry: RleSeries) -> WarpingPath:
    """Backtrack a global optimal path through the stored block boundaries.

    At each visited block the entry minimising ``T[b] + c*max(r, s-b)``
    / ``L[a] + c*max(r-a, s)`` is rescanned (direct expressions -- no
    float equality against the stored exit value, whose expression
    form may differ in ulps), then the diagonal-first staircase from
    the entry to the exit is emitted.  Diagonal-first keeps every
    emitted cell interior to the block for all three entry kinds.
    """
    k, l = rx.run_count, ry.run_count
    rev: List[Tuple[int, int]] = []
    p, q = k - 1, l - 1
    r, s = rx.lengths[p], ry.lengths[q]
    while True:
        T, L, c, h, w, top, left = blocks[(p, q)]
        kind, idx, best = "", -1, inf
        for b in range(s + 1):
            rem = s - b
            v = T[b] + c * (r if r >= rem else rem)
            if v < best:
                best, kind, idx = v, "T", b
        for a in range(r + 1):
            rem = r - a
            v = L[a] + c * (rem if rem >= s else s)
            if v < best:
                best, kind, idx = v, "L", a
        if not kind:
            raise RuntimeError("rle backtracking escaped the lattice")
        r0, s0 = (0, idx) if kind == "T" else (idx, 0)
        d = r - r0 if r - r0 < s - s0 else s - s0
        stair = [(r0 + t, s0 + t) for t in range(1, d + 1)]
        if r > r0 + d:
            stair += [(t, s) for t in range(r0 + d + 1, r + 1)]
        elif s > s0 + d:
            stair += [(r, u) for u in range(s0 + d + 1, s + 1)]
        for rr, ss in reversed(stair):
            rev.append((top + rr - 1, left + ss - 1))
        if idx == 0:  # corner entry: diagonal block step (or done)
            if p == 0 and q == 0:
                break
            if p == 0 or q == 0:
                raise RuntimeError("rle backtracking escaped the lattice")
            p, q = p - 1, q - 1
            r, s = rx.lengths[p], ry.lengths[q]
        elif kind == "T":
            p -= 1
            r, s = rx.lengths[p], idx
        else:
            q -= 1
            r, s = idx, ry.lengths[q]
    rev.reverse()
    return WarpingPath(rev)


# -- public measures -------------------------------------------------------


def rle_dtw(
    x: RleLike,
    y: RleLike,
    cost: CostLike = "squared",
    return_path: bool = False,
) -> DtwResult:
    """Exact full DTW on run-length-encoded series in O(k*m + l*n).

    Accepts raw sample sequences (encoded on the fly, tolerance 0) or
    pre-encoded :class:`RleSeries`.  The distance equals
    :func:`repro.core.dtw.dtw` on the decoded series -- bit-identical
    whenever the arithmetic is exactly representable (see the module
    docstring's exactness regime), within ulps otherwise.  ``cells``
    counts the boundary cells actually computed, ``k*m + l*n``.

    The local cost must be non-negative (true of the built-ins); a
    negative custom cost would break the staircase optimality the
    block recurrence rests on, so it is rejected.
    """
    rx, ry = as_rle(x, "series x"), as_rle(y, "series y")
    trace = _obs._ACTIVE
    if trace is None:
        return _rle_dtw_impl(rx, ry, cost, return_path)
    with _obs.span("dp"):
        result = _rle_dtw_impl(rx, ry, cost, return_path)
    _obs.record_dp(trace, result)
    trace.incr("rle.runs", rx.run_count + ry.run_count)
    trace.incr("rle.block_cells", result.cells)
    return result


def _rle_dtw_impl(rx, ry, cost, return_path):
    fn = resolve_cost(cost)
    distance, cells, blocks = _rle_dp(rx, ry, fn, return_path)
    path = _blocks_path(blocks, rx, ry) if return_path else None
    return DtwResult(distance, path, cells, cost_name(cost))
