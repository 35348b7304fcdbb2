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

computable in ``O(h + w)`` per block with a monotone deque (g1) and
running prefix/suffix minima (g2-g4); the right column is the same
computation with roles swapped.  The corner cell belongs to both; this
implementation canonically assigns it the bottom-row expression so
propagation is deterministic.

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

from collections import deque
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
    ``B[w-1]``.
    """
    B = _boundary_row(T, L, c, h, w)
    R = _boundary_row(L, T, c, w, h)
    R[h - 1] = B[w - 1]
    return B, R


def _boundary_row(
    T: Sequence[float], L: Sequence[float], c: float, h: int, w: int
) -> List[float]:
    """``B[s-1] = min(g1, g2, g3, g4)`` per the module docstring."""
    ch = c * h
    # g3: prefix minima of L[a] + c*(h-a)
    pp = [inf] * (h + 1)
    best = inf
    for a in range(h + 1):
        v = L[a] + c * (h - a)
        if v < best:
            best = v
        pp[a] = best
    # g4: suffix minima of L
    sl = [inf] * (h + 2)
    for a in range(h, -1, -1):
        la = L[a]
        sl[a] = la if la < sl[a + 1] else sl[a + 1]
    out = [inf] * w
    dq = deque([0])  # g1 window indices, T-values increasing
    g2min = inf  # exact prefix min of T[b] - c*b over b <= s-h-1
    nxt = 0  # next index to fold into g2min
    for s in range(1, w + 1):
        hi_gone = s - h - 1
        while nxt <= hi_gone:
            v = T[nxt] - c * nxt
            if v < g2min:
                g2min = v
            nxt += 1
        lo_b = s - h
        while dq and dq[0] < lo_b:
            dq.popleft()
        tb = T[s]
        while dq and T[dq[-1]] >= tb:
            dq.pop()
        dq.append(s)
        val = T[dq[0]] + ch
        g2 = c * s + g2min
        if g2 < val:
            val = g2
        if s <= h:
            g3 = pp[h - s]
            if g3 < val:
                val = g3
            g4 = c * s + sl[h - s + 1]
        else:
            g4 = c * s + sl[0]
        if g4 < val:
            val = g4
        out[s - 1] = val
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
    engine's implicit boundary).  ``blocks`` maps ``(p, q)`` to the
    stored boundary state for path recovery.
    """
    xv, xl = rx.values, rx.lengths
    yv, yl = ry.values, ry.lengths
    k, l = len(xv), len(yv)
    m = ry.n
    row_bound: List[float] = [0.0] + [inf] * m
    cells = 0
    blocks: Optional[Dict] = {} if keep_blocks else None
    top = 0
    for p in range(k):
        h = xl[p]
        vp = xv[p]
        new_row: List[float] = [inf] * (m + 1)
        L: List[float] = []
        left = 0
        for q in range(l):
            w = yl[q]
            c = cost_fn(vp, yv[q])
            if not c >= 0.0:  # catches negatives and NaN
                raise ValueError(
                    "rle measures require finite non-negative local "
                    f"costs, got {c!r}"
                )
            T = row_bound[left:left + w + 1]
            if q == 0:
                L = [row_bound[0]] + [inf] * h
            B, R = rle_block_python(T, L, c, h, w)
            cells += h + w
            if keep_blocks:
                blocks[(p, q)] = (T, L, c, h, w, top, left)
            new_row[left + 1:left + w + 1] = B
            L = [T[w]] + R
            left += w
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
