"""Warping windows: the lattice subsets a constrained DTW may explore.

A *window* over an ``n x m`` DTW lattice is, for each row ``i``, an
inclusive column range ``(lo_i, hi_i)``.  Per-row ranges are the
representation both of the classic Sakoe-Chiba band used by cDTW and of
the irregular region FastDTW builds by projecting a coarse warping path
up one resolution level and dilating it by its radius ``r``.

Storing ranges (rather than a cell set) makes the windowed DP loop a
contiguous scan per row and makes the window's cell count -- the
hardware-independent cost model used throughout the benchmarks --
an O(n) sum.

Windows constructed here are always *feasible*: the ranges are
monotonically non-decreasing in both endpoints and consecutive rows
overlap diagonally, so at least one valid warping path exists inside
every window.  :meth:`Window.from_cells` enforces this by widening
degenerate input regions, mirroring what reference FastDTW
implementations do implicitly.

:meth:`Window.full` and :meth:`Window.band` (and so
:meth:`Window.from_fraction`) are memoised: a repeated-use caller
(a k-NN scan, a cascade's exact stage, a batch worker) pays the O(n)
build once per lattice shape, not once per DP.  A window is a frozen
dataclass of tuples, so the shared instances are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple

Range = Tuple[int, int]
Cell = Tuple[int, int]


@dataclass(frozen=True)
class Window:
    """Per-row column ranges of an ``n x m`` DTW lattice subset.

    Use the constructors :meth:`full`, :meth:`band` and
    :meth:`from_cells` rather than building ranges by hand.
    """

    n: int
    m: int
    ranges: Tuple[Range, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("window dimensions must be positive")
        if len(self.ranges) != self.n:
            raise ValueError(
                f"expected {self.n} row ranges, got {len(self.ranges)}"
            )
        prev_lo = prev_hi = 0
        for i, (lo, hi) in enumerate(self.ranges):
            if not (0 <= lo <= hi < self.m):
                raise ValueError(f"row {i}: invalid range ({lo}, {hi})")
            if i == 0:
                if lo != 0:
                    raise ValueError("row 0 must include column 0")
            else:
                if lo < prev_lo or hi < prev_hi:
                    raise ValueError(f"row {i}: ranges must be monotone")
                if lo > prev_hi + 1:
                    raise ValueError(
                        f"row {i}: range ({lo}, {hi}) unreachable from "
                        f"previous row range ({prev_lo}, {prev_hi})"
                    )
            prev_lo, prev_hi = lo, hi
        if self.ranges[0][0] != 0 or self.ranges[-1][1] != self.m - 1:
            raise ValueError("window must include (0, 0) and (n-1, m-1)")

    # -- constructors ----------------------------------------------------

    @classmethod
    @lru_cache(maxsize=512)
    def full(cls, n: int, m: int) -> "Window":
        """The unconstrained window covering the entire lattice.

        Memoised (LRU, 512 shapes): equal arguments return the same
        immutable instance.
        """
        return cls(n, m, ((0, m - 1),) * n)

    @classmethod
    @lru_cache(maxsize=512)
    def band(cls, n: int, m: int, band: int) -> "Window":
        """Sakoe-Chiba band of half-width ``band`` cells.

        For equal lengths this is the classic ``|i - j| <= band``
        constraint.  For unequal lengths the band is slope-corrected:
        it is centred on the straight line from ``(0, 0)`` to
        ``(n-1, m-1)`` and additionally widened just enough to remain
        feasible (a band narrower than the length difference would
        admit no complete path).

        A ``band`` of zero with ``n == m`` degenerates to the diagonal:
        cDTW with ``band=0`` *is* the Euclidean distance (Section 2 of
        the paper).

        Memoised (LRU, 512 shapes): equal arguments return the same
        immutable instance, so a caller running many DPs over one
        lattice shape builds its window once.
        """
        if band < 0:
            raise ValueError("band must be non-negative")
        slope = (m - 1) / (n - 1) if n > 1 else 0.0
        ranges: List[Range] = []
        for i in range(n):
            centre = i * slope
            lo = max(0, math.ceil(centre - band))
            hi = min(m - 1, math.floor(centre + band))
            if hi < lo:  # slope rounding produced an empty row; pin to centre
                lo = hi = min(m - 1, max(0, round(centre)))
            ranges.append((lo, hi))
        return cls(n, m, _make_feasible(n, m, ranges))

    @classmethod
    def itakura(cls, n: int, m: int, max_slope: float = 2.0) -> "Window":
        """Itakura parallelogram: the classic slope constraint.

        The other time-honoured alternative to the Sakoe-Chiba band:
        the warping path's local slope is bounded by ``max_slope``
        (and its reciprocal), which pinches the window to the corners
        and lets it bulge mid-series.  Provided for completeness of
        the constrained-DTW family; use with
        :func:`repro.core.dtw.windowed_dtw`.

        Parameters
        ----------
        max_slope:
            Maximum allowed local slope, ``>= 1``.  ``1`` degenerates
            towards the diagonal; larger values admit more warping.
        """
        if max_slope < 1.0:
            raise ValueError("max_slope must be at least 1")
        s = float(max_slope)
        ranges: List[Range] = []
        last_i, last_j = n - 1, m - 1
        for i in range(n):
            # forward cone from (0, 0) and backward cone from the end
            lo = max(
                math.ceil(i / s),
                last_j - math.floor(s * (last_i - i)),
            )
            hi = min(
                math.floor(s * i),
                last_j - math.ceil((last_i - i) / s),
            )
            if i == 0:
                lo, hi = 0, max(0, hi)
            if i == last_i:
                hi = last_j
                lo = min(lo, last_j)
            if hi < lo:  # degenerate mid-row: pin to the diagonal line
                centre = round(i * (m - 1) / (n - 1)) if n > 1 else 0
                lo = hi = min(m - 1, max(0, centre))
            ranges.append((max(0, lo), min(m - 1, hi)))
        return cls(n, m, _make_feasible(n, m, ranges))

    @classmethod
    def from_fraction(cls, n: int, m: int, window: float) -> "Window":
        """Band from the paper's percentage convention.

        ``window`` is a fraction of the series length (``0.1`` is the
        paper's "w = 10%"); the absolute half-width is
        :func:`band_from_fraction` of ``max(n, m)``.  The window comes
        from the memoised :meth:`band`, so it is a shared immutable
        instance.
        """
        if not 0.0 <= window <= 1.0:
            raise ValueError("window fraction must be in [0, 1]")
        return cls.band(n, m, band_from_fraction(window, max(n, m)))

    @classmethod
    def from_cells(cls, n: int, m: int, cells: Iterable[Cell]) -> "Window":
        """Smallest feasible window containing ``cells``.

        This is FastDTW's window-construction primitive: the cells are
        a projected-and-dilated coarse path; rows the projection missed
        (odd-length boundaries) are filled by interpolation, and the
        result is widened minimally until a valid path can traverse it.
        """
        lo = [m] * n
        hi = [-1] * n
        for i, j in cells:
            if 0 <= i < n and 0 <= j < m:
                if j < lo[i]:
                    lo[i] = j
                if j > hi[i]:
                    hi[i] = j
        ranges: List[Range] = []
        for i in range(n):
            if hi[i] < 0:  # row not covered: inherit from neighbours later
                ranges.append((m, -1))
            else:
                ranges.append((lo[i], hi[i]))
        _fill_missing_rows(ranges, m)
        return cls(n, m, _make_feasible(n, m, ranges))

    @classmethod
    def expand_path(cls, path, n: int, m: int, radius: int) -> "Window":
        """FastDTW's ``ExpandedResWindow``: project ``path`` (a coarse
        :class:`~repro.core.path.WarpingPath`) up to an ``n x m``
        lattice and dilate it by ``radius`` cells in every direction.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        projected = path.project_up(n, m)
        if radius == 0:
            return cls.from_cells(n, m, projected)
        # dilate by expanding each projected cell's row range, then
        # smearing ranges +-radius rows vertically.
        lo = [m] * n
        hi = [-1] * n
        for i, j in projected:
            jl = max(0, j - radius)
            jh = min(m - 1, j + radius)
            if jl < lo[i]:
                lo[i] = jl
            if jh > hi[i]:
                hi[i] = jh
        smeared_lo = list(lo)
        smeared_hi = list(hi)
        for i in range(n):
            if hi[i] < 0:
                continue
            for di in range(-radius, radius + 1):
                ii = i + di
                if 0 <= ii < n:
                    if lo[i] < smeared_lo[ii]:
                        smeared_lo[ii] = lo[i]
                    if hi[i] > smeared_hi[ii]:
                        smeared_hi[ii] = hi[i]
        ranges = [(smeared_lo[i], smeared_hi[i]) for i in range(n)]
        _fill_missing_rows(ranges, m)
        return cls(n, m, _make_feasible(n, m, ranges))

    # -- queries -----------------------------------------------------------

    def row(self, i: int) -> Range:
        """Inclusive column range of row ``i``."""
        return self.ranges[i]

    def contains(self, i: int, j: int) -> bool:
        """Whether lattice cell ``(i, j)`` is inside the window."""
        if not (0 <= i < self.n and 0 <= j < self.m):
            return False
        lo, hi = self.ranges[i]
        return lo <= j <= hi

    def cell_count(self) -> int:
        """Number of lattice cells the window admits.

        This is the paper's hardware-independent cost model: a DP over
        this window performs exactly this many cell evaluations.
        """
        return sum(hi - lo + 1 for lo, hi in self.ranges)

    def coverage(self) -> float:
        """Fraction of the full lattice this window covers."""
        return self.cell_count() / (self.n * self.m)

    def union(self, other: "Window") -> "Window":
        """Smallest feasible window containing both operands."""
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("windows must share lattice dimensions")
        ranges = [
            (min(a_lo, b_lo), max(a_hi, b_hi))
            for (a_lo, a_hi), (b_lo, b_hi) in zip(self.ranges, other.ranges)
        ]
        return Window(self.n, self.m, _make_feasible(self.n, self.m, ranges))

    def cells(self) -> Iterator[Cell]:
        """Iterate all admitted cells in lattice order."""
        for i, (lo, hi) in enumerate(self.ranges):
            for j in range(lo, hi + 1):
                yield (i, j)

    def __contains__(self, cell: Cell) -> bool:
        return self.contains(*cell)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Window({self.n}x{self.m}, cells={self.cell_count()}, "
            f"coverage={self.coverage():.3f})"
        )


def band_from_fraction(window: float, length: int) -> int:
    """The band half-width, in cells, of a window fraction of ``length``.

    ``ceil(window * length)``, with ``window`` read as the decimal it
    prints as: in binary floating point ``0.07 * 100`` is
    ``7.000000000000001``, which would turn the paper's "w = 7%" of
    100 samples into a band of 8.  Every fraction-to-band conversion
    goes through here, so :meth:`Window.from_fraction`, the cascades'
    envelopes and the batch scheduler's grouping key agree.

    >>> band_from_fraction(0.07, 100)
    7
    >>> band_from_fraction(0.04, 945)
    38
    """
    num, den = Decimal(repr(float(window))).as_integer_ratio()
    return -(-num * length // den)


def _fill_missing_rows(ranges: List[Range], m: int) -> None:
    """Replace sentinel ``(m, -1)`` rows with neighbour interpolation."""
    n = len(ranges)
    last_known = None
    for i in range(n):
        if ranges[i][1] >= 0:
            if last_known is not None and last_known < i - 1:
                lo_a, hi_a = ranges[last_known]
                lo_b, hi_b = ranges[i]
                for k in range(last_known + 1, i):
                    ranges[k] = (min(lo_a, lo_b), max(hi_a, hi_b))
            elif last_known is None and i > 0:
                for k in range(i):
                    ranges[k] = (0, ranges[i][1])
            last_known = i
    if last_known is None:
        for k in range(n):
            ranges[k] = (0, m - 1)
    elif last_known < n - 1:
        lo_a, hi_a = ranges[last_known]
        for k in range(last_known + 1, n):
            ranges[k] = (lo_a, m - 1)


def _make_feasible(n: int, m: int, ranges: Sequence[Range]) -> Tuple[Range, ...]:
    """Minimally widen ranges so a valid warping path exists.

    Enforces, in order: corner inclusion, monotone non-decreasing
    endpoints (forward pass on ``hi``, backward pass on ``lo``), and
    diagonal reachability between consecutive rows (``lo_i <= hi_{i-1} + 1``).
    """
    lo = [r[0] for r in ranges]
    hi = [r[1] for r in ranges]
    # corners
    lo[0] = 0
    hi[-1] = m - 1
    if hi[0] < 0:
        hi[0] = 0
    if lo[-1] > m - 1:
        lo[-1] = m - 1
    # clip
    for i in range(n):
        lo[i] = max(0, min(lo[i], m - 1))
        hi[i] = max(0, min(hi[i], m - 1))
        if hi[i] < lo[i]:
            hi[i] = lo[i]
    # hi must be non-decreasing going down
    for i in range(1, n):
        if hi[i] < hi[i - 1]:
            hi[i] = hi[i - 1]
    # lo must be non-decreasing going down: fix by lowering earlier rows
    for i in range(n - 2, -1, -1):
        if lo[i] > lo[i + 1]:
            lo[i] = lo[i + 1]
    # diagonal reachability: row i must start no later than hi[i-1] + 1
    for i in range(1, n):
        if lo[i] > hi[i - 1] + 1:
            # widen previous row upward to meet this row
            hi[i - 1] = lo[i] - 1
            # hi just changed; re-enforce monotone hi backwards is not
            # needed (we only increased it), but earlier rows may now be
            # disconnected from the enlarged one -- handled since we only
            # ever *grow* hi moving forward.
        if lo[i] > lo[i - 1] and lo[i] > hi[i - 1] + 1:
            lo[i] = hi[i - 1] + 1
    # final sanity clip
    for i in range(n):
        if hi[i] < lo[i]:
            hi[i] = lo[i]
    return tuple(zip(lo, hi))
