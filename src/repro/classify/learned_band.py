"""Learned (R-K style) warping bands from training alignments.

The paper's reference [2] (Ratanamahatana & Keogh, "Everything you
know about DTW is wrong") introduced bands of *arbitrary shape*
learned from the data, subsuming the uniform Sakoe-Chiba band.  The
construction here is the practical core of that idea:

1. align same-class training pairs with Full DTW;
2. record, per lattice row, the largest deviation any alignment used;
3. smooth and pad the per-row radii, and build a feasible
   :class:`~repro.core.window.Window` from them.

The learned window is exactly wide enough for the warping the data
actually exhibits -- usually far narrower than the uniform band with
the same worst-case deviation, which means fewer DP cells at equal
accuracy: the paper's "a little warping is a good thing" made
adaptive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.dtw import dtw
from ..core.engine import DtwResult, dp_over_window
from ..core.kernels import stacked_kernels
from ..core.validate import validate_series
from ..core.window import Window
from ..runtime import Runtime


def learn_band_radii(
    series: Sequence[Sequence[float]],
    labels: Optional[Sequence[object]] = None,
    slack: int = 1,
    smooth: int = 2,
    max_pairs_per_class: int = 20,
    runtime: Optional[Runtime] = None,
) -> List[int]:
    """Per-row band radii learned from same-class Full-DTW alignments.

    Parameters
    ----------
    series:
        Equal-length training series.
    labels:
        Optional class labels; when given, only same-class pairs are
        aligned (cross-class warping is noise for classification).
        Without labels, all pairs are used.
    slack:
        Cells added to every learned radius (safety margin).
    smooth:
        Half-width of a sliding-maximum smoothing over rows, so single
        noisy alignments cannot pinch the band.
    max_pairs_per_class:
        Cap on alignments per class (deterministic: first pairs in
        order), bounding the O(N^2)-per-alignment training cost.
    runtime:
        Execution context, per :mod:`repro.runtime` (``None`` = the
        process default).  A parallel context computes the training
        alignments as one :mod:`repro.batch` job; every backend and
        worker count recovers the exact same warping paths (the DP
        tie-break is backend-invariant), so the learned radii are
        identical in every context.

    Returns
    -------
    list[int]
        One radius per row, ``>= slack``.
    """
    if len(series) < 2:
        raise ValueError("need at least two training series")
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    for i, s in enumerate(series):
        validate_series(s, f"series {i}")
    if labels is not None and len(labels) != len(series):
        raise ValueError("labels must match series")
    if slack < 0 or smooth < 0:
        raise ValueError("slack and smooth must be non-negative")
    rt = Runtime.resolve(runtime)
    n = lengths.pop()

    # group indices by class (or one group for unlabelled data)
    groups: dict = {}
    for idx in range(len(series)):
        key = labels[idx] if labels is not None else None
        groups.setdefault(key, []).append(idx)

    # the capped, deterministic pair order (first pairs per class)
    pair_indices: List[Tuple[int, int]] = []
    for members in groups.values():
        pairs = 0
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if pairs >= max_pairs_per_class:
                    break
                pair_indices.append((members[a], members[b]))
                pairs += 1
            if pairs >= max_pairs_per_class:
                break
    if not pair_indices:
        raise ValueError(
            "no same-class pairs to align; provide more series per class"
        )

    radii = [0] * n
    for path in _alignment_paths(series, pair_indices, rt):
        for i, j in path:
            dev = abs(j - i)
            if dev > radii[i]:
                radii[i] = dev

    # sliding-maximum smoothing plus slack
    if smooth:
        smoothed = [
            max(radii[max(0, i - smooth):min(n, i + smooth + 1)])
            for i in range(n)
        ]
    else:
        smoothed = list(radii)
    return [r + slack for r in smoothed]


def _alignment_paths(series, pair_indices, rt: Runtime):
    """Full-DTW warping paths for ``pair_indices``, in order.

    The serial context aligns pair by pair in the pure engine, which
    computes every path whatever the backend; a parallel one computes
    all alignments as a single :mod:`repro.batch` job.  Both recover
    identical paths.
    """
    if rt.parallel:
        from ..batch.engine import batch_distances

        result = batch_distances(
            [list(s) for s in series],
            pairs=pair_indices,
            measure="dtw",
            return_paths=True,
            runtime=rt,
        )
        return list(result.paths)
    return [
        dtw(series[a], series[b], return_path=True).path
        for a, b in pair_indices
    ]


def window_from_radii(radii: Sequence[int], m: Optional[int] = None) -> Window:
    """Build a feasible window from per-row radii.

    ``m`` defaults to ``len(radii)`` (the equal-length classification
    setting).
    """
    n = len(radii)
    if n < 1:
        raise ValueError("need at least one radius")
    if any(r < 0 for r in radii):
        raise ValueError("radii must be non-negative")
    m = n if m is None else m
    slope = (m - 1) / (n - 1) if n > 1 else 0.0
    cells = []
    for i, r in enumerate(radii):
        centre = i * slope
        lo = max(0, int(centre - r))
        hi = min(m - 1, int(centre + r + 0.5))
        cells.append((i, lo))
        cells.append((i, hi))
    return Window.from_cells(n, m, cells)


def learned_band_dtw(
    x: Sequence[float],
    y: Sequence[float],
    radii: Sequence[int],
    cost: str = "squared",
    return_path: bool = False,
    abandon_above: Optional[float] = None,
    runtime: Optional[Runtime] = None,
) -> DtwResult:
    """Exact DTW constrained to a learned band.

    ``radii`` must have been learned for series of ``len(x)`` rows.
    Only the runtime's kernel backend applies (one DP is not worth a
    fan-out), through :func:`repro.core.kernels.stacked_kernels`: a
    plain distance on ``"numpy"`` is a one-pair stacked call, a path
    or an abandoning DP runs the pure engine.  The result is
    bit-identical on every backend.
    """
    if len(x) != len(radii):
        raise ValueError(
            f"learned radii are for length {len(radii)}, got {len(x)}"
        )
    rt = Runtime.resolve(runtime)
    window = window_from_radii(radii, len(y))
    kernels = stacked_kernels(rt.backend_name, return_path, abandon_above)
    if kernels is None:
        return dp_over_window(
            x, y, window, cost=cost, return_path=return_path,
            abandon_above=abandon_above,
        )
    from ..core.measures import _one_pair
    from ..core.validate import validate_pair

    validate_pair(x, y)
    return _one_pair(kernels, x, y, window, cost)
