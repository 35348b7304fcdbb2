"""The canonical measure registry and its pairwise dispatch.

Every subsystem that loops over "all the measures the paper compares"
-- the all-pairs matrix, 1-NN classification, the batch engine, the
CLI -- must agree on what those measures are.  Historically
:mod:`repro.core.matrix` and :mod:`repro.classify.knn` each kept their
own tuple and they drifted (``"fastdtw_reference"`` existed in one but
not the other).  This module is now the single source of truth: the
:data:`MEASURES` tuple plus :func:`measure_fn`, the one place a measure
name is turned into a pairwise distance callable.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .cdtw import cdtw
from .cost import CostLike, cost_name
from .dtw import dtw
from .engine import DtwResult
from .euclidean import euclidean
from .fastdtw import fastdtw
from .fastdtw_reference import fastdtw_reference
from .window import Window

#: The canonical registry: every pairwise measure the package compares.
MEASURES = (
    "dtw", "cdtw", "fastdtw", "fastdtw_reference", "euclidean",
    "rle_dtw",
    "dtw_d", "cdtw_d", "dtw_i", "cdtw_i",
)

#: Measures whose results carry DP-cell provenance (Euclidean is O(n),
#: no lattice, and always reports zero cells).
CELL_COUNTED_MEASURES = (
    "dtw", "cdtw", "fastdtw", "fastdtw_reference", "rle_dtw",
    "dtw_d", "cdtw_d", "dtw_i", "cdtw_i",
)

#: The compressed-domain exact measures (run-length encoded input).
RLE_MEASURES = ("rle_dtw",)

#: The multivariate measures: input series are shaped ``(length,
#: dims)`` (every sample an equal-length vector).  ``_d`` is dependent
#: DTW (one DP, per-sample squared-Euclidean local cost); ``_i`` is
#: independent DTW (per-channel scalar DTWs summed, so
#: ``DTW_I <= DTW_D`` for the squared cost).
ND_MEASURES = ("dtw_d", "cdtw_d", "dtw_i", "cdtw_i")

#: The nd measures that take a band (exactly one of window=/band=).
ND_BANDED_MEASURES = ("cdtw_d", "cdtw_i")

PairwiseFn = Callable[[Sequence[float], Sequence[float]], object]


def validate_measure(measure: str) -> None:
    """Raise ``ValueError`` unless ``measure`` is in :data:`MEASURES`."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; pick from {MEASURES}")


def measure_fn(
    measure: str,
    window: Optional[float] = None,
    band: Optional[int] = None,
    radius: int = 1,
    cost: CostLike = "squared",
    return_path: bool = False,
    backend: Optional[str] = None,
) -> PairwiseFn:
    """Build the pairwise callable for one measure configuration.

    Parameters
    ----------
    measure:
        One of :data:`MEASURES`.
    window, band:
        cDTW constraint (exactly one, for ``measure="cdtw"`` and the
        banded multivariate measures).
    radius:
        FastDTW radius (for the fastdtw measures).
    cost:
        Local cost name or callable.
    return_path:
        Ask the exact measures to also recover the warping path (the
        fastdtw measures always return one; Euclidean has none).
    backend:
        Kernel backend for the exact DP measures (``"dtw"``/``"cdtw"``
        and the multivariate measures), resolved via
        :func:`repro.core.kernels.resolve_backend` (``None`` = the
        process default).  On ``"numpy"`` a plain distance is a
        one-pair stacked kernel call, which requires a named ``cost``;
        a path comes from the pure engine on every backend
        (:func:`repro.core.kernels.stacked_kernels`).  Distances,
        cells and paths are bit-identical across backends.
        ``"rle_dtw"``, the fastdtw measures and Euclidean always run
        their reference implementations.

    Returns
    -------
    PairwiseFn
        ``fn(x, y)`` returning a result object (or a bare float for
        ``"euclidean"``); unwrap uniformly with :func:`split_result`.
    """
    validate_measure(measure)
    from .kernels import resolve_backend, stacked_kernels

    if measure == "cdtw" and (window is None) == (band is None):
        raise ValueError("specify exactly one of window= or band=")
    resolved = resolve_backend(backend)
    if measure == "rle_dtw":
        from .rle import rle_dtw

        return lambda x, y: rle_dtw(
            x, y, cost=cost, return_path=return_path
        )
    if measure in ND_MEASURES:
        return _nd_measure_fn(
            measure, stacked_kernels(resolved, return_path), window,
            band, cost, return_path,
        )
    if measure in ("dtw", "cdtw"):
        kernels = stacked_kernels(resolved, return_path)
        if kernels is not None:
            return _kernel_measure_fn(measure, kernels, window, band, cost)
    if measure == "dtw":
        return lambda x, y: dtw(x, y, cost=cost, return_path=return_path)
    if measure == "cdtw":
        return lambda x, y: cdtw(
            x, y, window=window, band=band, cost=cost,
            return_path=return_path,
        )
    if measure == "fastdtw":
        return lambda x, y: fastdtw(x, y, radius=radius, cost=cost)
    if measure == "fastdtw_reference":
        return lambda x, y: fastdtw_reference(x, y, radius=radius, cost=cost)
    return lambda x, y: euclidean(x, y, cost=cost)


def _one_pair(kernels, x, y, window, cost) -> DtwResult:
    """``dtw_chunk`` over the one pair ``(x, y)``, as the engine's
    result (``cells`` is the window's, as the engine counts them)."""
    distance = kernels.dtw_chunk((x,), (y,), window, cost=cost)[0]
    return DtwResult(float(distance), None, window.cell_count(),
                     cost_name(cost))


def _kernel_measure_fn(
    measure: str,
    kernels,
    window: Optional[float],
    band: Optional[int],
    cost: CostLike,
) -> PairwiseFn:
    """The plain dtw/cdtw distance as one-pair stacked kernel calls.

    Mirrors :func:`repro.core.dtw.dtw` / :func:`repro.core.cdtw.cdtw`
    exactly (same validation, same memoised window constructors).
    """
    from .validate import validate_pair

    def fn(x, y):
        validate_pair(x, y)
        win = _measure_window(measure, len(x), len(y), window, band)
        return _one_pair(kernels, x, y, win, cost)
    return fn


def _measure_window(
    measure: str, n: int, m: int,
    window: Optional[float], band: Optional[int],
) -> Window:
    """The (memoised) lattice window a dtw/cdtw-family measure runs over."""
    if measure in ("dtw", "dtw_d", "dtw_i"):
        return Window.full(n, m)
    if window is not None:
        return Window.from_fraction(n, m, window)
    return Window.band(n, m, band)


def _nd_measure_fn(
    measure: str,
    kernels,
    window: Optional[float],
    band: Optional[int],
    cost: CostLike,
    return_path: bool,
) -> PairwiseFn:
    """The multivariate measure callable.

    ``kernels`` is :func:`repro.core.kernels.stacked_kernels`'s pick.
    Without one, the pure engine runs via :mod:`repro.core.multivariate`.
    With one, the dependent measures (``dtw_d``/``cdtw_d``) are
    one-pair ``dtw_chunk`` calls over a ``(1, n, dims)`` stack, whose
    channel axis selects the per-sample vector cost, and the
    independent measures (``dtw_i``/``cdtw_i``) are
    per-channel *scalar* DTWs summed in channel order, each channel a
    one-pair ``dtw_chunk`` call -- the sum of bit-identical terms is
    bit-identical.
    """
    from .multivariate import (
        _as_vectors,
        _check_same_dim,
        _resolve_vector_cost,
        cdtw_i,
        cdtw_nd,
        dtw_i,
        dtw_nd,
        independent_nd,
    )

    if measure in ND_BANDED_MEASURES:
        if (window is None) == (band is None):
            raise ValueError("specify exactly one of window= or band=")
    elif window is not None or band is not None:
        raise ValueError(
            f"measure {measure!r} takes no window=/band= "
            "(it is unconstrained; use cdtw_d/cdtw_i for banded)"
        )

    if kernels is None:
        if measure == "dtw_d":
            return lambda x, y: dtw_nd(
                x, y, cost=cost, return_path=return_path
            )
        if measure == "cdtw_d":
            return lambda x, y: cdtw_nd(
                x, y, window=window, band=band, cost=cost,
                return_path=return_path,
            )
        if measure == "dtw_i":
            return lambda x, y: dtw_i(
                x, y, cost=cost, return_path=return_path
            )
        return lambda x, y: cdtw_i(
            x, y, window=window, band=band, cost=cost,
            return_path=return_path,
        )

    if measure in ("dtw_d", "cdtw_d"):
        def dependent_fn(x, y):
            vx = _as_vectors(x, "series x")
            vy = _as_vectors(y, "series y")
            _check_same_dim(vx, vy)
            win = _measure_window(measure, len(vx), len(vy), window, band)
            distance = kernels.dtw_chunk((vx,), (vy,), win, cost=cost)[0]
            # named after the vector cost, as the engine names it
            return DtwResult(float(distance), None, win.cell_count(),
                             cost_name(_resolve_vector_cost(cost)))
        return dependent_fn

    # measure_fn never abandons, so each channel's budget is None
    def channel(cx, cy, _budget):
        win = _measure_window(measure, len(cx), len(cy), window, band)
        return _one_pair(kernels, cx, cy, win, cost)

    return lambda x, y: independent_nd(x, y, channel, cost=cost)


def pair_cost_model(
    measure: str,
    lengths: Sequence[int],
    window: Optional[float] = None,
    band: Optional[int] = None,
    radius: int = 1,
    run_counts: Optional[Sequence[int]] = None,
    dims: int = 1,
) -> Callable[[int, int], int]:
    """Per-pair predicted DP-cell cost function for one measure spec.

    This is the scheduler's cost model, kept beside the measure
    registry so a measure cannot exist without a declared price:
    unknown measures raise instead of silently falling back to a wrong
    model (the bug the old hardcoded dtw/cdtw/fastdtw branch had).

    Prices per pair ``(i, j)`` with ``n = lengths[i]``,
    ``m = lengths[j]``:

    * ``dtw`` -- ``n * m`` (the full lattice, exact);
    * ``cdtw`` -- :func:`repro.core.cdtw.band_cells` (exact window
      geometry, corner clipping included);
    * ``fastdtw``/``fastdtw_reference`` -- Salvador & Chan's own
      ``N * (8r + 14)`` accounting;
    * ``euclidean`` -- ``min(n, m)`` (one cell-equivalent per sample);
    * ``rle_dtw`` -- ``k*m + l*n`` with ``k``/``l`` the run counts
      from ``run_counts`` (required for this measure; the exact
      boundary-cell count of the block DP);
    * ``dtw_d``/``dtw_i`` -- ``dims * n * m`` and ``cdtw_d``/
      ``cdtw_i`` -- ``dims *`` :func:`~repro.core.cdtw.band_cells`
      (the dependent DP does ``dims`` subtractions per lattice cell;
      the independent measures run ``dims`` scalar DPs over the same
      geometry -- the same total either way).  ``dims`` must be the
      dataset's sample dimensionality for these measures.

    Costs are memoized per shape, so planning a large batch over
    equal-length series prices each shape once.
    """
    validate_measure(measure)
    if measure in RLE_MEASURES and run_counts is None:
        raise ValueError(
            f"measure {measure!r} needs run_counts= to be priced "
            "(the k*m + l*n cost model)"
        )
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    cache: dict = {}

    def cost(i: int, j: int) -> int:
        n, m = lengths[i], lengths[j]
        if measure in RLE_MEASURES:
            key = (n, m, run_counts[i], run_counts[j])
        else:
            key = (n, m)
        cells = cache.get(key)
        if cells is None:
            if measure == "dtw":
                cells = n * m
            elif measure == "cdtw":
                from .cdtw import band_cells

                cells = band_cells(n, m, window=window, band=band)
            elif measure in ("fastdtw", "fastdtw_reference"):
                from ..timing.cells import fastdtw_cell_model

                cells = fastdtw_cell_model(max(n, m), radius)
            elif measure in RLE_MEASURES:
                k, l = run_counts[i], run_counts[j]
                cells = k * m + l * n
            elif measure in ("dtw_d", "dtw_i"):
                cells = dims * n * m
            elif measure in ND_BANDED_MEASURES:
                from .cdtw import band_cells

                cells = dims * band_cells(n, m, window=window, band=band)
            else:  # euclidean: linear, no lattice
                cells = min(n, m)
            cells = max(1, cells)
            cache[key] = cells
        return cells

    return cost


def split_result(result: object) -> Tuple[float, int, object]:
    """Uniform ``(distance, cells, path)`` view of any measure's result.

    Accepts both the rich result objects (``DtwResult``,
    ``FastDtwResult``) and the bare float Euclidean returns.
    """
    if isinstance(result, float):
        return result, 0, None
    return (
        result.distance,
        getattr(result, "cells", 0),
        getattr(result, "path", None),
    )
