"""DTW core: exact full/constrained DTW and the FastDTW approximation.

This package is the subject of the paper: both contenders --
exact constrained DTW (:func:`cdtw`) and the approximate
:func:`fastdtw` -- implemented from scratch over one shared
dynamic-programming engine, so every timing comparison is
like-for-like.
"""

from .cost import BUILTIN_COSTS, absolute_cost, resolve_cost, squared_cost
from .cdtw import band_cells, cdtw
from .downsample_dtw import DownsampledDtwResult, downsampled_dtw
from .dtw import dtw, windowed_dtw
from .engine import DtwResult, dp_over_window
from .error import approximation_error, approximation_error_percent
from .euclidean import euclidean, euclidean_l2
from .fastdtw import (
    FastDtwLevel,
    FastDtwResult,
    fastdtw,
    fastdtw_cell_estimate,
)
from .fastdtw_reference import fastdtw_reference
from .kernels import (
    KernelSet,
    available_backends,
    default_backend,
    get_kernels,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from .matrix import DistanceMatrix, distance_matrix
from .measures import (
    CELL_COUNTED_MEASURES,
    MEASURES,
    RLE_MEASURES,
    measure_fn,
    pair_cost_model,
    split_result,
    validate_measure,
)
from .multivariate import (
    cdtw_nd,
    dtw_nd,
    fastdtw_nd,
    halve_nd,
    interleave,
    magnitude,
    vector_abs_cost,
    vector_squared_cost,
)
from .validate import validate_pair, validate_series
from .paa import halve, paa, paa_factor
from .path import InvalidPathError, WarpingPath, diagonal_path
from .rle import RleSeries, as_rle, rle_dtw
from .window import Window

__all__ = [
    "BUILTIN_COSTS",
    "CELL_COUNTED_MEASURES",
    "DistanceMatrix",
    "MEASURES",
    "DownsampledDtwResult",
    "DtwResult",
    "FastDtwLevel",
    "FastDtwResult",
    "InvalidPathError",
    "KernelSet",
    "RLE_MEASURES",
    "RleSeries",
    "WarpingPath",
    "Window",
    "absolute_cost",
    "approximation_error",
    "approximation_error_percent",
    "as_rle",
    "available_backends",
    "band_cells",
    "cdtw",
    "cdtw_nd",
    "default_backend",
    "diagonal_path",
    "distance_matrix",
    "downsampled_dtw",
    "dp_over_window",
    "dtw",
    "dtw_nd",
    "euclidean",
    "euclidean_l2",
    "fastdtw",
    "fastdtw_cell_estimate",
    "fastdtw_nd",
    "fastdtw_reference",
    "get_kernels",
    "halve",
    "halve_nd",
    "interleave",
    "magnitude",
    "measure_fn",
    "paa",
    "paa_factor",
    "pair_cost_model",
    "resolve_backend",
    "rle_dtw",
    "resolve_cost",
    "set_default_backend",
    "split_result",
    "squared_cost",
    "use_backend",
    "validate_measure",
    "validate_pair",
    "validate_series",
    "vector_abs_cost",
    "vector_squared_cost",
    "windowed_dtw",
]
