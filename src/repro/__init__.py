"""repro: reproduction of Wu & Keogh, "FastDTW is Approximate and
Generally Slower than the Algorithm it Approximates" (ICDE 2021).

The package implements, from scratch, both sides of the paper's
comparison -- exact constrained DTW and the FastDTW approximation --
together with the lower-bounding/early-abandoning machinery, 1-NN
classification, hierarchical clustering, the synthetic workloads behind
every figure, and a benchmark harness that regenerates each table and
figure of the paper.

Quickstart
----------
>>> from repro import dtw, fastdtw
>>> x = [0.0, 1.0, 2.0, 1.0, 0.0]
>>> y = [0.0, 0.0, 1.0, 2.0, 1.0]
>>> exact = dtw(x, y)
>>> approx = fastdtw(x, y, radius=1)
>>> exact.distance <= approx.distance  # FastDTW upper-bounds Full DTW
True
"""

from .batch import BatchExecutor, BatchResult, batch_distances
from .core import (
    DtwResult,
    FastDtwResult,
    KernelSet,
    RleSeries,
    WarpingPath,
    Window,
    approximation_error_percent,
    available_backends,
    cdtw,
    default_backend,
    dtw,
    euclidean,
    fastdtw,
    get_kernels,
    halve,
    paa,
    rle_dtw,
    set_default_backend,
    use_backend,
    windowed_dtw,
)
from .index import (
    DatasetIndex,
    IndexMismatchError,
    build_index,
    build_stream_index,
    load_index,
    save_index,
)
from .obs import RunTrace, TraceSnapshot, active_trace
from .runtime import (
    Runtime,
    default_runtime,
    set_default_runtime,
    use_runtime,
)

__version__ = "1.0.0"

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "DatasetIndex",
    "DtwResult",
    "FastDtwResult",
    "IndexMismatchError",
    "KernelSet",
    "RleSeries",
    "RunTrace",
    "Runtime",
    "TraceSnapshot",
    "WarpingPath",
    "Window",
    "active_trace",
    "approximation_error_percent",
    "available_backends",
    "batch_distances",
    "build_index",
    "build_stream_index",
    "cdtw",
    "default_backend",
    "default_runtime",
    "dtw",
    "euclidean",
    "fastdtw",
    "get_kernels",
    "halve",
    "load_index",
    "paa",
    "rle_dtw",
    "save_index",
    "set_default_backend",
    "set_default_runtime",
    "use_backend",
    "use_runtime",
    "windowed_dtw",
    "__version__",
]
