"""Ahead-of-time dataset indexing for repeated exact-cDTW search.

See :mod:`repro.index.dataset_index` for the design.  Public surface:

* :func:`build_index` / :func:`build_stream_index` -- precompute
  per-series artifacts (prepared series, Keogh envelopes, endpoint
  features, moments) for a collection or a stream's sliding windows;
* :func:`save_index` / :func:`load_index` -- the versioned,
  fingerprint-verified on-disk format;
* :class:`DatasetIndex.searcher` -- the query driver consumers use
  through the ``index=`` argument of ``nearest_neighbor``,
  ``subsequence_search``, the classifiers, ``find_discord`` and
  ``find_motif``;
* :func:`index_benchmark` -- the pruning-power report behind
  ``BENCH_index.json``.

The paper harness (:mod:`repro.timing`, :mod:`repro.experiments`) is
deliberately index-free -- the source-scan tests enforce it -- so the
reproduced numbers keep measuring the per-query machinery the paper
describes.
"""

from .bench import format_index_report, index_benchmark
from .dataset_index import (
    DatasetIndex,
    IndexMismatchError,
    build_index,
    build_stream_index,
)
from .search import IndexSearcher
from .storage import FORMAT, load_index, save_index

__all__ = [
    "FORMAT",
    "DatasetIndex",
    "IndexMismatchError",
    "IndexSearcher",
    "build_index",
    "build_stream_index",
    "format_index_report",
    "index_benchmark",
    "load_index",
    "save_index",
]
