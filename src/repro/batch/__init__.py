"""Parallel batch execution of independent distance computations.

The paper's repeated-use workloads (all-pairs matrices, 1-NN scans,
LOOCV, clustering) decompose into thousands of independent pairwise
calls.  :func:`batch_distances` runs such a batch over a
:class:`BatchExecutor` pool with cost-model chunk scheduling
(:mod:`repro.batch.schedule`), per-worker series-artefact caching,
deterministic result ordering and merged DP-cell accounting;
``workers=1`` (the default everywhere) is the exact serial
computation, and ``workers=N`` alone builds a pool scoped to the
call.  For repeated-use workloads, a long-lived
:class:`BatchExecutor` keeps its pool warm across calls and ships
each dataset once over shared memory (:mod:`repro.batch.shm`) --
pass it (or ``"default"``) as ``executor=`` to any batch entry
point.  The
serial-vs-parallel equivalence contract is enforced by the property
suite in ``tests/batch/``.
"""

from .cache import CacheStats, SeriesCache
from .engine import (
    BatchResult,
    BatchSpec,
    all_pairs,
    argmin_first,
    batch_distances,
    batch_lb_keogh,
)
from .executor import (
    BatchExecutor,
    ExecutorStats,
    default_executor,
    resolve_executor,
    shutdown_default_executor,
)
from .schedule import chunk_cost_summary, distance_pair_cost, lb_pair_cost, plan_chunks
from .shm import pack_dataset, shm_available

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "BatchSpec",
    "CacheStats",
    "ExecutorStats",
    "SeriesCache",
    "all_pairs",
    "argmin_first",
    "batch_distances",
    "batch_lb_keogh",
    "chunk_cost_summary",
    "default_executor",
    "distance_pair_cost",
    "lb_pair_cost",
    "pack_dataset",
    "plan_chunks",
    "resolve_executor",
    "shm_available",
    "shutdown_default_executor",
]
