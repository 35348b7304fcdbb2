"""Measurement harness: wall-clock timing and cell-count cost models."""

from .cells import (
    cdtw_cell_model,
    crossover_band,
    crossover_length,
    fastdtw_cell_model,
)
from .runner import (
    PINNED_BACKEND,
    BatchTimingResult,
    PairwiseResult,
    SweepPoint,
    batch_pairwise_experiment,
    find_crossover,
    pairwise_experiment,
    sweep,
)
from .timer import Timing, extrapolate, seconds_to_human, time_callable

__all__ = [
    "BatchTimingResult",
    "PINNED_BACKEND",
    "PairwiseResult",
    "SweepPoint",
    "Timing",
    "batch_pairwise_experiment",
    "cdtw_cell_model",
    "crossover_band",
    "crossover_length",
    "extrapolate",
    "fastdtw_cell_model",
    "find_crossover",
    "pairwise_experiment",
    "seconds_to_human",
    "sweep",
    "time_callable",
]
