"""Seeded property tests for :class:`DistanceMatrix` invariants.

Whatever the measure, an all-pairs matrix must be symmetric with a
zero diagonal, ``nearest_to`` must never return the query itself and
must break ties deterministically towards the smallest index.  These
are the invariants the clustering and 1-NN consumers rely on.
"""

from __future__ import annotations

import random

import pytest

from repro.core.matrix import MEASURES, distance_matrix
from repro.core.measures import ND_MEASURES

MEASURE_KWARGS = {
    "dtw": {},
    "cdtw": {"window": 0.25},
    "fastdtw": {"radius": 1},
    "fastdtw_reference": {"radius": 1},
    "euclidean": {},
    "rle_dtw": {},
    "dtw_d": {},
    "cdtw_d": {"window": 0.25},
    "dtw_i": {},
    "cdtw_i": {"window": 0.25},
}


def random_series_set(seed: int, count: int, length: int):
    rng = random.Random(seed)
    return [
        [rng.uniform(-3.0, 3.0) for _ in range(length)]
        for _ in range(count)
    ]


def random_vector_series_set(seed: int, count: int, length: int,
                             dims: int = 2):
    rng = random.Random(seed)
    return [
        [
            tuple(rng.uniform(-3.0, 3.0) for _ in range(dims))
            for _ in range(length)
        ]
        for _ in range(count)
    ]


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("seed", [0, 7, 42])
class TestMatrixInvariants:
    def build(self, measure, seed):
        if measure in ND_MEASURES:
            series = random_vector_series_set(seed, count=5, length=18)
        else:
            series = random_series_set(seed, count=5, length=18)
        return distance_matrix(
            series, measure=measure, **MEASURE_KWARGS[measure]
        )

    def test_symmetric_with_zero_diagonal(self, measure, seed):
        matrix = self.build(measure, seed)
        k = len(matrix)
        for i in range(k):
            assert matrix[i, i] == 0.0
            for j in range(k):
                assert matrix[i, j] == matrix[j, i]

    def test_distances_non_negative(self, measure, seed):
        matrix = self.build(measure, seed)
        k = len(matrix)
        assert all(
            matrix[i, j] >= 0.0 for i in range(k) for j in range(k)
        )

    def test_nearest_to_never_self(self, measure, seed):
        matrix = self.build(measure, seed)
        for i in range(len(matrix)):
            j = matrix.nearest_to(i)
            assert j != i
            assert 0 <= j < len(matrix)

    def test_nearest_to_is_a_row_minimum(self, measure, seed):
        matrix = self.build(measure, seed)
        for i in range(len(matrix)):
            j = matrix.nearest_to(i)
            row_min = min(
                matrix[i, m] for m in range(len(matrix)) if m != i
            )
            assert matrix[i, j] == row_min


class TestDeterministicTieBreaking:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_duplicate_series_tie_towards_smallest_index(self, measure):
        rng = random.Random(13)
        if measure in ND_MEASURES:
            a = [tuple(rng.uniform(-2, 2) for _ in range(2))
                 for _ in range(16)]
            b = [tuple(rng.uniform(-2, 2) for _ in range(2))
                 for _ in range(16)]
            far = [tuple(c + 10.0 for c in v) for v in a]
        else:
            a = [rng.uniform(-2, 2) for _ in range(16)]
            b = [rng.uniform(-2, 2) for _ in range(16)]
            far = [v + 10.0 for v in a]
        # series 1 and 3 are identical copies of b: from 0's point of
        # view they tie exactly, and nearest_to must pick the smaller
        series = [a, list(b), far, list(b)]
        matrix = distance_matrix(
            series, measure=measure, **MEASURE_KWARGS[measure]
        )
        assert matrix[0, 1] == matrix[0, 3]
        if matrix[0, 1] <= matrix[0, 2]:
            assert matrix.nearest_to(0) == 1

    def test_all_identical_series(self):
        base = [float(v) for v in range(12)]
        series = [list(base) for _ in range(4)]
        matrix = distance_matrix(series, measure="dtw")
        # every off-diagonal distance ties at zero: nearest_to(i) is
        # the smallest index other than i, for every i
        assert [matrix.nearest_to(i) for i in range(4)] == [1, 0, 0, 0]

    def test_rebuild_is_bit_identical(self):
        series = random_series_set(99, count=4, length=20)
        first = distance_matrix(series, measure="cdtw", window=0.2)
        second = distance_matrix(series, measure="cdtw", window=0.2)
        assert first == second
