"""The batch/shm layer's multivariate contract.

Covers the channel-aware :func:`repro.batch.shm.pack_dataset` (with
the load-bearing guarantee that *univariate* payloads and
fingerprints are byte-for-byte unchanged), the dataset-dims
detection and its refusal of mixed/ragged datasets, the
measure-vs-dims gate of :func:`repro.batch.engine.batch_distances`,
and the shared-memory round trip of ``(length, dims)`` series.
"""

import hashlib

import pytest

from repro.batch.engine import batch_distances
from repro.batch.shm import ShmDataset, dataset_dims, pack_dataset
from repro.core.measures import ND_MEASURES
from repro.core.multivariate import cdtw_nd
from tests.conftest import make_series, make_vectors


class TestDatasetDims:
    def test_univariate_is_none(self):
        assert dataset_dims([make_series(8, 0), make_series(5, 1)]) is None

    def test_multivariate_reports_dims(self):
        assert dataset_dims([make_vectors(8, 3, 0)]) == 3

    def test_mixed_rejected(self):
        with pytest.raises(ValueError, match="all-scalar or all"):
            dataset_dims([make_series(8, 0), make_vectors(8, 2, 1)])
        with pytest.raises(ValueError, match="all-scalar or all"):
            dataset_dims([make_vectors(8, 2, 1), make_series(8, 0)])

    def test_ragged_dims_rejected(self):
        with pytest.raises(ValueError, match="dimensional samples"):
            dataset_dims([make_vectors(8, 2, 0), make_vectors(8, 3, 1)])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dataset_dims([[]])


class TestPackDataset:
    def test_univariate_payload_and_fingerprint_golden(self):
        """The exact pre-multivariate bytes: list-vs-tuple rows, and
        a frozen fingerprint recipe (blake2b over payload + lengths),
        so adding the channel axis can never move univariate hashes
        (which would cold every serve/index artifact cache)."""
        series = [[0.0, 1.0, 2.0], [3.0, 4.0]]
        payload, lengths, fp = pack_dataset(series)
        assert lengths == (3, 2)
        assert len(payload) == 5 * 8
        h = hashlib.blake2b(digest_size=16)
        h.update(repr(tuple(lengths)).encode())
        h.update(payload)
        assert fp == h.hexdigest()

    def test_nd_packs_sample_major(self):
        import struct

        series = [[(0.0, 10.0), (1.0, 11.0)]]
        payload, lengths, _ = pack_dataset(series)
        assert lengths == (2,)
        values = struct.unpack("<4d", payload)
        assert values == (0.0, 10.0, 1.0, 11.0)

    def test_nd_fingerprint_differs_from_flat_same_values(self):
        """A (2, 2) dataset and the flat 4-sample dataset share bytes
        but must not share a fingerprint."""
        nd = [[(0.0, 1.0), (2.0, 3.0)]]
        flat = [[0.0, 1.0, 2.0, 3.0]]
        assert pack_dataset(nd)[0] == pack_dataset(flat)[0]
        assert pack_dataset(nd)[2] != pack_dataset(flat)[2]

    def test_nd_fingerprint_carries_dims(self):
        two = [[(0.0, 1.0), (2.0, 3.0)]]
        four = [[(0.0, 1.0, 2.0, 3.0)]]
        assert pack_dataset(two)[0] == pack_dataset(four)[0]
        assert pack_dataset(two)[2] != pack_dataset(four)[2]

    def test_deterministic(self):
        series = [make_vectors(10, 3, 0), make_vectors(8, 3, 1)]
        assert pack_dataset(series)[2] == pack_dataset(series)[2]


class TestMeasureDimsGate:
    @pytest.mark.parametrize("measure", ND_MEASURES)
    def test_nd_measure_rejects_flat_series(self, measure):
        series = [make_series(10, s) for s in range(3)]
        with pytest.raises(ValueError, match="is multivariate"):
            batch_distances(
                series, measure=measure,
                **({"band": 2} if measure.startswith("c") else {}),
            )

    def test_scalar_measure_rejects_nd_series(self):
        series = [make_vectors(10, 2, s) for s in range(3)]
        with pytest.raises(ValueError, match="is univariate"):
            batch_distances(series, measure="cdtw", band=2)

    def test_mixed_dataset_rejected(self):
        series = [make_series(10, 0), make_vectors(10, 2, 1)]
        with pytest.raises(ValueError, match="all-scalar or all"):
            batch_distances(series, measure="cdtw_d", band=2)


class TestNdBatchResults:
    def test_cdtw_d_matches_pairwise(self):
        series = [make_vectors(12, 3, s) for s in range(4)]
        result = batch_distances(series, measure="cdtw_d", band=3)
        idx = 0
        for i in range(4):
            for j in range(i + 1, 4):
                ref = cdtw_nd(series[i], series[j], band=3)
                assert result.distances[idx] == ref.distance
                assert result.cells_per_pair[idx] == ref.cells
                idx += 1

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_backend_worker_grid_bit_identical(self, backend, workers):
        series = [make_vectors(14, 2, s) for s in range(5)]
        reference = batch_distances(series, measure="cdtw_d", band=3)
        got = batch_distances(
            series, measure="cdtw_d", band=3,
            backend=backend, workers=workers,
        )
        assert got.distances == reference.distances
        assert got.cells_per_pair == reference.cells_per_pair

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_three_channel_grid_bit_identical(self, backend, workers):
        # the accelerometer shape: 3 channels, cDTW_D at window 0.1
        series = [make_vectors(40, 3, s) for s in range(6)]
        reference = batch_distances(series, measure="cdtw_d", window=0.1)
        got = batch_distances(
            series, measure="cdtw_d", window=0.1,
            backend=backend, workers=workers,
        )
        assert got.distances == reference.distances
        assert got.cells_per_pair == reference.cells_per_pair


def _ship(series):
    payload, lengths, fp = pack_dataset(series)
    return ShmDataset(payload, lengths, fp, dims=dataset_dims(series))


class TestShmRoundTrip:
    def test_nd_series_survive_shared_memory(self):
        pytest.importorskip("multiprocessing.shared_memory")
        from repro.batch.shm import AttachedDataset

        series = [make_vectors(9, 3, s) for s in range(3)]
        ds = _ship(series)
        try:
            attached = AttachedDataset(ds.descriptor())
            try:
                assert attached.dims == 3
                back = attached.series()
                assert len(back) == 3
                for orig, view in zip(series, back):
                    assert [tuple(v) for v in view] == [
                        tuple(v) for v in orig
                    ]
            finally:
                attached.close()
        finally:
            ds.close()

    def test_univariate_descriptor_shape_unchanged(self):
        """Univariate descriptors keep the historical 4-tuple so old
        unpacking code keeps working; nd descriptors append dims."""
        pytest.importorskip("multiprocessing.shared_memory")
        flat = _ship([make_series(6, 0)])
        try:
            assert len(flat.descriptor()) == 4
        finally:
            flat.close()
        nd = _ship([make_vectors(6, 2, 0)])
        try:
            desc = nd.descriptor()
            assert len(desc) == 5
            assert desc[-1] == 2
        finally:
            nd.close()
