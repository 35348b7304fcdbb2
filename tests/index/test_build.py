"""Building a DatasetIndex: artifacts, parameters, verification.

The index's whole value is that its precomputed artifacts are
*bit-identical* to what the live query path would compute -- envelopes
via the same kernels, z-normalised windows via the same ``znorm``,
moments via the same formulas.  These tests pin that, plus the
degenerate bands (constant series, length-2 series, band 0, band wider
than the series) and the verification API that gates every consumer.
"""

import math

import pytest

from repro.batch.shm import pack_dataset
from repro.index import (
    DatasetIndex,
    IndexMismatchError,
    build_index,
    build_stream_index,
)
from repro.lowerbounds.envelope import envelope
from repro.preprocess.normalize import znorm
from repro.preprocess.sliding import sliding_windows
from tests.conftest import make_series

SERIES = [make_series(20, seed=300 + i) for i in range(6)]
STREAM = make_series(60, seed=310)


class TestCollectionArtifacts:
    def test_series_stored_verbatim(self):
        idx = build_index(SERIES, band=2)
        assert [list(s) for s in idx.series] == SERIES
        assert idx.kind == "collection"
        assert idx.normalize is False
        assert idx.starts == ()
        assert idx.step == 1
        assert idx.window == 20
        assert len(idx) == 6
        assert idx.length == 20

    def test_envelopes_match_live_path(self):
        idx = build_index(SERIES, band=3)
        for i, s in enumerate(SERIES):
            env = envelope(s, 3)
            assert list(idx.upper[i]) == env.upper
            assert list(idx.lower[i]) == env.lower
            stored = idx.envelope(i)
            assert stored.band == 3
            assert stored.upper == env.upper
            assert stored.lower == env.lower

    def test_kim_endpoint_features(self):
        idx = build_index(SERIES, band=2)
        assert list(idx.kim) == [(s[0], s[-1]) for s in SERIES]

    def test_moments_match_znorm_formulas(self):
        idx = build_index(SERIES, band=2)
        for (mean, std), s in zip(idx.moments, SERIES):
            n = len(s)
            want_mean = sum(s) / n
            want_std = math.sqrt(
                sum((v - want_mean) ** 2 for v in s) / n
            )
            assert mean == want_mean
            assert std == want_std

    def test_normalized_collection_stores_znormed_views(self):
        idx = build_index(SERIES, band=2, normalize=True)
        assert [list(s) for s in idx.series] == [
            znorm(s) for s in SERIES
        ]
        # moments still describe the raw values
        assert idx.moments[0][0] == sum(SERIES[0]) / len(SERIES[0])

    def test_fingerprint_is_the_shm_content_hash(self):
        idx = build_index(SERIES, band=2)
        _, _, want = pack_dataset(SERIES)
        assert idx.source_fingerprint == want


class TestStreamArtifacts:
    def test_windows_match_sliding_plus_znorm(self):
        idx = build_stream_index(STREAM, window=12, band=2)
        want_starts, want_windows = [], []
        for start, w in sliding_windows(STREAM, 12, 1):
            want_starts.append(start)
            want_windows.append(znorm(w))
        assert list(idx.starts) == want_starts
        assert [list(s) for s in idx.series] == want_windows
        assert idx.kind == "windows"
        assert idx.normalize is True
        assert idx.window == 12

    def test_step_and_raw_windows(self):
        idx = build_stream_index(
            STREAM, window=10, band=1, step=4, normalize=False
        )
        assert list(idx.starts) == list(range(0, len(STREAM) - 10 + 1, 4))
        assert list(idx.series[0]) == STREAM[:10]

    def test_fingerprint_hashes_the_stream(self):
        idx = build_stream_index(STREAM, window=12, band=2)
        _, _, want = pack_dataset([STREAM])
        assert idx.source_fingerprint == want


class TestDegenerateBands:
    def test_constant_series_envelope_is_flat(self):
        flat = [[2.5] * 8, [0.0] * 8]
        for band in (0, 1, 8, 20):
            idx = build_index(flat, band=band)
            for i, s in enumerate(flat):
                assert list(idx.upper[i]) == s
                assert list(idx.lower[i]) == s

    def test_length_two_series(self):
        short = [[0.0, 1.0], [3.0, -2.0], [1.0, 1.0]]
        for band in (0, 1, 2, 5):
            idx = build_index(short, band=band)
            for i, s in enumerate(short):
                env = envelope(s, band)
                assert list(idx.upper[i]) == env.upper
                assert list(idx.lower[i]) == env.lower
        # band 0: the envelope is the series itself
        idx0 = build_index(short, band=0)
        assert [list(u) for u in idx0.upper] == short
        assert [list(l) for l in idx0.lower] == short

    def test_band_wider_than_series_is_global_extremes(self):
        idx = build_index(SERIES, band=100)
        for i, s in enumerate(SERIES):
            assert set(idx.upper[i]) == {max(s)}
            assert set(idx.lower[i]) == {min(s)}

    def test_constant_window_stream_znorm_zeroes(self):
        stream = [1.0] * 6 + make_series(10, seed=320)
        idx = build_stream_index(stream, window=6, band=1)
        # the first window is constant; znorm maps it to all zeros and
        # its envelope is flat zero
        assert list(idx.series[0]) == [0.0] * 6
        assert list(idx.upper[0]) == [0.0] * 6
        assert list(idx.lower[0]) == [0.0] * 6


class TestRequireAndVerify:
    def test_require_passes_and_chains(self):
        idx = build_index(SERIES, band=2)
        assert idx.require(kind="collection", band=2, length=20,
                           count=6) is idx

    def test_require_names_the_differing_field(self):
        idx = build_index(SERIES, band=2)
        with pytest.raises(IndexMismatchError, match="band is 2"):
            idx.require(band=5)
        with pytest.raises(IndexMismatchError, match="kind"):
            idx.require(kind="windows")
        with pytest.raises(IndexMismatchError, match="normalize"):
            idx.require(normalize=True)

    def test_require_unknown_key_is_a_type_error(self):
        idx = build_index(SERIES, band=2)
        with pytest.raises(TypeError, match="unknown index requirement"):
            idx.require(bands=2)

    def test_verify_collection_accepts_the_source(self):
        idx = build_index(SERIES, band=2)
        assert idx.verify_collection(SERIES) is idx

    def test_verify_collection_rejects_one_mutated_sample(self):
        idx = build_index(SERIES, band=2)
        mutated = [list(s) for s in SERIES]
        mutated[3][7] += 1e-9
        with pytest.raises(IndexMismatchError,
                           match="fingerprint mismatch"):
            idx.verify_collection(mutated)

    def test_verify_stream_rejects_different_stream(self):
        idx = build_stream_index(STREAM, window=12, band=2)
        assert idx.verify_stream(STREAM) is idx
        with pytest.raises(IndexMismatchError,
                           match="fingerprint mismatch"):
            idx.verify_stream(STREAM[:-1])

    def test_verify_wrong_kind_rejected(self):
        coll = build_index(SERIES, band=2)
        with pytest.raises(IndexMismatchError, match="kind"):
            coll.verify_stream(STREAM)
        wins = build_stream_index(STREAM, window=12, band=2)
        with pytest.raises(IndexMismatchError, match="kind"):
            wins.verify_collection(SERIES)

    def test_mismatch_error_is_a_value_error(self):
        assert issubclass(IndexMismatchError, ValueError)


class TestBuildErrors:
    def test_empty_collection(self):
        with pytest.raises(ValueError, match="empty collection"):
            build_index([], band=2)

    def test_ragged_collection(self):
        with pytest.raises(ValueError, match="equal-length"):
            build_index([SERIES[0], SERIES[1][:10]], band=2)

    def test_negative_band(self):
        with pytest.raises(ValueError, match="band"):
            build_index(SERIES, band=-1)
        with pytest.raises(ValueError, match="band"):
            build_stream_index(STREAM, window=12, band=-1)

    def test_stream_shorter_than_window(self):
        with pytest.raises(ValueError, match="shorter than window"):
            build_stream_index(STREAM[:5], window=12, band=2)

    def test_bad_window_or_step(self):
        with pytest.raises(ValueError, match="positive"):
            build_stream_index(STREAM, window=0, band=2)
        with pytest.raises(ValueError, match="positive"):
            build_stream_index(STREAM, window=12, band=2, step=0)

    def test_dataclass_validation_rejects_ragged_blocks(self):
        idx = build_index(SERIES, band=2)
        with pytest.raises(ValueError, match="ragged"):
            DatasetIndex(
                kind=idx.kind, band=idx.band, normalize=idx.normalize,
                step=idx.step, window=idx.window, starts=idx.starts,
                source_fingerprint=idx.source_fingerprint,
                series=idx.series, upper=idx.upper[:-1],
                lower=idx.lower, kim=idx.kim, moments=idx.moments,
            )

    def test_dataclass_validation_rejects_unknown_kind(self):
        idx = build_index(SERIES, band=2)
        with pytest.raises(ValueError, match="kind"):
            DatasetIndex(
                kind="streams", band=idx.band, normalize=idx.normalize,
                step=idx.step, window=idx.window, starts=idx.starts,
                source_fingerprint=idx.source_fingerprint,
                series=idx.series, upper=idx.upper, lower=idx.lower,
                kim=idx.kim, moments=idx.moments,
            )


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_index_is_backend_invariant(backend):
    """Envelope values are pure selections: one index serves every
    backend, bit for bit."""
    if backend == "numpy":
        pytest.importorskip("numpy")
    from repro.runtime import Runtime

    base = build_index(SERIES, band=3)
    other = build_index(SERIES, band=3, runtime=Runtime(backend=backend))
    assert other == base


class TestSingleChannelVectors:
    """An index records univariate data as ``dims=1``, so ``(length, 1)``
    vector samples are refused up front, with the fix named."""

    def test_collection_refused(self):
        rows = [[(v,) for v in s] for s in SERIES]
        with pytest.raises(ValueError, match=r"\(length, 1\).*flat series"):
            build_index(rows, band=2)

    def test_stream_refused(self):
        with pytest.raises(ValueError, match=r"stream is shaped \(length, 1\)"):
            build_stream_index([(v,) for v in STREAM], window=10, band=2)

    def test_flat_and_two_channel_collections_still_index(self):
        assert build_index(SERIES, band=2).dims == 1
        rows = [[(v, -v) for v in s] for s in SERIES]
        assert build_index(rows, band=2).dims == 2
