"""Chunk-kernel parity and padding property suite.

The chunk kernels (``dtw_chunk``, ``envelope_chunk``,
``lb_keogh_chunk``) carry the batch engine's stacked fast path, so
their contract is the strongest one in the registry: every real row's
result must be **bit-identical** to the per-pair kernel on the same
inputs, and rows at index ``count`` and beyond are padding that must
never influence results, warnings or validation -- these tests poison
them with NaN/inf on purpose.  The grid fuzzes band fractions
0 / 0.05 / 0.1 / 1.0 and chunk sizes 1 / 2 / 7 / 64, same-length and
ragged collections, and both backends' KernelSet entries.

``dtw_chunk`` and ``envelope_chunk`` take an optional trailing channel
axis: ``(chunk, n)`` stacks of scalar rows or ``(chunk, n, dims)``
stacks of vector samples.  Cases parametrised by ``dims`` run both
(``dims=None`` is the scalar stack); a channel-axis row must equal the
engine with the vector cost, and its envelope the per-channel
envelopes.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from repro.batch.schedule import chunk_band, group_chunk
from repro.core.engine import dp_over_window
from repro.core.kernels import KernelSet, get_kernels
from repro.core.multivariate import vector_abs_cost, vector_squared_cost
from repro.core.numpy_backend import (
    dtw_chunk,
    envelope_chunk,
    lb_keogh_chunk,
)
from repro.core.window import Window
from repro.lowerbounds.envelope import envelope
from repro.lowerbounds.lb_keogh import lb_keogh
from repro.lowerbounds.nd import envelopes_nd
from repro.obs import RunTrace
from tests.conftest import make_series, make_vectors

BAND_FRACTIONS = (0.0, 0.05, 0.1, 1.0)
CHUNK_SIZES = (1, 2, 7, 64)
#: scalar rows, and rows with a channel axis
DIMS = (None, 3)
VECTOR_COSTS = {"squared": vector_squared_cost, "abs": vector_abs_cost}


def window_for(n, m, fraction):
    band = math.ceil(fraction * max(n, m))
    return Window.band(n, m, band)


def make_row(n, seed, dims=None):
    """A scalar series, or ``(n, dims)`` vector samples."""
    return make_series(n, seed) if dims is None else make_vectors(n, dims, seed)


def stacked_pairs(chunk_size, n, m, seed, dims=None):
    xs = [make_row(n, seed + 2 * t, dims) for t in range(chunk_size)]
    ys = [make_row(m, seed + 2 * t + 1, dims) for t in range(chunk_size)]
    return xs, ys


def engine_distance(x, y, win, cost="squared", dims=None):
    """The engine's distance: rows of vector samples take the vector
    cost (the dependent measure)."""
    if dims is not None:
        cost = VECTOR_COSTS[cost]
    return dp_over_window(x, y, win, cost=cost).distance


def channel_envelopes(row, band, dims=None):
    """Reference ``(upper, lower)`` of one row: the scalar envelope,
    or per-channel envelopes laid out sample-major."""
    if dims is None:
        env = envelope(row, band)
        return list(env.upper), list(env.lower)
    envs = envelopes_nd(row, band)
    return (
        [[e.upper[i] for e in envs] for i in range(len(row))],
        [[e.lower[i] for e in envs] for i in range(len(row))],
    )


def as_floats(rows):
    """Envelope rows from either backend as nested float lists."""
    return np.asarray(rows, dtype=np.float64).tolist()


def poisoned_stack(rows, pad_rows, width, dims=None):
    """A scratch stack whose pad rows hold NaN/inf garbage."""
    shape = (len(rows) + pad_rows, width) + (() if dims is None else (dims,))
    buf = np.empty(shape, dtype=np.float64)
    for t, row in enumerate(rows):
        buf[t] = row
    for t in range(len(rows), buf.shape[0]):
        buf[t] = np.nan if t % 2 else np.inf
    return buf


class TestDtwChunkParity:
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("fraction", BAND_FRACTIONS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_bit_identical_to_per_pair(self, fraction, chunk_size, dims):
        n = 30
        xs, ys = stacked_pairs(chunk_size, n, n, seed=100 * chunk_size,
                               dims=dims)
        win = window_for(n, n, fraction)
        for cost in ("squared", "abs"):
            got = dtw_chunk(xs, ys, win, cost=cost)
            assert got.shape == (chunk_size,)
            for t in range(chunk_size):
                ref = engine_distance(xs[t], ys[t], win, cost, dims)
                assert float(got[t]) == ref

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("fraction", (0.1, 1.0))
    def test_ragged_series_parity(self, fraction, dims):
        n, m = 26, 19
        xs, ys = stacked_pairs(5, n, m, seed=7, dims=dims)
        win = window_for(n, m, fraction)
        got = dtw_chunk(xs, ys, win)
        for t in range(5):
            assert float(got[t]) == engine_distance(
                xs[t], ys[t], win, dims=dims
            )

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("pad_rows", (1, 3, 9))
    def test_poisoned_padding_never_leaks(self, pad_rows, dims):
        n = 24
        xs, ys = stacked_pairs(4, n, n, seed=42, dims=dims)
        win = window_for(n, n, 0.1)
        clean = dtw_chunk(xs, ys, win)
        X = poisoned_stack(xs, pad_rows, n, dims)
        Y = poisoned_stack(ys, pad_rows, n, dims)
        padded = dtw_chunk(X, Y, win, count=4)
        assert padded.shape == (4,)
        assert padded.tolist() == clean.tolist()

    @pytest.mark.parametrize("dims", DIMS)
    def test_degenerate_one_pair_chunk(self, dims):
        n = 18
        x, y = make_row(n, 1, dims), make_row(n, 2, dims)
        win = window_for(n, n, 0.05)
        got = dtw_chunk([x], [y], win)
        assert got.shape == (1,)
        assert float(got[0]) == engine_distance(x, y, win, dims=dims)

    @pytest.mark.parametrize("dims", DIMS)
    def test_count_zero_returns_empty(self, dims):
        n = 10
        X = np.full((3, n) + (() if dims is None else (dims,)), np.nan)
        got = dtw_chunk(X, X, Window.full(n, n), count=0)
        assert got.shape == (0,)

    @pytest.mark.parametrize("dims", DIMS)
    def test_count_validation(self, dims):
        n = 10
        xs, ys = stacked_pairs(2, n, n, seed=9, dims=dims)
        win = Window.full(n, n)
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="count"):
                dtw_chunk(xs, ys, win, count=bad)

    def test_real_row_nonfinite_still_rejected(self):
        n = 10
        xs, ys = stacked_pairs(2, n, n, seed=9)
        xs[1][4] = float("nan")
        with pytest.raises(ValueError, match="row 1: sample 4 is not finite"):
            dtw_chunk(xs, ys, Window.full(n, n))

    def test_real_row_nonfinite_component_rejected(self):
        n = 10
        xs, ys = stacked_pairs(2, n, n, seed=9, dims=3)
        ys[0][6] = (0.0, float("inf"), 0.0)
        with pytest.raises(
            ValueError, match="ys row 0: sample 6 component 1 is not finite"
        ):
            dtw_chunk(xs, ys, Window.full(n, n), count=2)

    @pytest.mark.parametrize("dims", DIMS)
    def test_window_shape_mismatch(self, dims):
        xs, ys = stacked_pairs(2, 10, 10, seed=3, dims=dims)
        with pytest.raises(ValueError, match="window"):
            dtw_chunk(xs, ys, Window.full(10, 11))

    def test_channel_count_mismatch_rejected(self):
        xs, _ = stacked_pairs(2, 10, 10, seed=3, dims=3)
        _, ys = stacked_pairs(2, 10, 10, seed=4, dims=2)
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            dtw_chunk(xs, ys, Window.full(10, 10))

    @pytest.mark.parametrize("shapes", [
        ((2, 10), (2, 10, 1)),
        ((2, 10, 1), (2, 10)),
        ((10,), (10,)),
        ((2, 10, 1, 1), (2, 10, 1, 1)),
        ((2, 10, 0), (2, 10, 0)),
    ], ids=["2d-3d", "3d-2d", "1d", "4d", "no-channels"])
    def test_rank_rejected(self, shapes):
        xs, ys = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match="one rank"):
            dtw_chunk(xs, ys, Window.full(10, 10))


class TestEnvelopeChunkParity:
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("band", (0, 1, 4, 30))
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_bit_identical_to_scalar(self, band, chunk_size, dims):
        n = 22
        rows = [make_row(n, 300 + t, dims) for t in range(chunk_size)]
        upper, lower = envelope_chunk(rows, band)
        assert upper.shape == np.asarray(rows).shape
        for t, row in enumerate(rows):
            ref_upper, ref_lower = channel_envelopes(row, band, dims)
            assert upper[t].tolist() == ref_upper
            assert lower[t].tolist() == ref_lower

    @pytest.mark.parametrize("dims", DIMS)
    def test_poisoned_padding_never_leaks(self, dims):
        n = 16
        rows = [make_row(n, 50 + t, dims) for t in range(3)]
        clean_u, clean_l = envelope_chunk(rows, 2)
        stack = poisoned_stack(rows, 5, n, dims)
        upper, lower = envelope_chunk(stack, 2, count=3)
        assert upper.tolist() == clean_u.tolist()
        assert lower.tolist() == clean_l.tolist()

    def test_one_series_promotes_to_one_row(self):
        row = make_series(12, 5)
        upper, lower = envelope_chunk(row, 2)
        assert upper.tolist() == [list(envelope(row, 2).upper)]
        assert lower.tolist() == [list(envelope(row, 2).lower)]

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError, match="band"):
            envelope_chunk([[1.0, 2.0]], -1)

    @pytest.mark.parametrize("shape", [(2, 0), (2, 5, 0), (2, 5, 1, 1)])
    def test_bad_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="chunk"):
            envelope_chunk(np.zeros(shape), 1)


class TestLbKeoghChunkParity:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("squared", (True, False))
    def test_shared_envelope_bit_identical(self, chunk_size, squared):
        n = 28
        query = make_series(n, 1000)
        env = envelope(query, 3)
        cands = [make_series(n, 2000 + t) for t in range(chunk_size)]
        got = lb_keogh_chunk(
            np.asarray(env.upper), np.asarray(env.lower), cands,
            squared=squared,
        )
        for t, c in enumerate(cands):
            assert float(got[t]) == lb_keogh(env, c, squared=squared)

    def test_abandon_decisions_match_scalar(self):
        n = 32
        query = make_series(n, 5)
        env = envelope(query, 2)
        cands = [make_series(n, 60 + t) for t in range(20)]
        full = [lb_keogh(env, c) for c in cands]
        threshold = sorted(full)[len(full) // 2]
        got = lb_keogh_chunk(
            np.asarray(env.upper), np.asarray(env.lower), cands,
            abandon_above=threshold,
        )
        for t, c in enumerate(cands):
            assert float(got[t]) == lb_keogh(
                env, c, abandon_above=threshold
            )

    def test_stacked_envelopes(self):
        n = 20
        queries = [make_series(n, 70 + t) for t in range(4)]
        cands = [make_series(n, 80 + t) for t in range(4)]
        upper, lower = envelope_chunk(queries, 2)
        got = lb_keogh_chunk(upper, lower, cands)
        for t in range(4):
            ref = lb_keogh(envelope(queries[t], 2), cands[t])
            assert float(got[t]) == ref

    def test_poisoned_padding_never_leaks(self):
        n = 14
        query = make_series(n, 8)
        env = envelope(query, 1)
        cands = [make_series(n, 90 + t) for t in range(3)]
        clean = lb_keogh_chunk(
            np.asarray(env.upper), np.asarray(env.lower), cands
        )
        stack = poisoned_stack(cands, 4, n)
        got = lb_keogh_chunk(
            np.asarray(env.upper), np.asarray(env.lower), stack, count=3
        )
        assert got.tolist() == clean.tolist()

    def test_stacked_envelope_padding_sliced_too(self):
        n = 12
        queries = [make_series(n, 30 + t) for t in range(2)]
        cands = [make_series(n, 40 + t) for t in range(2)]
        u, lo = envelope_chunk(queries, 1)
        clean = lb_keogh_chunk(u, lo, cands)
        got = lb_keogh_chunk(
            poisoned_stack(list(u), 2, n),
            poisoned_stack(list(lo), 2, n),
            poisoned_stack(cands, 2, n),
            count=2,
        )
        assert got.tolist() == clean.tolist()

    def test_length_mismatch_rejected(self):
        env = envelope(make_series(10, 1), 1)
        with pytest.raises(ValueError, match="envelope length"):
            lb_keogh_chunk(
                np.asarray(env.upper), np.asarray(env.lower),
                [make_series(9, 2)],
            )


class TestKernelSetContract:
    """Both backends expose the chunk kernels under one contract."""

    def test_five_fields(self):
        assert [f.name for f in dataclasses.fields(KernelSet)] == [
            "name", "lb_kim", "dtw_chunk", "envelope_chunk",
            "lb_keogh_chunk",
        ]

    @pytest.mark.parametrize("cost", ("squared", "abs"))
    @pytest.mark.parametrize("dims", (None, 1, 2, 3))
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_dtw_chunk_parity(self, backend, dims, cost):
        k = get_kernels(backend)
        n = 24
        xs, ys = stacked_pairs(6, n, n, seed=11, dims=dims)
        for win in (window_for(n, n, 0.1), Window.full(n, n)):
            got = k.dtw_chunk(xs, ys, win, cost=cost)
            for t in range(6):
                ref = engine_distance(xs[t], ys[t], win, cost, dims)
                assert float(got[t]) == ref

    @pytest.mark.parametrize("dims", (None, 1, 2, 3))
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_envelope_chunk_parity(self, backend, dims):
        k = get_kernels(backend)
        rows = [make_row(15, 120 + t, dims) for t in range(3)]
        for band in (0, 2, 15):
            upper, lower = k.envelope_chunk(rows, band)
            for t, row in enumerate(rows):
                ref_upper, ref_lower = channel_envelopes(row, band, dims)
                assert as_floats(upper[t]) == ref_upper
                assert as_floats(lower[t]) == ref_lower

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_lb_keogh_chunk_parity(self, backend):
        k = get_kernels(backend)
        n = 21
        query = make_series(n, 500)
        env = envelope(query, 2)
        cands = [make_series(n, 600 + t) for t in range(5)]
        full = [lb_keogh(env, c) for c in cands]
        threshold = sorted(full)[2]
        got = k.lb_keogh_chunk(
            list(env.upper), list(env.lower), cands,
            abandon_above=threshold,
        )
        for t, c in enumerate(cands):
            assert float(got[t]) == lb_keogh(
                env, c, abandon_above=threshold
            )

    @pytest.mark.parametrize("dims", DIMS)
    def test_backends_agree_bit_for_bit(self, dims):
        """Cross-check: both KernelSet chunk entries give equal lists."""
        n = 19
        xs, ys = stacked_pairs(4, n, n, seed=77, dims=dims)
        win = window_for(n, n, 0.05)
        results = {
            b: [float(v) for v in get_kernels(b).dtw_chunk(xs, ys, win)]
            for b in ("python", "numpy")
        }
        assert results["python"] == results["numpy"]

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_count_padding_is_poison_proof(self, backend, dims):
        """Both backends leave rows at index >= count unread."""
        k = get_kernels(backend)
        n, real = 12, 3
        xs, ys = stacked_pairs(real, n, n, seed=50, dims=dims)
        win = window_for(n, n, 0.25)
        clean = [float(v) for v in k.dtw_chunk(xs, ys, win)]
        X = poisoned_stack(xs, 2, n, dims)
        Y = poisoned_stack(ys, 2, n, dims)
        padded = k.dtw_chunk(X, Y, win, count=real)
        assert [float(v) for v in padded] == clean
        up1, lo1 = k.envelope_chunk(xs, 2)
        up2, lo2 = k.envelope_chunk(X, 2, count=real)
        assert as_floats(up2) == as_floats(up1)
        assert as_floats(lo2) == as_floats(lo1)

    def test_python_fallback_count_validation(self):
        k = get_kernels("python")
        xs, ys = stacked_pairs(2, 8, 8, seed=1)
        with pytest.raises(ValueError, match="count"):
            k.dtw_chunk(xs, ys, Window.full(8, 8), count=5)

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_dtw_chunk_charges_dp_counters(self, backend, dims):
        k = get_kernels(backend)
        n = 16
        xs, ys = stacked_pairs(3, n, n, seed=33, dims=dims)
        win = window_for(n, n, 0.1)
        with RunTrace() as trace:
            k.dtw_chunk(xs, ys, win)
        assert trace.counter("dp.calls") == 3
        assert trace.counter("dp.cells") == 3 * win.cell_count()


class TestRaggedViaGrouping:
    """The engine's route for mixed shapes: group, then chunk-call."""

    def test_grouped_chunk_calls_match_per_pair(self):
        lengths = (24, 24, 17, 17, 24)
        series = [
            make_series(n, 900 + i) for i, n in enumerate(lengths)
        ]
        chunk = [(0, 1), (2, 3), (0, 4), (3, 2), (1, 0)]
        band_for = chunk_band("cdtw", window=0.1)
        out = [None] * len(chunk)
        for group in group_chunk(chunk, lengths, band_for=band_for):
            win = Window.band(group.n, group.m, group.band)
            xs = [series[i] for i, _ in group.pairs]
            ys = [series[j] for _, j in group.pairs]
            distances = dtw_chunk(xs, ys, win)
            for pos, d in zip(group.positions, distances):
                out[pos] = float(d)
        for t, (i, j) in enumerate(chunk):
            win = Window.band(
                len(series[i]), len(series[j]),
                band_for(len(series[i]), len(series[j])),
            )
            ref = dp_over_window(series[i], series[j], win)
            assert out[t] == ref.distance

    def test_random_fuzz_many_shapes(self):
        rng = random.Random(4)
        lengths = [rng.choice((12, 15, 20)) for _ in range(8)]
        series = [
            make_series(n, 7000 + i) for i, n in enumerate(lengths)
        ]
        chunk = [
            (rng.randrange(8), rng.randrange(8)) for _ in range(25)
        ]
        band_for = chunk_band("cdtw", window=0.05)
        out = [None] * len(chunk)
        for group in group_chunk(chunk, lengths, band_for=band_for):
            win = Window.band(group.n, group.m, group.band)
            xs = poisoned_stack(
                [series[i] for i, _ in group.pairs], 2, group.n
            )
            ys = poisoned_stack(
                [series[j] for _, j in group.pairs], 2, group.m
            )
            distances = dtw_chunk(xs, ys, win, count=len(group))
            for pos, d in zip(group.positions, distances):
                out[pos] = float(d)
        for t, (i, j) in enumerate(chunk):
            n, m = lengths[i], lengths[j]
            win = Window.band(n, m, band_for(n, m))
            ref = dp_over_window(series[i], series[j], win)
            assert out[t] == ref.distance
