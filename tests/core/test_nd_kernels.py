"""Bit-identity contract of the multivariate (nd) kernels.

Every registered backend must produce the *same bits* as the pure
engine for the stacked dependent-DTW kernel (``dtw_nd_chunk``, one
pair or many) with its ``count=`` padding-poisoning contract, and
value-identical per-channel envelopes and summed LB_Keogh bounds.
"""

import pytest

from repro.core.kernels import available_backends, get_kernels
from repro.core.multivariate import cdtw_nd, dtw_nd
from repro.core.window import Window
from repro.lowerbounds.nd import envelopes_nd, lb_keogh_nd
from tests.conftest import make_vectors

np = pytest.importorskip("numpy")

BACKENDS = tuple(available_backends())


def _windows(n, m):
    return [
        ("full", Window.full(n, m)),
        ("band2", Window.band(n, m, 2)),
        ("band5", Window.band(n, m, 5)),
    ]


class TestDtwNdKernel:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dims", (1, 2, 3))
    def test_distance_cells_match_engine(self, backend, dims):
        # one pair per call: the numpy per-pair distance is this stack
        x, y = make_vectors(24, dims, 1), make_vectors(24, dims, 2)
        kernels = get_kernels(backend)
        for label, win in _windows(24, 24):
            got = kernels.dtw_nd_chunk([x], [y], win)
            ref = (
                dtw_nd(x, y)
                if label == "full"
                else cdtw_nd(x, y, band=int(label[4:]))
            )
            assert float(got[0]) == ref.distance, (backend, label)
            assert win.cell_count() == ref.cells, (backend, label)


class TestDtwNdChunk:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rows_match_single_pair_kernel(self, backend):
        kernels = get_kernels(backend)
        n, dims, chunk = 18, 3, 5
        xs = [make_vectors(n, dims, s) for s in range(chunk)]
        ys = [make_vectors(n, dims, 100 + s) for s in range(chunk)]
        win = Window.band(n, n, 4)
        distances = kernels.dtw_nd_chunk(xs, ys, win)
        assert len(distances) == chunk
        for t in range(chunk):
            assert (
                float(distances[t])
                == cdtw_nd(xs[t], ys[t], band=4).distance
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_padding_is_poison_proof(self, backend):
        """Rows at index >= count may be NaN/inf garbage."""
        kernels = get_kernels(backend)
        n, dims, real = 12, 2, 3
        xs = [make_vectors(n, dims, s) for s in range(real)]
        ys = [make_vectors(n, dims, 50 + s) for s in range(real)]
        poison = [[(float("nan"), float("inf"))] * n for _ in range(2)]
        win = Window.band(n, n, 3)
        clean = kernels.dtw_nd_chunk(xs, ys, win)
        padded = kernels.dtw_nd_chunk(
            xs + poison, ys + poison, win, count=real
        )
        assert len(padded) == real
        assert [float(v) for v in padded] == [float(v) for v in clean]

    def test_real_nonfinite_rows_still_rejected(self):
        # the stacked numpy kernel validates its real rows (the python
        # fallback relies on the batch engine's upstream validation,
        # as with the scalar chunk kernel)
        kernels = get_kernels("numpy")
        n = 8
        xs = [make_vectors(n, 2, 1), [(float("nan"), 0.0)] * n]
        ys = [make_vectors(n, 2, 2), make_vectors(n, 2, 3)]
        with pytest.raises(ValueError, match="finite"):
            kernels.dtw_nd_chunk(xs, ys, Window.band(n, n, 2), count=2)

    def test_backends_agree_bit_for_bit(self):
        n, dims, chunk = 20, 3, 4
        xs = [make_vectors(n, dims, s) for s in range(chunk)]
        ys = [make_vectors(n, dims, 30 + s) for s in range(chunk)]
        win = Window.band(n, n, 5)
        rows = {
            backend: [
                float(v)
                for v in get_kernels(backend).dtw_nd_chunk(xs, ys, win)
            ]
            for backend in BACKENDS
        }
        reference = rows["python"]
        for backend, got in rows.items():
            assert got == reference, backend


class TestEnvelopeNdChunk:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_per_channel_envelopes(self, backend):
        kernels = get_kernels(backend)
        n, dims, chunk, band = 15, 3, 4, 3
        series = [make_vectors(n, dims, s) for s in range(chunk)]
        upper, lower = kernels.envelope_nd_chunk(series, band)
        for t, s in enumerate(series):
            envs = envelopes_nd(s, band)
            for k, env in enumerate(envs):
                got_up = [float(upper[t][i][k]) for i in range(n)]
                got_lo = [float(lower[t][i][k]) for i in range(n)]
                assert got_up == list(env.upper)
                assert got_lo == list(env.lower)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_padding_ignored(self, backend):
        kernels = get_kernels(backend)
        n, dims, band = 10, 2, 2
        series = [make_vectors(n, dims, s) for s in range(3)]
        poison = [[(float("nan"),) * dims] * n]
        up1, lo1 = kernels.envelope_nd_chunk(series, band)
        up2, lo2 = kernels.envelope_nd_chunk(
            series + poison, band, count=3
        )
        assert np.asarray(up2).shape[0] == 3
        assert np.array_equal(np.asarray(up1), np.asarray(up2))
        assert np.array_equal(np.asarray(lo1), np.asarray(lo2))


class TestLbKeoghNdChunk:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_summed_python_bound(self, backend):
        kernels = get_kernels(backend)
        n, dims, chunk, band = 16, 3, 5, 3
        query = make_vectors(n, dims, 99)
        candidates = [make_vectors(n, dims, s) for s in range(chunk)]
        envs = envelopes_nd(query, band)
        upper = [[env.upper[i] for env in envs] for i in range(n)]
        lower = [[env.lower[i] for env in envs] for i in range(n)]
        bounds = kernels.lb_keogh_nd_chunk(upper, lower, candidates)
        assert len(bounds) == chunk
        for t, c in enumerate(candidates):
            assert float(bounds[t]) == lb_keogh_nd(envs, c)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_abandon_threshold_matches(self, backend):
        kernels = get_kernels(backend)
        n, dims, band = 16, 2, 2
        query = make_vectors(n, dims, 7)
        candidates = [make_vectors(n, dims, s) for s in range(4)]
        envs = envelopes_nd(query, band)
        upper = [[env.upper[i] for env in envs] for i in range(n)]
        lower = [[env.lower[i] for env in envs] for i in range(n)]
        plain = [
            lb_keogh_nd(envs, c) for c in candidates
        ]
        threshold = sorted(plain)[1]
        got = kernels.lb_keogh_nd_chunk(
            upper, lower, candidates, abandon_above=threshold
        )
        want = [
            lb_keogh_nd(envs, c, abandon_above=threshold)
            for c in candidates
        ]
        assert [float(v) for v in got] == want
