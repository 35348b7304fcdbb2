"""Dimension-1 multivariate series reduce bit-exactly to the scalar engine.

A ``(length, 1)`` series wraps each sample in a 1-tuple; the vector
squared-Euclidean (or L1) cost then *is* the scalar squared (or
absolute) cost, so every nd measure must reproduce the scalar
measure's distance, DP cell count and warping path to the bit -- under
both costs, on both backends, and through the bounds and envelopes
too.  This is the anchor that makes the multivariate stack an
extension rather than a fork, and that lets one stacked kernel serve
``(chunk, n)`` and ``(chunk, n, dims)`` stacks alike.
"""

import pytest

from repro.core.cdtw import cdtw
from repro.core.dtw import dtw
from repro.core.fastdtw import fastdtw
from repro.core.kernels import available_backends, get_kernels
from repro.core.measures import measure_fn, split_result
from repro.core.multivariate import (
    cdtw_i,
    cdtw_nd,
    dtw_i,
    dtw_nd,
    fastdtw_nd,
)
from repro.core.window import Window
from repro.lowerbounds.envelope import envelope
from repro.lowerbounds.lb_keogh import lb_keogh
from repro.lowerbounds.lb_kim import lb_kim
from repro.lowerbounds.nd import (
    envelopes_nd,
    lb_improved_nd,
    lb_keogh_nd,
    lb_kim_nd,
)
from repro.lowerbounds.lb_improved import lb_improved
from repro.obs import RunTrace
from tests.conftest import make_series

BACKENDS = tuple(available_backends())
SEEDS = (0, 1, 2)


COSTS = ("squared", "abs")


def _wrap(series):
    return [(v,) for v in series]


class TestMeasuresReduce:
    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dtw_d_equals_scalar_dtw(self, seed, cost):
        xs, ys = make_series(20, seed), make_series(24, seed + 50)
        got = dtw_nd(_wrap(xs), _wrap(ys), cost=cost, return_path=True)
        ref = dtw(xs, ys, cost=cost, return_path=True)
        assert got.distance == ref.distance
        assert got.cells == ref.cells
        assert got.path == ref.path

    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cdtw_d_equals_scalar_cdtw(self, seed, cost):
        xs, ys = make_series(20, seed), make_series(20, seed + 50)
        got = cdtw_nd(_wrap(xs), _wrap(ys), band=4, cost=cost,
                      return_path=True)
        ref = cdtw(xs, ys, band=4, cost=cost, return_path=True)
        assert got.distance == ref.distance
        assert got.cells == ref.cells
        assert got.path == ref.path

    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dtw_i_equals_scalar_dtw(self, seed, cost):
        xs, ys = make_series(20, seed), make_series(24, seed + 50)
        got = dtw_i(_wrap(xs), _wrap(ys), cost=cost, return_path=True)
        ref = dtw(xs, ys, cost=cost, return_path=True)
        assert got.distance == ref.distance
        assert got.cells == ref.cells
        # DTW_I paths come back as a per-channel tuple
        assert got.path == (ref.path,)

    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cdtw_i_equals_scalar_cdtw(self, seed, cost):
        xs, ys = make_series(20, seed), make_series(20, seed + 50)
        got = cdtw_i(_wrap(xs), _wrap(ys), band=4, cost=cost,
                     return_path=True)
        ref = cdtw(xs, ys, band=4, cost=cost, return_path=True)
        assert got.distance == ref.distance
        assert got.cells == ref.cells
        assert got.path == (ref.path,)

    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fastdtw_nd_equals_scalar_fastdtw(self, seed, cost):
        xs, ys = make_series(40, seed), make_series(40, seed + 50)
        got = fastdtw_nd(_wrap(xs), _wrap(ys), radius=1, cost=cost)
        ref = fastdtw(xs, ys, radius=1, cost=cost)
        assert got.distance == ref.distance
        assert got.cells == ref.cells
        assert got.path == ref.path

    def test_dependent_equals_independent_at_dim1(self):
        xs, ys = make_series(24, 9), make_series(24, 10)
        assert (
            dtw_nd(_wrap(xs), _wrap(ys)).distance
            == dtw_i(_wrap(xs), _wrap(ys)).distance
        )


class TestMeasureFnReduces:
    @pytest.mark.parametrize("return_path", (False, True),
                             ids=["distance", "path"])
    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "nd_measure,scalar_measure,kwargs",
        [
            ("dtw_d", "dtw", {}),
            ("cdtw_d", "cdtw", {"band": 4}),
            ("dtw_i", "dtw", {}),
            ("cdtw_i", "cdtw", {"band": 4}),
        ],
    )
    def test_registry_dim1_equals_scalar(
        self, backend, nd_measure, scalar_measure, kwargs, cost,
        return_path,
    ):
        xs, ys = make_series(22, 3), make_series(22, 4)
        kwargs = dict(kwargs, cost=cost, return_path=return_path)
        nd_fn = measure_fn(nd_measure, backend=backend, **kwargs)
        sc_fn = measure_fn(scalar_measure, backend=backend, **kwargs)
        d_nd, cells_nd, path_nd = split_result(nd_fn(_wrap(xs), _wrap(ys)))
        d_sc, cells_sc, path_sc = split_result(sc_fn(xs, ys))
        assert d_nd == d_sc
        assert cells_nd == cells_sc
        if return_path and nd_measure.endswith("_i"):
            path_sc = (path_sc,)
        assert path_nd == path_sc


class TestKernelsReduce:
    """A ``(chunk, n, 1)`` stack is the ``(chunk, n)`` stack."""

    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_pair_channel_stack_equals_scalar_stack(self, backend,
                                                        cost):
        # one pair per call: the numpy per-pair distance is this stack
        xs, ys = make_series(18, 5), make_series(18, 6)
        kernels = get_kernels(backend)
        win = Window.band(18, 18, 3)
        got = kernels.dtw_chunk([_wrap(xs)], [_wrap(ys)], win, cost=cost)
        ref = kernels.dtw_chunk([xs], [ys], win, cost=cost)
        assert float(got[0]) == float(ref[0])

    @pytest.mark.parametrize("cost", COSTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_channel_stack_equals_scalar_stack(self, backend, cost):
        kernels = get_kernels(backend)
        n, chunk = 14, 4
        xs = [make_series(n, s) for s in range(chunk)]
        ys = [make_series(n, 20 + s) for s in range(chunk)]
        for win in (Window.band(n, n, 3), Window.full(n, n)):
            with RunTrace() as nd_trace:
                nd = kernels.dtw_chunk(
                    [_wrap(x) for x in xs], [_wrap(y) for y in ys], win,
                    cost=cost,
                )
            with RunTrace() as sc_trace:
                sc = kernels.dtw_chunk(xs, ys, win, cost=cost)
            assert [float(v) for v in nd] == [float(v) for v in sc]
            for counter in ("dp.calls", "dp.cells"):
                assert (
                    nd_trace.counter(counter) == sc_trace.counter(counter)
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_channel_envelopes_equal_scalar_envelopes(self, backend):
        kernels = get_kernels(backend)
        rows = [make_series(16, 30 + s) for s in range(3)]
        for band in (0, 3, 16):
            nd_up, nd_lo = kernels.envelope_chunk(
                [_wrap(r) for r in rows], band
            )
            up, lo = kernels.envelope_chunk(rows, band)
            for t in range(len(rows)):
                assert [float(v[0]) for v in nd_up[t]] == [
                    float(v) for v in up[t]
                ]
                assert [float(v[0]) for v in nd_lo[t]] == [
                    float(v) for v in lo[t]
                ]


class TestBoundsReduce:
    def test_envelopes_nd_dim1(self):
        xs = make_series(16, 7)
        (env_nd,) = envelopes_nd(_wrap(xs), 3)
        env = envelope(xs, 3)
        assert list(env_nd.upper) == list(env.upper)
        assert list(env_nd.lower) == list(env.lower)

    @pytest.mark.parametrize("cost", COSTS)
    def test_lb_kim_nd_dim1(self, cost):
        xs, ys = make_series(16, 1), make_series(16, 2)
        assert lb_kim_nd(_wrap(xs), _wrap(ys), cost=cost) == lb_kim(
            xs, ys, cost=cost
        )

    @pytest.mark.parametrize("cost", COSTS)
    def test_lb_keogh_nd_dim1(self, cost):
        squared = cost == "squared"
        xs, ys = make_series(16, 3), make_series(16, 4)
        envs = envelopes_nd(_wrap(xs), 3)
        assert lb_keogh_nd(envs, _wrap(ys), squared=squared) == lb_keogh(
            envelope(xs, 3), ys, squared=squared
        )

    @pytest.mark.parametrize("cost", COSTS)
    def test_lb_improved_nd_dim1(self, cost):
        squared = cost == "squared"
        xs, ys = make_series(16, 5), make_series(16, 6)
        assert lb_improved_nd(
            _wrap(xs), _wrap(ys), 3, squared=squared
        ) == lb_improved(xs, ys, 3, squared=squared)
