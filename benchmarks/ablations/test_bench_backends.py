"""Ablation: pure-Python engine vs NumPy backend for banded DTW.

The head-to-head experiments use the pure engine for both contenders
("same language, same hardware").  This ablation shows backend choice
does not change the cDTW-vs-FastDTW verdict: the anti-diagonal
wavefront kernel accelerates exact cDTW while returning bit-identical
distances, so under either backend exact cDTW undercuts FastDTW.
"""

from repro.core.cdtw import cdtw
from repro.core.fastdtw import fastdtw
from repro.core.measures import measure_fn
from repro.datasets.random_walk import random_walk

N = 512

#: the numpy backend's per-pair banded distance (a one-pair stack)
numpy_cdtw_fn = measure_fn("cdtw", band=26, backend="numpy")


def _pair():
    return random_walk(N, seed=20), random_walk(N, seed=21)


class TestBackendAblation:
    def test_pure_python_banded(self, benchmark):
        x, y = _pair()
        assert benchmark(lambda: cdtw(x, y, band=26)).distance >= 0

    def test_numpy_banded(self, benchmark):
        x, y = _pair()
        assert benchmark(lambda: numpy_cdtw_fn(x, y)).distance >= 0

    def test_backends_agree(self, benchmark):
        x, y = _pair()
        pure = cdtw(x, y, band=26).distance
        vect = benchmark(lambda: numpy_cdtw_fn(x, y).distance)
        assert pure == vect

    def test_numpy_cdtw_vs_fastdtw_verdict_unchanged(self, benchmark,
                                                     save_report):
        import time

        x, y = _pair()
        benchmark.pedantic(lambda: cdtw(x, y, band=26),
                           rounds=1, iterations=1)

        def clock(fn):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        numpy_cdtw = clock(lambda: numpy_cdtw_fn(x, y))
        pure_cdtw = clock(lambda: cdtw(x, y, band=26))
        fast = clock(lambda: fastdtw(x, y, radius=10))
        save_report(
            "ablation_backends",
            f"cDTW (pure python): {pure_cdtw * 1000:8.2f} ms\n"
            f"cDTW (numpy):       {numpy_cdtw * 1000:8.2f} ms\n"
            f"FastDTW_10 (opt):   {fast * 1000:8.2f} ms",
        )
        # accelerating the exact algorithm only widens its lead
        assert numpy_cdtw < fast
