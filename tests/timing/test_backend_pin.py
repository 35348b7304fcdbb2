"""The paper harness is pinned to the pure-Python engine.

The paper's claim is "same language, same hardware": both contenders
(exact cDTW and FastDTW) run on the shared pure-Python DP engine, so a
vectorised backend sneaking into the timing path would invalidate the
comparison.  These tests make the pin load-bearing: the explicit
``backend=`` escape hatch raises, and a source scan proves nothing in
``repro.experiments`` or ``repro.timing`` (other than the clearly
labelled cross-backend micro-benchmark ``kernel_bench``) can even name
the NumPy backend or the registry's default-switching hooks.
"""

import pathlib

import pytest

import repro.experiments
import repro.timing
from repro.timing.runner import PINNED_BACKEND, batch_pairwise_experiment
from tests.conftest import make_series

FORBIDDEN_TOKENS = (
    '"numpy"',
    "'numpy'",
    "dtw_numpy",
    "get_kernels",
    "set_default_backend",
    "use_backend",
    "set_default_runtime",
    "use_runtime",
    # the stacked chunk kernels (dtw_chunk, envelope_chunk,
    # lb_keogh_chunk) are repeated-use machinery; the paper harness
    # must never route through them
    "_chunk",
    # the ahead-of-time index is repeated-use machinery too: the
    # paper's timings must stay index-free, so the harness can never
    # even name the index package or its constructors
    "repro.index",
    "DatasetIndex",
    "IndexSearcher",
    "build_index",
    "build_stream_index",
    "load_index",
    "save_index",
    # the serving layer is the repeated-use machine's front door --
    # micro-batching, artifact caches, warm executors.  The paper's
    # timings must never ride it, so the harness can't import the
    # package or name its entry classes
    "repro.serve",
    "QueryService",
    "MicroBatcher",
    "AsyncQueryService",
    # the compressed-domain fast path is an opt-in optimisation the
    # paper never benchmarks: the harness must time the dense engines
    # only, so it can never name the rle module or its measures
    "repro.core.rle",
    "RleSeries",
    "rle_dtw",
    "rle_cdtw",
    # the paper's experiments are univariate; the multivariate stack
    # (DTW_D/DTW_I measures, the nd kernels and bounds) must never
    # leak into the harness.  The measure names are scanned in their
    # string-literal forms because bare "dtw_d" would false-positive
    # on the long-standing "cdtw_distance"/"fastdtw_distances"
    # result fields; "_nd" catches every nd function and kernel
    # (dtw_nd, cdtw_nd, fastdtw_nd, envelope_nd, lb_keogh_nd, ...)
    "multivariate",
    "_nd",
    '"dtw_d"',
    "'dtw_d'",
    '"cdtw_d"',
    "'cdtw_d'",
    '"dtw_i"',
    "'dtw_i'",
    '"cdtw_i"',
    "'cdtw_i'",
)


def _sources(package):
    root = pathlib.Path(package.__file__).parent
    return sorted(root.glob("*.py"))


class TestExplicitPin:
    def test_pinned_backend_is_python(self):
        assert PINNED_BACKEND == "python"

    def test_non_python_backend_raises(self):
        series = [make_series(16, s) for s in range(4)]
        with pytest.raises(ValueError, match="pinned"):
            batch_pairwise_experiment(series, band=2, backend="numpy")

    def test_explicit_python_backend_accepted(self):
        series = [make_series(16, s) for s in range(4)]
        res = batch_pairwise_experiment(series, band=2, backend="python")
        assert res.pairs == 6

    def test_default_backend_switch_does_not_leak_in(self):
        # even if a user flips the process default, the harness stays
        # on the pure engine -- distances and cells must not move
        from repro.core.kernels import use_backend

        series = [make_series(16, s) for s in range(4)]
        plain = batch_pairwise_experiment(series, band=2)
        with use_backend("numpy"):
            switched = batch_pairwise_experiment(series, band=2)
        assert switched.cells == plain.cells
        assert switched.pairs == plain.pairs

    def test_default_runtime_does_not_leak_in(self, monkeypatch):
        # the harness builds its own explicit Runtime, which resolve()
        # never merges with the process default; a poisoned NumPy
        # kernel proves the vectorised path is never reached
        import repro.core.numpy_backend as nb
        from repro.runtime import Runtime, use_runtime

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("numpy kernel reached the harness")

        monkeypatch.setattr(nb, "dtw_chunk", boom)
        series = [make_series(16, s) for s in range(4)]
        plain = batch_pairwise_experiment(series, band=2)
        with use_runtime(Runtime(backend="numpy", workers=2)):
            pinned = batch_pairwise_experiment(series, band=2)
        assert pinned.cells == plain.cells
        assert pinned.pairs == plain.pairs


class TestSourceScan:
    @pytest.mark.parametrize(
        "package", [repro.experiments, repro.timing],
        ids=["experiments", "timing"],
    )
    def test_no_numpy_backend_references(self, package):
        offenders = []
        for path in _sources(package):
            if path.name == "kernel_bench.py":
                continue  # the cross-backend bench, by design
            text = path.read_text()
            for token in FORBIDDEN_TOKENS:
                if token in text:
                    offenders.append(f"{path.name}: {token}")
        assert not offenders, offenders

    def test_scan_covers_the_harness_modules(self):
        names = {p.name for p in _sources(repro.timing)}
        assert "runner.py" in names and "kernel_bench.py" in names
