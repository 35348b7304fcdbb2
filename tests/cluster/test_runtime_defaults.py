"""The process-default Runtime reaches cluster *internals*.

PR 3's kwarg drift meant `dtw_kmeans` / `dba` accepted `backend=` but
their private helpers (`_assign`, `_inertia`, `_alignments`) silently
fell back to pure Python.  The Runtime refactor routes every internal
distance through the resolved context, so a `use_runtime` process
default must switch the actual kernels the helpers invoke.  We prove
it by spying on the NumPy DP kernel: zero calls without the default,
nonzero with it -- and identical results either way.
"""

from __future__ import annotations

import pytest

import repro.core.numpy_backend as nb
from repro.cluster.dba import dba
from repro.cluster.kmeans import dtw_kmeans
from repro.cluster.linkage import linkage_from_series
from repro.runtime import Runtime, use_runtime
from tests.conftest import make_series

SERIES = [make_series(16, seed) for seed in range(6)]


@pytest.fixture
def numpy_kernel_calls(monkeypatch):
    """Count invocations of the NumPy DP kernel (every plain distance
    on the numpy backend is a ``dtw_chunk`` call)."""
    calls = {"n": 0}
    real_chunk = nb.dtw_chunk

    def spy_chunk(*args, **kwargs):
        calls["n"] += 1
        return real_chunk(*args, **kwargs)

    monkeypatch.setattr(nb, "dtw_chunk", spy_chunk)
    return calls


def _run_kmeans():
    return dtw_kmeans(SERIES, 2, band=2, max_iterations=2)


def _run_dba():
    return dba(SERIES, band=2, max_iterations=2)


def _run_linkage():
    return linkage_from_series(SERIES, measure="cdtw", band=2)


@pytest.mark.parametrize(
    "run", [_run_kmeans, _run_dba, _run_linkage],
    ids=["dtw_kmeans", "dba", "linkage_from_series"],
)
def test_default_runtime_backend_reaches_internals(
    run, numpy_kernel_calls
):
    baseline = run()
    assert numpy_kernel_calls["n"] == 0, (
        "the built-in default must stay pure Python"
    )
    with use_runtime(Runtime(backend="numpy")):
        vectorised = run()
    assert numpy_kernel_calls["n"] > 0, (
        "use_runtime(backend='numpy') never reached the internals"
    )
    assert vectorised == baseline


@pytest.mark.parametrize(
    "run", [_run_kmeans, _run_dba, _run_linkage],
    ids=["dtw_kmeans", "dba", "linkage_from_series"],
)
def test_default_runtime_workers_identical_results(run):
    baseline = run()
    with use_runtime(Runtime(workers=2)):
        assert run() == baseline


def test_explicit_serial_runtime_overrides_the_default(
    numpy_kernel_calls,
):
    # a per-call Runtime is complete: it must not inherit the numpy
    # default installed around it
    with use_runtime(Runtime(backend="numpy")):
        dba(
            SERIES, band=2, max_iterations=2,
            runtime=Runtime(backend="python"),
        )
    assert numpy_kernel_calls["n"] == 0
