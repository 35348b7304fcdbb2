"""The kernel backend registry: resolution, defaults and contracts."""

import pytest

from repro.core import kernels
from repro.core.kernels import (
    KernelSet,
    available_backends,
    default_backend,
    get_kernels,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from tests.conftest import make_series


class TestResolution:
    def test_python_always_available(self):
        assert "python" in available_backends()

    def test_numpy_available_here(self):
        # the test environment has numpy; elsewhere the registry may
        # legitimately omit it, which the availability hook handles
        assert "numpy" in available_backends()

    def test_none_resolves_to_default(self):
        assert resolve_backend(None) == default_backend()

    def test_default_is_python(self):
        assert default_backend() == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")

    def test_get_kernels_returns_kernelset(self):
        for name in available_backends():
            ks = get_kernels(name)
            assert isinstance(ks, KernelSet)
            assert ks.name == name

    def test_kernelsets_are_cached(self):
        assert get_kernels("python") is get_kernels("python")


class TestDefaultSwitching:
    def test_set_default_backend_round_trip(self):
        previous = set_default_backend("numpy")
        try:
            assert previous == "python"
            assert default_backend() == "numpy"
            assert resolve_backend(None) == "numpy"
        finally:
            set_default_backend(previous)
        assert default_backend() == "python"

    def test_use_backend_scopes_and_restores(self):
        with use_backend("numpy"):
            assert default_backend() == "numpy"
        assert default_backend() == "python"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("numpy"):
                raise RuntimeError("boom")
        assert default_backend() == "python"

    def test_default_switch_changes_consumer_backend(self):
        # a consumer passing backend=None follows the process default
        from repro.core.matrix import distance_matrix

        series = [make_series(12, s) for s in range(3)]
        plain = distance_matrix(series, measure="cdtw", window=0.2)
        with use_backend("numpy"):
            switched = distance_matrix(series, measure="cdtw", window=0.2)
        assert plain.values == switched.values
        assert plain.cells == switched.cells

    @pytest.mark.parametrize("cost", ["squared", "abs"])
    @pytest.mark.parametrize("config", [
        {}, {"band": 0}, {"band": 3}, {"window": 0.25},
    ], ids=["full", "band0", "band3", "window"])
    def test_numpy_matrix_equals_python(self, config, cost):
        # the all-pairs matrix on numpy (stacked dtw_chunk calls) equals
        # the python engine's, values and cells, for every constraint
        from repro.core.matrix import distance_matrix

        series = [make_series(12, s + 70) for s in range(4)]
        measure = "cdtw" if config else "dtw"
        plain = distance_matrix(series, measure=measure, cost=cost, **config)
        with use_backend("numpy"):
            switched = distance_matrix(
                series, measure=measure, cost=cost, **config
            )
        assert switched.measure == measure
        assert plain.values == switched.values
        assert plain.cells == switched.cells


class TestKernelContracts:
    @pytest.mark.parametrize("name", ["python", "numpy"])
    def test_lower_bound_contracts(self, name):
        ks = get_kernels(name)
        x, y = make_series(16, 3), make_series(16, 4)
        (upper,), (lower,) = ks.envelope_chunk((x,), 2)
        assert len(upper) == len(lower) == 16
        kim = ks.lb_kim(x, (y,), cost="squared")
        keogh = ks.lb_keogh_chunk(upper, lower, (y,))
        # the reversed bound: the same kernel, query against the
        # candidate's envelope
        up, lo = ks.envelope_chunk((y,), 2)
        rev = ks.lb_keogh_chunk(up[0], lo[0], (x,))
        assert len(kim) == len(keogh) == len(rev) == 1
        from repro.core.cdtw import cdtw

        true_d = cdtw(x, y, band=2).distance
        for bound in (kim[0], keogh[0], rev[0]):
            assert bound <= true_d + 1e-9
