"""The Runtime value itself: validation, precedence, scoping, env.

The whole point of `repro.runtime` is that there is exactly one
resolution order -- per-call > context manager > process default >
environment > built-in -- and that an explicit per-call Runtime is a
*complete* statement that never merges with ambient state.  These
tests pin that contract.
"""

from __future__ import annotations

import pytest

from repro.core.kernels import use_backend
from repro.runtime import (
    Runtime,
    default_runtime,
    set_default_runtime,
    use_runtime,
)


@pytest.fixture(autouse=True)
def _clean_default():
    """Never leak an explicit process default across tests."""
    previous = set_default_runtime(None)
    try:
        yield
    finally:
        set_default_runtime(previous)


class TestConstruction:
    def test_builtin_default_is_serial_pure_python(self):
        rt = Runtime()
        assert rt.workers == 1
        assert rt.backend is None
        assert rt.executor is None
        assert not rt.parallel

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Runtime().workers = 4  # type: ignore[misc]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Runtime(workers=0)

    def test_workers_must_be_an_int(self):
        with pytest.raises(ValueError, match="int >= 1"):
            Runtime(workers="2")  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="int >= 1"):
            Runtime(workers=True)  # type: ignore[arg-type]

    def test_backend_validated_at_construction(self):
        with pytest.raises(ValueError):
            Runtime(backend="no-such-backend")

    def test_executor_validated(self):
        Runtime(executor="default")
        with pytest.raises(TypeError, match="executor"):
            Runtime(executor=42)


class TestDerivedViews:
    def test_parallel_via_workers_or_executor(self):
        assert not Runtime().parallel
        assert Runtime(workers=2).parallel
        assert Runtime(executor="default").parallel

    def test_backend_name_resolves_registry_default_at_call_time(self):
        rt = Runtime()
        assert rt.backend_name == "python"
        with use_backend("numpy"):
            assert rt.backend_name == "numpy"
        assert rt.backend_name == "python"

    def test_pinned_backend_ignores_registry_scoping(self):
        rt = Runtime(backend="python")
        with use_backend("numpy"):
            assert rt.backend_name == "python"

    def test_with_backend(self):
        rt = Runtime(workers=3)
        assert rt.with_backend(None) is rt
        assert rt.with_backend("numpy").backend == "numpy"
        assert rt.with_backend("numpy").workers == 3

    def test_serial_strips_fanout_only(self):
        rt = Runtime(workers=4, backend="numpy", executor="default")
        s = rt.serial()
        assert s.workers == 1
        assert s.executor is None
        assert s.backend == "numpy"
        plain = Runtime(backend="numpy")
        assert plain.serial() is plain

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            Runtime().replace(workers=-1)

    def test_describe_is_json_ready(self):
        import json

        d = Runtime(workers=2, backend="numpy").describe()
        assert d["backend"] == "numpy"
        assert d["backend_resolved"] == "numpy"
        assert d["workers"] == 2
        assert d["executor"] is None
        assert "chunksize" not in d
        assert d["parallel"] is True
        assert d["traced"] is False
        json.dumps(d)


class TestResolvePrecedence:
    def test_explicit_runtime_never_merges_with_process_default(self):
        # the paper-harness pin: Runtime() means serial pure python,
        # no matter what the surrounding process configured
        with use_runtime(Runtime(workers=8, backend="numpy")):
            rt = Runtime.resolve(Runtime())
            assert rt.workers == 1
            assert rt.backend is None

    def test_no_args_resolves_the_process_default(self):
        with use_runtime(Runtime(workers=8)):
            assert Runtime.resolve().workers == 8
        assert Runtime.resolve().workers == 1

    def test_overrides_replace_individual_fields(self):
        base = Runtime(workers=4, backend="numpy")
        rt = Runtime.resolve(base, workers=2)
        assert rt.workers == 2
        assert rt.backend == "numpy"

    def test_overrides_apply_to_the_default_base(self):
        with use_runtime(Runtime(backend="numpy")):
            rt = Runtime.resolve(workers=3)
            assert rt.workers == 3
            assert rt.backend == "numpy"

    def test_resolve_rejects_non_runtime(self):
        with pytest.raises(TypeError, match="runtime must be"):
            Runtime.resolve("numpy")  # type: ignore[arg-type]


class TestProcessDefault:
    def test_set_default_runtime_returns_previous(self):
        a, b = Runtime(workers=2), Runtime(workers=3)
        assert set_default_runtime(a) is None
        assert set_default_runtime(b) is a
        assert default_runtime() is b
        set_default_runtime(None)
        assert default_runtime().workers == 1

    def test_set_default_runtime_rejects_non_runtime(self):
        with pytest.raises(TypeError):
            set_default_runtime("numpy")  # type: ignore[arg-type]

    def test_use_runtime_scopes_and_restores(self):
        outer = Runtime(workers=2)
        with use_runtime(outer):
            assert default_runtime() is outer
            with use_runtime(Runtime(workers=5)):
                assert default_runtime().workers == 5
            assert default_runtime() is outer
        assert default_runtime().workers == 1

    def test_use_runtime_field_shorthand_derives_from_default(self):
        with use_runtime(Runtime(workers=4)):
            with use_runtime(backend="numpy") as rt:
                assert rt.workers == 4
                assert rt.backend == "numpy"

    def test_use_runtime_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_runtime(Runtime(workers=2)):
                raise RuntimeError("boom")
        assert default_runtime().workers == 1

    def test_activate_installs_the_default(self):
        rt = Runtime(workers=2)
        with rt.activate():
            assert default_runtime() is rt
        assert default_runtime().workers == 1


class TestEnvironmentSeeding:
    def test_env_seeds_the_baseline(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        rt = default_runtime()
        assert rt.backend == "numpy"
        assert rt.workers == 3

    def test_env_is_reread_each_call(self, monkeypatch):
        assert default_runtime().workers == 1
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert default_runtime().workers == 2

    def test_explicit_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        with use_runtime(Runtime(workers=2)):
            assert default_runtime().workers == 2

    def test_chunksize_env_is_ignored(self, monkeypatch):
        # the chunk plan has no knob: any REPRO_CHUNKSIZE, even one
        # the old parser refused, leaves the built-in default
        for value in ("16", "legacy", "fast"):
            monkeypatch.setenv("REPRO_CHUNKSIZE", value)
            assert default_runtime() == Runtime()

    def test_invalid_env_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_runtime()
        monkeypatch.delenv("REPRO_WORKERS")
        monkeypatch.setenv("REPRO_EXECUTOR", "warm")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            default_runtime()
