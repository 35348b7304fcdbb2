"""One execution context for every repeated-use consumer.

PRs 1-4 each added an orthogonal execution knob -- ``workers=`` (the
batch pool), ``backend=`` (the kernel registry), ``executor=`` (the
persistent warm pool) -- and threaded it by hand through every
consumer signature.  This module
replaces that knob soup with a single frozen :class:`Runtime` value
that carries the full execution context, and a single resolution
point, :meth:`Runtime.resolve`, that merges

1. a per-call ``runtime=`` argument (wins outright),
2. the process default set via :func:`set_default_runtime` or the
   scoped :func:`use_runtime` context manager,
3. environment seeding (``REPRO_WORKERS``, ``REPRO_BACKEND``,
   ``REPRO_EXECUTOR``),
4. the built-in serial pure-python default.

Consumers (classification, clustering, search, anomaly/motif
discovery, the batch engine itself) accept ``runtime=`` and delegate
every backend/executor/worker decision here; none of them resolves a
knob on its own (grep-enforced by ``tests/runtime/test_source_scan``).

``Runtime.backend=None`` deliberately stays un-resolved until use: it
means "the kernel registry's process default", so the pre-existing
:func:`repro.core.kernels.use_backend` scoping keeps working
underneath a runtime that does not pin a backend.

The paper-reproduction harnesses (:mod:`repro.timing`,
:mod:`repro.experiments`) are immune to all of this: they construct
their own explicit serial pure-python ``Runtime``, which
:meth:`Runtime.resolve` never merges with the process default (see
``repro.timing.runner.PINNED_BACKEND`` and the source-scan tests in
``tests/timing/test_backend_pin.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace as _dc_replace
from typing import Iterator, Optional

__all__ = [
    "Runtime",
    "default_runtime",
    "set_default_runtime",
    "use_runtime",
]

ENV_VARS = (
    "REPRO_BACKEND",
    "REPRO_WORKERS",
    "REPRO_EXECUTOR",
)


@dataclass(frozen=True)
class Runtime:
    """The full execution context, as one immutable value.

    Attributes
    ----------
    backend:
        Kernel backend name for the DP measures and lower bounds
        (``None`` = the :mod:`repro.core.kernels` process default,
        resolved at use time so :func:`~repro.core.kernels.use_backend`
        still scopes underneath).
    workers:
        Worker processes for batched fan-out (``1`` = in-process
        serial, the exact reference computation).  Without an
        executor, each parallel batch call runs on a
        :class:`repro.batch.executor.BatchExecutor` scoped to the call.
    executor:
        ``None`` (a pool per call when ``workers > 1``), ``"default"``
        (the process-wide
        :func:`repro.batch.executor.default_executor`), or a
        :class:`repro.batch.executor.BatchExecutor` instance.  An
        executor implies the batched path and supplies the pool, so
        its worker count wins over ``workers``.
    trace:
        An optional :class:`repro.obs.RunTrace` to activate around
        work run under :meth:`activate` -- carried so one value can
        describe "how this workload executes *and* how it is
        observed".  Consumers do not consult it directly; the active
        trace remains :func:`repro.obs.active_trace`.
    """

    backend: Optional[str] = None
    workers: int = 1
    executor: object = None
    trace: object = None

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or isinstance(
            self.workers, bool
        ):
            raise ValueError("workers must be an int >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend is not None:
            from .core.kernels import resolve_backend

            resolve_backend(self.backend)
        if self.executor is not None and self.executor != "default":
            from .batch.executor import BatchExecutor

            if not isinstance(self.executor, BatchExecutor):
                raise TypeError(
                    "executor must be None, 'default', or a "
                    f"BatchExecutor, got {self.executor!r}"
                )

    # -- derived views -----------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Does this context fan work out (pool or executor)?"""
        return self.workers > 1 or self.executor is not None

    @property
    def backend_name(self) -> str:
        """The concrete backend name, resolved *now*.

        ``backend=None`` resolves through the kernel registry's
        process default at every call, so the answer can change under
        :func:`repro.core.kernels.use_backend`.
        """
        from .core.kernels import resolve_backend

        return resolve_backend(self.backend)

    def kernels(self):
        """The :class:`repro.core.kernels.KernelSet` this context uses."""
        from .core.kernels import get_kernels

        return get_kernels(self.backend)

    def resolved_executor(self):
        """The concrete executor, or ``None`` (none named)."""
        from .batch.executor import resolve_executor

        return resolve_executor(self.executor)

    # -- derivation helpers ------------------------------------------------

    def replace(self, **changes) -> "Runtime":
        """A copy with ``changes`` applied (re-validated)."""
        return _dc_replace(self, **changes)

    def with_backend(self, backend: Optional[str]) -> "Runtime":
        """This context with ``backend`` substituted when not ``None``.

        The spec-level override hook: a
        :class:`repro.classify.knn.DistanceSpec` that names a backend
        wins over the runtime's, while ``None`` defers to it.
        """
        if backend is None:
            return self
        return _dc_replace(self, backend=backend)

    def serial(self) -> "Runtime":
        """This context forced in-process (for sequential cascades)."""
        if not self.parallel:
            return self
        return _dc_replace(self, workers=1, executor=None)

    @classmethod
    def resolve(
        cls,
        runtime: Optional["Runtime"] = None,
        *,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        executor: object = None,
        trace: object = None,
    ) -> "Runtime":
        """The one resolution point: base context + per-call overrides.

        ``runtime`` (when given) is the base and is *not* merged with
        the process default -- an explicit Runtime is a complete
        statement of intent, which is what lets the paper harness pin
        itself.  Without it the base is :func:`default_runtime`
        (process default / environment / built-in).  Keyword overrides
        replace individual fields; ``None`` means "not passed".
        """
        if runtime is not None and not isinstance(runtime, Runtime):
            raise TypeError(
                f"runtime must be a Runtime or None, got {runtime!r}"
            )
        base = runtime if runtime is not None else default_runtime()
        overrides = {
            key: value
            for key, value in (
                ("workers", workers),
                ("backend", backend),
                ("executor", executor),
                ("trace", trace),
            )
            if value is not None
        }
        if not overrides:
            return base
        return base.replace(**overrides)

    # -- activation and introspection --------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Runtime"]:
        """Install as the scoped process default; enter any trace.

        ``with rt.activate():`` is :func:`use_runtime` plus activation
        of the attached :class:`~repro.obs.RunTrace` (when one is
        carried and not already active), so one ``with`` block states
        the complete execution-and-observation context.
        """
        from .obs import active_trace

        token = set_default_runtime(self)
        try:
            if self.trace is not None and active_trace() is not self.trace:
                with self.trace:
                    yield self
            else:
                yield self
        finally:
            set_default_runtime(token)

    def describe(self) -> dict:
        """JSON-ready description of the *effective* context.

        Powers ``python -m repro runtime``, the execution-stack
        doctor: requested vs resolved backend, worker count, executor
        state including shared-memory residency.
        """
        executor = None
        if self.executor is not None:
            exe = self.resolved_executor()
            executor = {
                "kind": (
                    "default" if self.executor == "default" else "instance"
                ),
                "workers": exe.workers,
                "start_method": exe.start_method,
                "use_shm": exe.use_shm,
                "closed": exe.closed,
                "shm_segments": list(exe.segment_names()),
            }
        return {
            "backend": self.backend,
            "backend_resolved": self.backend_name,
            "workers": self.workers,
            "executor": executor,
            "parallel": self.parallel,
            "traced": self.trace is not None,
        }


# -- process default -------------------------------------------------------

_EXPLICIT_DEFAULT: Optional[Runtime] = None


def _runtime_from_env() -> Runtime:
    """The environment-seeded baseline (built-in when nothing is set)."""
    kwargs: dict = {}
    backend = os.environ.get("REPRO_BACKEND")
    if backend:
        kwargs["backend"] = backend
    workers = os.environ.get("REPRO_WORKERS")
    if workers:
        try:
            kwargs["workers"] = int(workers)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {workers!r}"
            )
    executor = os.environ.get("REPRO_EXECUTOR")
    if executor:
        if executor != "default":
            raise ValueError(
                f"REPRO_EXECUTOR must be 'default', got {executor!r}"
            )
        kwargs["executor"] = "default"
    return Runtime(**kwargs)


def default_runtime() -> Runtime:
    """The process-default :class:`Runtime`.

    An explicit default (:func:`set_default_runtime` /
    :func:`use_runtime`) wins; otherwise the environment-seeded
    baseline, re-read on every call so tests and subprocesses see a
    live view.
    """
    if _EXPLICIT_DEFAULT is not None:
        return _EXPLICIT_DEFAULT
    return _runtime_from_env()


def set_default_runtime(
    runtime: Optional[Runtime],
) -> Optional[Runtime]:
    """Set (or with ``None`` clear) the explicit process default.

    Returns the previous explicit default (``None`` when the
    environment/built-in baseline was in effect), so callers can
    restore it -- :func:`use_runtime` is exactly that, scoped.
    """
    global _EXPLICIT_DEFAULT
    if runtime is not None and not isinstance(runtime, Runtime):
        raise TypeError(
            f"runtime must be a Runtime or None, got {runtime!r}"
        )
    previous = _EXPLICIT_DEFAULT
    _EXPLICIT_DEFAULT = runtime
    return previous


@contextmanager
def use_runtime(
    runtime: Optional[Runtime] = None, **fields
) -> Iterator[Runtime]:
    """Scoped :func:`set_default_runtime`, mirroring
    :func:`repro.core.kernels.use_backend`::

        with use_runtime(Runtime(workers=4, backend="numpy")):
            matrix = distance_matrix(series, window=0.1)

    Field shorthand derives from the current default::

        with use_runtime(backend="numpy"):
            ...
    """
    if runtime is None:
        runtime = default_runtime().replace(**fields)
    elif fields:
        runtime = runtime.replace(**fields)
    previous = set_default_runtime(runtime)
    try:
        yield runtime
    finally:
        set_default_runtime(previous)

