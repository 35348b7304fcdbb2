"""The kernel backend registry: one switch for every repeated-use path.

The paper's head-to-head timings must run the pure-Python engine for
both contestants ("same language, same hardware") -- but everything
*around* that comparison (classification, clustering, similarity
search, batch matrices) is production-style repeated use, where the
ROADMAP wants hardware speed.  This module lets those consumers pick
their compute kernels without knowing who provides them:

* ``backend="python"`` -- the pure engine
  (:func:`repro.core.engine.dp_over_window` and the scalar
  lower-bound implementations).  The default; bit-for-bit the
  behaviour every consumer had before the registry existed.
* ``backend="numpy"`` -- the stacked kernels of
  :mod:`repro.core.numpy_backend`.  Stacked DTW distances are
  bit-identical to the pure engine (enforced by
  ``tests/core/test_numpy_parity.py``), and so are the lower bounds:
  the chunk kernels sum gap costs in the scalar implementations'
  sequential order.

A backend contributes *stacked* kernels only.  The per-pair DP has
one implementation, :func:`repro.core.engine.dp_over_window`:
:func:`stacked_kernels` is the rule that sends a plain per-pair
distance on a stacked backend to a one-pair ``dtw_chunk`` call and
every other per-pair DP -- a path, an early-abandoning DP, or any DP
on the python backend -- to the engine.

Consumers resolve a backend *per call* (``backend=`` keyword, with
``None`` meaning "the process default") and fetch a
:class:`KernelSet`.  The process default is ``"python"`` unless
changed via :func:`set_default_backend` or, scoped, the
:func:`use_backend` context manager.

:mod:`repro.timing` and :mod:`repro.experiments` never consult the
registry: they pin ``backend="python"`` explicitly, so flipping the
process default cannot silently corrupt a paper reproduction (see
``repro.timing.runner.PINNED_BACKEND``).
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "KernelSet",
    "available_backends",
    "default_backend",
    "set_default_backend",
    "use_backend",
    "resolve_backend",
    "get_kernels",
    "stacked_kernels",
]


@dataclass(frozen=True)
class KernelSet:
    """The callables one backend contributes, under a fixed contract.

    Attributes
    ----------
    name:
        The backend's registry name.
    lb_kim:
        ``lb_kim(query, candidates, cost="squared", tiers=2)`` ->
        per-candidate bounds (sequence-like of floats).
    dtw_chunk:
        ``dtw_chunk(xs, ys, window, cost="squared", count=None)`` ->
        per-pair distances for one shape-homogeneous stacked chunk:
        ``(chunk, n)`` scalar rows or ``(chunk, n, dims)`` rows of
        vector samples (the dependent multivariate measure).  Every
        distance is bit-identical to
        :func:`repro.core.engine.dp_over_window` on the same pair, with
        the vector cost of :mod:`repro.core.multivariate` on a channel
        axis; rows at index ``count`` and beyond are padding and are
        never read (see :func:`repro.core.numpy_backend.dtw_chunk`).
    envelope_chunk:
        ``envelope_chunk(series, band, count=None)`` ->
        ``(upper, lower)`` envelope stacks, row ``t`` value-identical
        to :func:`repro.lowerbounds.envelope.envelope` of
        ``series[t]``; on a channel axis, per-channel envelopes laid
        out sample-major like the series.
    lb_keogh_chunk:
        ``lb_keogh_chunk(upper, lower, candidates, squared=True,
        abandon_above=None, count=None)`` -> per-candidate bounds,
        each bit-identical to the scalar
        :func:`repro.lowerbounds.lb_keogh.lb_keogh` (values and
        abandon decisions).  Envelopes may be shared (1-D) or stacked
        per row; the reversed bound is this kernel scored with the
        query against a candidate's envelope.

    The multivariate bounds need no fields of their own: they are
    per-channel sums of the scalar bounds
    (:mod:`repro.lowerbounds.nd`).
    """

    name: str
    lb_kim: Callable
    dtw_chunk: Callable
    envelope_chunk: Callable
    lb_keogh_chunk: Callable


def _build_python() -> KernelSet:
    from ..lowerbounds.envelope import envelope
    from ..lowerbounds.lb_kim import lb_kim
    from .engine import dp_over_window
    from .multivariate import _resolve_vector_cost

    def lb_kim_each(query, candidates, cost="squared", tiers=2):
        return [lb_kim(query, c, cost=cost, tiers=tiers)
                for c in candidates]

    def _real_rows(stack, count):
        if count is None:
            return list(stack)
        if not 0 <= count <= len(stack):
            raise ValueError(
                f"count={count} outside the chunk's 0..{len(stack)} rows"
            )
        return list(stack[:count])

    def _has_channels(row):
        # rows of (n, dims) vector samples: the channel axis is present
        return hasattr(row[0], "__len__")

    def dtw_chunk_each(xs, ys, window, cost="squared", count=None):
        # the per-pair dispatch the chunk contract falls back to on
        # this backend; pad rows are dropped before any computation,
        # and rows of vector samples take the vector cost
        xr, yr = _real_rows(xs, count), _real_rows(ys, count)
        if xr and _has_channels(xr[0]):
            cost = _resolve_vector_cost(cost)
        return [
            float(dp_over_window(x, y, window, cost=cost).distance)
            for x, y in zip(xr, yr)
        ]

    def envelope_chunk_each(series, band, count=None):
        rows = _real_rows(series, count)
        if rows and _has_channels(rows[0]):
            # per-channel envelopes, laid out sample-major like the rows
            per_row = [
                [envelope([float(v[k]) for v in s], band)
                 for k in range(len(s[0]))]
                for s in rows
            ]
            return (
                [list(zip(*(e.upper for e in envs))) for envs in per_row],
                [list(zip(*(e.lower for e in envs))) for envs in per_row],
            )
        envs = [envelope(s, band) for s in rows]
        return ([e.upper for e in envs], [e.lower for e in envs])

    def lb_keogh_chunk_each(upper, lower, candidates, squared=True,
                            abandon_above=None, count=None):
        from ..lowerbounds.lb_keogh import _gap_cost

        rows = _real_rows(candidates, count)
        # a 1-D envelope (first element is a scalar) is shared by
        # every candidate; otherwise it is a per-row stack
        shared = len(upper) > 0 and not hasattr(upper[0], "__len__")
        out = []
        for t, cand in enumerate(rows):
            up = upper if shared else upper[t]
            lo = lower if shared else lower[t]
            if len(cand) != len(up):
                raise ValueError(
                    f"candidate length {len(cand)} != envelope length "
                    f"{len(up)}"
                )
            total = 0.0
            for k, v in enumerate(cand):
                total += _gap_cost(v, lo[k], up[k], squared)
                if abandon_above is not None and total > abandon_above:
                    total = float("inf")
                    break
            out.append(total)
        return out

    return KernelSet(
        name="python",
        lb_kim=lb_kim_each,
        dtw_chunk=dtw_chunk_each,
        envelope_chunk=envelope_chunk_each,
        lb_keogh_chunk=lb_keogh_chunk_each,
    )


def _build_numpy() -> KernelSet:
    from ..obs import trace as _obs
    from . import numpy_backend as nb

    def dtw_chunk(xs, ys, window, cost="squared", count=None):
        # the stacked kernel bypasses the per-call dp hooks, so the
        # dp.* counters are charged here: one call and
        # ``window.cell_count()`` lattice cells per real pair, exactly
        # what the engine's hook records (the counter-parity contract)
        with _obs.span("dp"):
            distances = nb.dtw_chunk(
                xs, ys, window, cost=cost, count=count
            )
        _obs.incr("dp.calls", len(distances))
        _obs.incr("dp.cells", window.cell_count() * len(distances))
        return distances

    return KernelSet(
        name="numpy",
        lb_kim=nb.lb_kim_batch,
        dtw_chunk=dtw_chunk,
        envelope_chunk=nb.envelope_chunk,
        lb_keogh_chunk=nb.lb_keogh_chunk,
    )


def _numpy_available() -> bool:
    return importlib.util.find_spec("numpy") is not None


_BUILDERS: Dict[str, Callable[[], KernelSet]] = {
    "python": _build_python,
    "numpy": _build_numpy,
}
_AVAILABILITY: Dict[str, Callable[[], bool]] = {
    "python": lambda: True,
    "numpy": _numpy_available,
}
_BUILT: Dict[str, KernelSet] = {}
_DEFAULT = "python"


def available_backends() -> Tuple[str, ...]:
    """Names of the backends usable in this environment."""
    return tuple(
        name for name in _BUILDERS if _AVAILABILITY[name]()
    )


def default_backend() -> str:
    """The process-wide default backend name."""
    return _DEFAULT


def resolve_backend(backend: Optional[str]) -> str:
    """Turn a ``backend=`` argument into a concrete backend name.

    ``None`` resolves to the process default; anything else must name
    an available backend.
    """
    name = _DEFAULT if backend is None else backend
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown backend {name!r}; pick from {tuple(_BUILDERS)}"
        )
    if not _AVAILABILITY[name]():
        raise ValueError(
            f"backend {name!r} is not available in this environment"
        )
    return name


def set_default_backend(backend: str) -> str:
    """Set the process default; returns the previous default.

    Affects every subsequent call that passes ``backend=None``.  The
    paper-reproduction harnesses are immune: they pin
    ``backend="python"`` explicitly.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = resolve_backend(backend)
    return previous


@contextmanager
def use_backend(backend: str):
    """Scoped :func:`set_default_backend`::

        with use_backend("numpy"):
            matrix = distance_matrix(series, measure="cdtw", window=0.1)
    """
    previous = set_default_backend(backend)
    try:
        yield
    finally:
        set_default_backend(previous)


def get_kernels(backend: Optional[str] = None) -> KernelSet:
    """The :class:`KernelSet` for ``backend`` (default: process default)."""
    name = resolve_backend(backend)
    built = _BUILT.get(name)
    if built is None:
        built = _BUILT[name] = _BUILDERS[name]()
    return built


def stacked_kernels(
    backend: Optional[str] = None,
    return_path: bool = False,
    abandon_above: Optional[float] = None,
) -> Optional[KernelSet]:
    """The per-pair DP rule: the kernel set that runs one pair as a
    one-pair stack, or ``None`` when the engine runs it.

    Only a plain distance on a stacked backend (``"numpy"``) takes the
    stack -- a one-pair ``dtw_chunk`` call (with a channel axis for a
    multivariate pair), the same wavefront the batch engine runs.  A DP that returns a path
    or may abandon, and any DP on the python backend, runs
    :func:`repro.core.engine.dp_over_window`: one implementation,
    bit-identical answers and ``dp.*`` counters on every backend.
    """
    if return_path or abandon_above is not None:
        return None
    name = resolve_backend(backend)
    return None if name == "python" else get_kernels(name)

