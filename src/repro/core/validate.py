"""Input validation shared by the public distance entry points.

Distances over NaN or infinite samples silently poison every downstream
structure (searches return arbitrary neighbours, dendrograms collapse),
so the public API rejects non-finite input up front with a pointed
error instead of propagating NaNs through thousands of DP cells.
Validation is O(n) against the DP's O(n*w) and is skipped by internal
recursion (FastDTW validates once at the boundary, not per level).

The contract is dims-aware: a series is either **univariate** (scalar
samples) or **multivariate** (every sample a same-length vector --
shape ``(length, dims)``).  :func:`series_dims` classifies a series
under that contract, :func:`validate_series` enforces it per series
(mixed scalar/vector samples and ragged sample widths are rejected,
not just non-finite values) and returns the dims, and
:func:`validate_pair` additionally refuses to compare series of
different dimensionality and returns the shared dims, so a scalar-only
measure (:func:`validate_univariate_pair`) need not scan again.

The common case -- a valid univariate series -- costs one C-level pass
(``all(map(isfinite, x))``).  Only a series that fails it (a
non-finite or non-real sample, or vector samples) runs the ordered
per-sample checks, which name the failure exactly as before: the fast
path decides nothing the full checks would decide differently.
"""

from __future__ import annotations

from math import isfinite
from typing import Optional, Sequence


def series_dims(
    x: Sequence[float], name: str = "series"
) -> Optional[int]:
    """The series' sample dimensionality under the dims contract.

    Returns ``None`` for a univariate series (scalar samples) and
    ``dims >= 1`` for a multivariate one (every sample a length-
    ``dims`` vector).  Only the *shape* is checked here; finiteness is
    :func:`validate_series`'s job.

    Raises
    ------
    ValueError
        Empty series, zero-length samples, ragged sample widths, or a
        mix of scalar and vector samples -- each named explicitly, so
        a flat series handed to a multivariate consumer (or vice
        versa) fails with the expected ``(length, dims)`` shape in the
        message instead of an opaque ``TypeError``.
    """
    if len(x) == 0:
        raise ValueError(f"{name} is empty")
    first_vector = isinstance(x[0], (tuple, list))
    dims = len(x[0]) if first_vector else None
    if first_vector and dims == 0:
        raise ValueError(
            f"{name}: sample 0 is zero-dimensional; multivariate "
            "series must be shaped (length, dims) with dims >= 1"
        )
    for i, v in enumerate(x):
        if isinstance(v, (tuple, list)) != first_vector:
            raise ValueError(
                f"{name}: sample {i} is "
                f"{'a vector' if not first_vector else 'a scalar'} but "
                f"sample 0 is {'a vector' if first_vector else 'a scalar'}; "
                "a series must be all-scalar (univariate) or shaped "
                "(length, dims) with equal-length sample vectors"
            )
        if first_vector and len(v) != dims:
            raise ValueError(
                f"{name}: inconsistent dimensionality (sample {i} has "
                f"{len(v)} components but sample 0 has {dims}); "
                "multivariate series must be shaped (length, dims)"
            )
    return dims


def validate_series(
    x: Sequence[float], name: str = "series"
) -> Optional[int]:
    """Reject empty series, shape violations and non-finite samples.

    Returns the series' dims (as :func:`series_dims`): ``None`` for a
    univariate series.

    Raises
    ------
    ValueError
        With the offending index, e.g.
        ``"series y: sample 3 is not finite (nan)"``.
    """
    # fast path: every sample a finite real scalar (a tuple or list
    # sample makes isfinite raise).  Anything else falls through to
    # the ordered checks below, which name the first failure.
    try:
        if len(x) and all(map(isfinite, x)):
            return None
    except (TypeError, ValueError, OverflowError):
        pass
    dims = series_dims(x, name)
    for i, v in enumerate(x):
        if isinstance(v, (tuple, list)):  # multivariate sample
            for k, c in enumerate(v):
                if not isfinite(c):
                    raise ValueError(
                        f"{name}: sample {i} component {k} is not "
                        f"finite ({c!r})"
                    )
        elif not isfinite(v):
            raise ValueError(
                f"{name}: sample {i} is not finite ({v!r})"
            )
    return dims


def validate_pair(
    x: Sequence[float], y: Sequence[float],
) -> Optional[int]:
    """Validate both operands of a distance computation.

    Beyond the per-series checks, the two series must agree on
    dimensionality: comparing a univariate series against a
    multivariate one (or 3-axis against 2-axis) is always a caller
    bug, caught here rather than deep in a DP loop.  Returns the
    shared dims (``None`` for univariate).
    """
    dx = validate_series(x, "series x")
    dy = validate_series(y, "series y")
    if dx != dy:
        fmt = lambda d: "univariate" if d is None else f"{d}-dimensional"
        raise ValueError(
            f"dimensionality mismatch: series x is {fmt(dx)} but "
            f"series y is {fmt(dy)}"
        )
    return dx


def validate_univariate_pair(
    x: Sequence[float], y: Sequence[float], where: str,
) -> None:
    """:func:`validate_pair`, then refuse multivariate input to the
    scalar-only measure ``where``.

    The scalar measures' DP loops subtract samples directly, so a
    vector sample would die in arithmetic; this names the fix instead.
    """
    if validate_pair(x, y) is not None:
        raise ValueError(
            f"{where} is a univariate measure but the input is "
            "multivariate (shaped (length, dims)); use the "
            "multivariate measures instead (dtw_d/dtw_i for full DTW, "
            "cdtw_d/cdtw_i for banded)"
        )
