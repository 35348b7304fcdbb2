"""Multivariate lower bounds: per-channel scalar bounds, summed.

For the independent measure the decomposition is immediate:
``cDTW_I(x, y) = sum_k cdtw(x_k, y_k)``, so summing any admissible
per-channel bound stays below it.  For the dependent measure, fix the
optimal DTW_D path: its total cost is the sum over channels of that
*same* path's per-channel cost, and each channel's cost along any
admitted path is at least that channel's own ``cdtw``.  Hence

    sum_k bound_k(x_k, y_k)  <=  sum_k cdtw(x_k, y_k)
                             =   cDTW_I(x, y)  <=  cDTW_D(x, y),

so one summed bound is admissible for *both* multivariate measures
(property-tested in ``tests/lowerbounds/test_nd_bounds.py``).

Channels are summed in channel order with plain sequential float
addition from ``0.0``, and ``0.0 + b == b`` for every bound
``b >= +0``, so a one-channel series reproduces the scalar bound bit
for bit (``tests/core/test_dim1_reduction.py``).  These sums are not
twins of the scalar bounds: every backend runs them, and they call the
scalar bounds once per channel.
"""

from __future__ import annotations

from math import inf
from typing import List, Optional, Sequence, Tuple

from ..core.cost import CostLike
from .envelope import Envelope, envelope
from .lb_improved import lb_improved
from .lb_keogh import lb_keogh
from .lb_kim import lb_kim

__all__ = [
    "channels",
    "envelopes_nd",
    "lb_kim_nd",
    "lb_keogh_nd",
    "lb_keogh_reversed_nd",
    "lb_improved_nd",
]


def channels(x: Sequence[Sequence[float]]) -> List[List[float]]:
    """Split a ``(length, dims)`` series into per-channel float lists.

    >>> channels([(1.0, 4.0), (2.0, 5.0), (3.0, 6.0)])
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    """
    if not x:
        raise ValueError("cannot split an empty series")
    first = x[0]
    if not hasattr(first, "__len__"):
        raise ValueError(
            "expected (length, dims) samples; got a flat scalar series"
        )
    dims = len(first)
    if dims == 0:
        raise ValueError("samples must have at least one component")
    out: List[List[float]] = [[] for _ in range(dims)]
    for i, v in enumerate(x):
        if len(v) != dims:
            raise ValueError(
                f"sample {i} has {len(v)} components, expected {dims}"
            )
        for k in range(dims):
            out[k].append(float(v[k]))
    return out


def envelopes_nd(
    x: Sequence[Sequence[float]], band: int
) -> Tuple[Envelope, ...]:
    """Per-channel band-``band`` envelopes of a multivariate series.

    Returns one :class:`~repro.lowerbounds.envelope.Envelope` per
    channel, in channel order -- the precomputable artefact the summed
    bounds below consume (and the dataset index persists).
    """
    return tuple(envelope(c, band) for c in channels(x))


def lb_kim_nd(
    x: Sequence[Sequence[float]],
    y: Sequence[Sequence[float]],
    cost: CostLike = "squared",
    tiers: int = 2,
) -> float:
    """Summed per-channel LB_Kim: an O(dims) bound on DTW_I and DTW_D.

    Note the per-channel tier-2 minima may pick *different* corner
    neighbours per channel, which only loosens each channel's bound --
    admissibility per channel is untouched, and the sum inherits it.
    """
    cx, cy = channels(x), channels(y)
    if len(cx) != len(cy):
        raise ValueError(
            f"dimension mismatch: {len(cx)} vs {len(cy)}"
        )
    total = 0.0
    for qx, qy in zip(cx, cy):
        total += lb_kim(qx, qy, cost=cost, tiers=tiers)
    return total


def lb_keogh_nd(
    query_envelopes: Sequence[Envelope],
    candidate: Sequence[Sequence[float]],
    squared: bool = True,
    abandon_above: Optional[float] = None,
) -> float:
    """Summed per-channel LB_Keogh against precomputed envelopes.

    ``abandon_above`` threads the *remaining* threshold into each
    channel's scalar bound, so the abandon decision is identical to
    accumulating every gap cost sequentially and comparing at each
    step (gap costs are non-negative; returns ``inf`` on abandon).
    """
    cand = channels(candidate)
    if len(cand) != len(query_envelopes):
        raise ValueError(
            f"candidate has {len(cand)} channels, envelopes have "
            f"{len(query_envelopes)}"
        )
    total = 0.0
    for env, c in zip(query_envelopes, cand):
        remaining = (
            None if abandon_above is None else abandon_above - total
        )
        part = lb_keogh(env, c, squared=squared, abandon_above=remaining)
        if part == inf:
            return inf
        total += part
    return total


def lb_keogh_reversed_nd(
    query: Sequence[Sequence[float]],
    candidate: Sequence[Sequence[float]],
    band: int,
    squared: bool = True,
    abandon_above: Optional[float] = None,
) -> float:
    """Summed per-channel reversed LB_Keogh (envelope over the
    candidate's channels, scored against the query's)."""
    return lb_keogh_nd(
        envelopes_nd(candidate, band), query,
        squared=squared, abandon_above=abandon_above,
    )


def lb_improved_nd(
    query: Sequence[Sequence[float]],
    candidate: Sequence[Sequence[float]],
    band: int,
    squared: bool = True,
    abandon_above: Optional[float] = None,
    query_envelopes: Optional[Sequence[Envelope]] = None,
) -> float:
    """Summed per-channel LB_Improved (Lemire's two-pass bound).

    Dominates :func:`lb_keogh_nd` channel by channel, hence in sum.
    ``query_envelopes`` accepts the same per-channel tuple
    :func:`envelopes_nd` produces (built here when ``None``).
    """
    cq, cc = channels(query), channels(candidate)
    if len(cq) != len(cc):
        raise ValueError(
            f"dimension mismatch: {len(cq)} vs {len(cc)}"
        )
    if query_envelopes is not None and len(query_envelopes) != len(cq):
        raise ValueError(
            f"query has {len(cq)} channels, envelopes have "
            f"{len(query_envelopes)}"
        )
    total = 0.0
    for k, (q, c) in enumerate(zip(cq, cc)):
        remaining = (
            None if abandon_above is None else abandon_above - total
        )
        part = lb_improved(
            q, c, band, squared=squared, abandon_above=remaining,
            query_envelope=(
                None if query_envelopes is None else query_envelopes[k]
            ),
        )
        if part == inf:
            return inf
        total += part
    return total
