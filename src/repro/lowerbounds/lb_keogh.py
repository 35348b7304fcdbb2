"""LB_Keogh: the envelope lower bound for banded DTW.

For equal-length series and a Sakoe-Chiba band of half-width ``r``,
any admitted warping path matches ``y[i]`` only against samples
``x[i-r .. i+r]``.  Hence the cost of matching ``y[i]`` is at least the
cost of the nearest point of the band-``r`` envelope of ``x``, and

    LB_Keogh(x, y) = sum_i  cost-to-envelope(y[i])  <=  cDTW_r(x, y).

This is the workhorse bound of DTW similarity search; the "reversed"
variant swaps the roles of query and candidate (also valid, often
complementary), and the max of the two is a tighter bound still.
"""

from __future__ import annotations

from math import inf
from typing import Optional, Sequence

from .envelope import Envelope, envelope


def _gap_cost(value: float, lo: float, hi: float, squared: bool) -> float:
    if value > hi:
        d = value - hi
    elif value < lo:
        d = lo - value
    else:
        return 0.0
    return d * d if squared else d


def lb_keogh(
    query_envelope: Envelope,
    candidate: Sequence[float],
    squared: bool = True,
    abandon_above: Optional[float] = None,
) -> float:
    """LB_Keogh of ``candidate`` against a precomputed query envelope.

    Parameters
    ----------
    query_envelope:
        :func:`repro.lowerbounds.envelope.envelope` of the *query* with
        the same band as the cDTW being bounded.
    candidate:
        Equal-length series to bound.
    squared:
        Use squared (default) or absolute per-point gap cost, matching
        the DTW local cost.
    abandon_above:
        Early-abandon the summation once it exceeds this threshold
        (returns ``inf``).

    Returns
    -------
    float
        A value ``<= cdtw(query, candidate, band=query_envelope.band)``.
    """
    if len(candidate) != len(query_envelope):
        raise ValueError(
            f"candidate length {len(candidate)} != envelope length "
            f"{len(query_envelope)}"
        )
    limit = inf if abandon_above is None else abandon_above
    # the sum never drops below 0.0 and an in-envelope sample adds
    # nothing, so testing once up front and then only after a gap is
    # added abandons exactly where a per-sample test would
    if len(candidate) and 0.0 > limit:
        return inf
    total = 0.0
    for v, lo, hi in zip(candidate, query_envelope.lower,
                         query_envelope.upper):
        if v > hi:
            d = v - hi
        elif v < lo:
            d = lo - v
        else:
            continue
        total += d * d if squared else d
        if total > limit:
            return inf
    return total


def lb_keogh_reversed(
    query: Sequence[float],
    candidate: Sequence[float],
    band: int,
    squared: bool = True,
    abandon_above: Optional[float] = None,
) -> float:
    """LB_Keogh with the envelope built over the *candidate*.

    Costs an envelope construction per call (the UCR suite computes it
    lazily only for candidates that survive the cheaper bounds), but
    frequently prunes candidates the forward bound misses.
    """
    env = envelope(candidate, band)
    return lb_keogh(env, query, squared=squared, abandon_above=abandon_above)
