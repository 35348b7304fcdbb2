"""Cumulative-bound early abandoning for cDTW (UCR-suite style).

Plain early abandoning stops a DTW once the current row's *accumulated*
minimum exceeds the threshold.  The UCR suite (the paper's [3]) stops
far earlier by also charging what the *remaining* rows must at least
cost: row ``i'`` of ``x`` can only match ``y`` samples within the
band, so it contributes at least its LB_Keogh gap cost against the
band envelope of ``y``.  Summing those per-row gaps from the tail
gives a suffix bound; the DP abandons as soon as

    min(accumulated row i) + suffix_bound[i] > best_so_far.

The result is still exact whenever it completes -- the bound only ever
justifies *discarding* candidates that provably cannot win.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.cost import resolve_cost
from ..core.engine import DtwResult, dp_over_window
from ..core.validate import validate_pair
from ..core.window import Window
from ..lowerbounds.envelope import Envelope, envelope
from ..obs import trace as _obs


def suffix_gap_bounds(
    x: Sequence[float],
    y_envelope: Envelope,
    squared: bool = True,
) -> List[float]:
    """Per-row suffix lower bounds of ``x`` against ``y``'s envelope.

    ``result[i]`` is the summed gap cost of samples ``x[i+1:]`` against
    the envelope -- a valid lower bound on what any banded path must
    still pay after finishing row ``i``, provided the envelope band is
    at least the DTW band.
    """
    if len(x) != len(y_envelope):
        raise ValueError(
            f"series length {len(x)} != envelope length {len(y_envelope)}"
        )
    upper, lower = y_envelope.upper, y_envelope.lower
    gaps = []
    for i, v in enumerate(x):
        if v > upper[i]:
            d = v - upper[i]
        elif v < lower[i]:
            d = lower[i] - v
        else:
            d = 0.0
        gaps.append(d * d if squared else d)
    out = [0.0] * len(x)
    acc = 0.0
    for i in range(len(x) - 1, -1, -1):
        out[i] = acc
        acc += gaps[i]
    return out


def cdtw_cumulative_abandon(
    x: Sequence[float],
    y: Sequence[float],
    band: int,
    threshold: float,
    y_envelope: Optional[Envelope] = None,
    squared: bool = True,
) -> DtwResult:
    """Banded DTW with cumulative-suffix-bound early abandoning.

    Exact when it completes (``abandoned=False``); abandons -- usually
    after touching far fewer cells than plain early abandoning -- when
    the distance provably exceeds ``threshold``.  An abandoning DP
    runs the pure engine on every backend (see
    :func:`repro.core.kernels.stacked_kernels`), so there is no
    execution context to pick.

    Parameters
    ----------
    x, y:
        Equal-length series.
    band:
        Sakoe-Chiba half-width in cells.
    threshold:
        The best-so-far to beat.  A pair whose completed distance is
        at most ``threshold`` is never abandoned; one a few ulps above
        it may complete instead (see the rounding allowance below).
    y_envelope:
        Precomputed band-``band`` envelope of ``y`` (built if absent;
        pass it when scanning many ``x`` against one ``y``).
    squared:
        Local cost convention.
    """
    validate_pair(x, y)
    if len(x) != len(y):
        raise ValueError("cumulative abandoning requires equal lengths")
    if band < 0:
        raise ValueError("band must be non-negative")
    _obs.incr("cumulative.calls")
    env = y_envelope if y_envelope is not None else envelope(y, band)
    if env.band < band:
        raise ValueError(
            f"envelope band {env.band} narrower than DTW band {band}; "
            "the suffix bound would be invalid"
        )
    _obs.incr("lb.suffix_builds")
    suffix = suffix_gap_bounds(x, env, squared=squared)
    window = Window.band(len(x), len(y), band)
    # Rounding allowance.  In exact arithmetic min(row i) + suffix[i]
    # never exceeds the final distance, but the floor adds a forward
    # prefix to a *backward* suffix sum, so in floating point it can
    # round a few ulps above the completed DP's own left-to-right sum.
    # Every term is non-negative, so each rounded addition lies within
    # a factor 1 +- u of the exact one (u = 2**-53).  The floor rounds
    # at most len(x) times on its way up (suffix sum, then the final
    # add); the completed distance rounds once per remaining path cell
    # on its way down, at most len(x) + len(y) times.  The floor thus
    # exceeds the completed distance by a factor below
    # 1 + (2 * len(x) + len(y)) * u + O(u**2), inside the allowance
    # 1 + 2 * (len(x) + len(y)) * u used here: a pair whose distance
    # is at most ``threshold`` is never abandoned.
    slack = threshold * (len(x) + len(y)) * 2.0 ** -52
    return dp_over_window(
        x, y, window,
        cost="squared" if squared else "abs",
        abandon_above=threshold + slack,
        suffix_bound=suffix,
    )
