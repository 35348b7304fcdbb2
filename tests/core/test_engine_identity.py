"""The rolling-row engine is bit-identical to the per-row-list loop.

``_dp_over_window`` keeps one absolute-column row and updates it in
place.  ``reference_dp`` below is the loop it replaced, kept verbatim
as the oracle: a fresh list per row, ranges looked up per neighbour,
the local cost dispatched per cell.  Every input that loop accepts
must give an equal result -- distance (NaN, infinities and the sign of
zero included), cells, cost name, abandonment and path -- or raise an
equal exception, including samples with NaN, +-inf and -0.0 and costs
that return NaN or -0.0.
"""

from __future__ import annotations

import math
from math import inf, nan
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import cost_name, resolve_cost
from repro.core.engine import DtwResult, _backtrack, _dp_over_window
from repro.core.window import Window


def reference_dp(x, y, window, cost, return_path, abandon_above,
                 suffix_bound):
    """The engine's DP loop before the rolling row, unchanged."""
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        raise ValueError("cannot warp empty series")
    if (n, m) != (window.n, window.m):
        raise ValueError(
            f"window is {window.n}x{window.m} but series are {n}x{m}"
        )

    named = cost if isinstance(cost, str) else None
    cost_fn = None if named in ("squared", "abs") else resolve_cost(cost)

    ranges = window.ranges
    cells = 0
    rows: List[List[float]] = []

    prev: List[float] = []
    prev_lo = prev_hi = 0
    abandoned = False

    for i in range(n):
        lo, hi = ranges[i]
        width = hi - lo + 1
        cur = [inf] * width
        xi = x[i]
        cells += width

        for j in range(lo, hi + 1):
            if named == "squared":
                d = xi - y[j]
                local = d * d
            elif named == "abs":
                local = abs(xi - y[j])
            else:
                local = cost_fn(xi, y[j])

            if i == 0:
                if j == 0:
                    best = 0.0
                else:
                    best = cur[j - 1 - lo]
            else:
                best = inf
                jj = j - 1
                if prev_lo <= jj <= prev_hi:
                    v = prev[jj - prev_lo]
                    if v < best:
                        best = v
                if prev_lo <= j <= prev_hi:
                    v = prev[j - prev_lo]
                    if v < best:
                        best = v
                if j > lo:
                    v = cur[j - 1 - lo]
                    if v < best:
                        best = v
            cur[j - lo] = local + best

        if abandon_above is not None:
            floor = min(cur)
            if suffix_bound is not None:
                floor += suffix_bound[i]
            if floor > abandon_above:
                abandoned = True
                break

        if return_path:
            rows.append(cur)
        prev, prev_lo, prev_hi = cur, lo, hi

    if abandoned:
        return DtwResult(inf, None, cells, cost_name(cost), abandoned=True)

    distance = prev[m - 1 - prev_lo]
    path = _backtrack(rows, ranges) if return_path else None
    return DtwResult(distance, path, cells, cost_name(cost))


def _same_float(a, b) -> bool:
    """Equal as float64 bit patterns up to the NaN payload."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _outcome(fn, args):
    try:
        return fn(*args)
    except Exception as exc:  # the property compares raised errors too
        return exc


def _fresh(args):
    """The same arguments with a stateful cost reset."""
    cost = args[3]
    if isinstance(cost, RaisesOnCall):
        return args[:3] + (RaisesOnCall(cost.limit),) + args[4:]
    return args


def assert_identical(args):
    got = _outcome(_dp_over_window, _fresh(args))
    want = _outcome(reference_dp, _fresh(args))
    if isinstance(want, Exception):
        assert type(got) is type(want) and got.args == want.args, (
            got, want,
        )
        return
    assert not isinstance(got, Exception), (got, want)
    assert type(got.distance) is type(want.distance)
    assert _same_float(got.distance, want.distance), (got, want)
    assert (got.cells, got.cost, got.abandoned, got.path) == (
        want.cells, want.cost, want.abandoned, want.path,
    )


# -- costs --------------------------------------------------------------


def nan_above_one(a, b):
    """A cost that returns NaN wherever the samples differ by > 1."""
    d = abs(a - b)
    return nan if d > 1.0 else d


def negative_zero(a, b):
    """``-0.0`` on equal samples, the squared difference elsewhere."""
    return -0.0 if a == b else (a - b) * (a - b)


def signed_difference(a, b):
    """A negative-capable cost: neighbours the window excludes then
    matter even where a non-negative cost could not tell them apart."""
    return a - b


class RaisesOnCall:
    """A cost that fails on its ``limit``-th call (fresh per run)."""

    __name__ = "raises_on_call"

    def __init__(self, limit):
        self.limit, self.calls = limit, 0

    def __call__(self, a, b):
        self.calls += 1
        if self.calls == self.limit:
            raise ArithmeticError(f"cost failed on call {self.calls}")
        return abs(a - b)


# -- strategies ---------------------------------------------------------

finite = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)
special = st.sampled_from([nan, inf, -inf, -0.0, 0.0])


@st.composite
def series(draw, length):
    # specials in one series of three, so most lattices stay finite
    samples = st.one_of(finite, finite, finite, special) if draw(
        st.integers(0, 2)
    ) == 0 else finite
    return draw(st.lists(samples, min_size=length, max_size=length))


@st.composite
def windows(draw, n, m):
    kind = draw(st.sampled_from(["full", "band", "cells"]))
    if kind == "full":
        return Window.full(n, m)
    if kind == "band":
        return Window.band(n, m, draw(st.integers(0, 6)))
    count = draw(st.integers(0, 40))
    cells = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)))
        for _ in range(count)
    ]
    return Window.from_cells(n, m, cells)


@st.composite
def dp_inputs(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    x = draw(series(n))
    y = draw(series(m))
    window = draw(windows(n, m))
    cost = draw(st.sampled_from([
        "squared", "abs", resolve_cost("squared"), nan_above_one,
        negative_zero, signed_difference, "raises",
    ]))
    if cost == "raises":
        cost = RaisesOnCall(draw(st.integers(1, n * m + 1)))
    return_path = draw(st.booleans())
    abandon_above = draw(st.one_of(
        st.none(), st.floats(0, 200), st.sampled_from([0.0, inf, nan]),
    ))
    suffix_bound = draw(st.one_of(
        st.none(),
        st.lists(st.floats(0, 50), min_size=n, max_size=n),
        # too short: an IndexError at the first row it misses
        st.lists(st.floats(0, 50), min_size=0, max_size=n - 1),
    ))
    return (x, y, window, cost, return_path, abandon_above, suffix_bound)


@settings(deadline=None, max_examples=600)
@given(dp_inputs())
def test_rolling_row_equals_reference_loop(args):
    assert_identical(args)


@pytest.mark.parametrize("args", [
    ([], [1.0], Window.full(1, 1), "squared", False, None, None),
    ([1.0], [], Window.full(1, 1), "squared", False, None, None),
    ([1.0, 2.0], [1.0], Window.full(1, 1), "squared", False, None, None),
    ([1.0], [1.0], Window.full(1, 1), "cubed", False, None, None),
    ([1.0], [1.0], Window.full(1, 1), 3, False, None, None),
], ids=["empty-x", "empty-y", "shape", "unknown-cost", "cost-type"])
def test_rejections_are_equal(args):
    assert_identical(args)
