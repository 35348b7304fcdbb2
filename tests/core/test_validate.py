"""Unit tests for public-API input validation."""

import importlib.util
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cdtw import cdtw
from repro.core.dtw import dtw
from repro.core.fastdtw import fastdtw
from repro.core.fastdtw_reference import fastdtw_reference
from repro.core.validate import series_dims, validate_pair, validate_series


class TestValidateSeries:
    def test_accepts_finite(self):
        validate_series([1.0, -2.5, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_series([])

    def test_rejects_nan_with_index(self):
        with pytest.raises(ValueError, match="sample 2"):
            validate_series([1.0, 2.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="not finite"):
            validate_series([math.inf])

    def test_rejects_negative_inf(self):
        with pytest.raises(ValueError, match="not finite"):
            validate_series([-math.inf])

    def test_name_in_message(self):
        with pytest.raises(ValueError, match="series y"):
            validate_series([float("nan")], name="series y")

    def test_multivariate_samples_checked_componentwise(self):
        validate_series([(1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(ValueError, match="component 1"):
            validate_series([(1.0, float("nan"))])


class TestPublicApisReject:
    NAN_SERIES = [1.0, float("nan"), 2.0]
    OK = [1.0, 2.0, 3.0]

    def test_dtw(self):
        with pytest.raises(ValueError, match="not finite"):
            dtw(self.NAN_SERIES, self.OK)

    def test_cdtw(self):
        with pytest.raises(ValueError, match="not finite"):
            cdtw(self.OK, self.NAN_SERIES, band=1)

    def test_fastdtw(self):
        with pytest.raises(ValueError, match="not finite"):
            fastdtw(self.NAN_SERIES, self.OK, radius=1)

    def test_fastdtw_reference(self):
        with pytest.raises(ValueError, match="not finite"):
            fastdtw_reference(self.OK, self.NAN_SERIES, radius=1)

    def test_validate_pair_names_operand(self):
        with pytest.raises(ValueError, match="series x"):
            validate_pair(self.NAN_SERIES, self.OK)
        with pytest.raises(ValueError, match="series y"):
            validate_pair(self.OK, self.NAN_SERIES)


# -- one-pass validation equals the two-pass validator it replaced ---------
#
# A copy of the previous validator (series_dims, then a per-sample
# finiteness loop; validate_pair re-derived both dims afterwards).  The
# fast path must raise the same exception type and message, or return
# the same dims, on every input.


def _two_pass_series(x, name="series"):
    dims = series_dims(x, name)
    for i, v in enumerate(x):
        if isinstance(v, (tuple, list)):
            for k, c in enumerate(v):
                if not math.isfinite(c):
                    raise ValueError(
                        f"{name}: sample {i} component {k} is not "
                        f"finite ({c!r})"
                    )
        elif not math.isfinite(v):
            raise ValueError(f"{name}: sample {i} is not finite ({v!r})")
    return dims


def _two_pass_pair(x, y):
    _two_pass_series(x, "series x")
    _two_pass_series(y, "series y")
    dx = series_dims(x, "series x")
    dy = series_dims(y, "series y")
    if dx != dy:
        fmt = lambda d: "univariate" if d is None else f"{d}-dimensional"
        raise ValueError(
            f"dimensionality mismatch: series x is {fmt(dx)} but "
            f"series y is {fmt(dy)}"
        )
    return dx


def _outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except Exception as exc:  # the exception itself is the outcome
        return ("raised", type(exc), str(exc))


def _scalars():
    options = [
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-10, 10),
        st.booleans(),
        st.sampled_from([10 ** 400, -(10 ** 400)]),
        st.text(max_size=3),
        st.none(),
    ]
    if importlib.util.find_spec("numpy") is not None:
        import numpy as np

        options.append(st.sampled_from([
            np.float64(1.5), np.float64("nan"), np.float32(-2.0),
            np.float32("inf"), np.int64(3), np.bool_(True),
        ]))
    return st.one_of(*options)


_SAMPLES = st.one_of(
    _scalars(),
    st.tuples(_scalars()),
    st.tuples(_scalars(), _scalars()),
    st.lists(_scalars(), max_size=3),
)
# mostly-valid series (all floats, all 1- or 2-vectors) so the fast path
# runs, plus arbitrary mixtures of every sample kind (mixed, ragged)
_SERIES = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    st.lists(st.integers(-5, 5), max_size=6),
    st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(allow_nan=False, allow_infinity=False)),
             max_size=6),
    st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False)),
             max_size=6),
    st.lists(_SAMPLES, max_size=6),
)


class TestOnePassValidation:
    @settings(deadline=None, max_examples=400)
    @given(x=_SERIES)
    def test_series_matches_two_pass(self, x):
        assert (_outcome(validate_series, x, "series q")
                == _outcome(_two_pass_series, x, "series q"))

    @settings(deadline=None, max_examples=400)
    @given(x=_SERIES, y=_SERIES)
    def test_pair_matches_two_pass(self, x, y):
        assert _outcome(validate_pair, x, y) == _outcome(_two_pass_pair, x, y)

    @pytest.mark.parametrize("x,y", [
        ([1.0, 2.0], [(1.0,), (2.0,)]),
        ([(1.0, 2.0)], [(1.0,)]),
        ([10 ** 400, (1.0,)], [1.0]),
        (["a", (1.0,)], [1.0]),
        ([math.nan, (1.0,)], [1.0]),
        ([1.0, [2.0]], [1.0]),
        ([(1.0,), (2.0, 3.0)], [(1.0,), (2.0,)]),
        ([], [1.0]),
        ([1.0], [True, 0, -3]),
    ])
    def test_known_edges_match_two_pass(self, x, y):
        assert _outcome(validate_pair, x, y) == _outcome(_two_pass_pair, x, y)

    def test_pair_returns_shared_dims(self):
        assert validate_pair([1.0, 2.0], [3.0]) is None
        assert validate_pair([(1.0, 2.0)], [(3.0, 4.0), (5.0, 6.0)]) == 2

    @pytest.mark.parametrize("fn,where", [
        (lambda x, y: dtw(x, y), "dtw()"),
        (lambda x, y: cdtw(x, y, band=1), "cdtw()"),
        (lambda x, y: fastdtw(x, y, radius=1), "fastdtw()"),
    ])
    def test_scalar_measures_refuse_multivariate(self, fn, where):
        vec = [(1.0, 2.0), (3.0, 4.0)]
        with pytest.raises(ValueError) as info:
            fn(vec, vec)
        assert str(info.value) == (
            f"{where} is a univariate measure but the input is "
            "multivariate (shaped (length, dims)); use the "
            "multivariate measures instead (dtw_d/dtw_i for full DTW, "
            "cdtw_d/cdtw_i for banded)"
        )
