"""Each shipped logpdf keeps the bits, return type and warnings of its plain expression.

The library writes each ``logpdf`` in place on one output array.  The
references below are the plain expressions those functions evaluated before,
with the constants their factories compute, and they stay here as the oracle.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pxkit import exponential_density, gamma_density, normal_density, tabulated_density

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_reference(mean, sd):
    norm = sd * _SQRT_2PI
    log_norm = math.log(norm) if norm < math.inf else math.log(sd) + math.log(_SQRT_2PI)

    def logpdf(x):
        with np.errstate(over="ignore"):
            z = (np.asarray(x, dtype=float) - mean) / sd
            return -0.5 * z * z - log_norm

    return logpdf


def exponential_reference(rate):
    log_rate = math.log(rate)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        inside = x >= 0.0
        safe = np.where(inside, x, 0.0)
        with np.errstate(over="ignore"):
            return np.where(inside, log_rate - rate * safe, -math.inf)

    return logpdf


def gamma_reference(shape, scale):
    log_norm = math.lgamma(shape) + shape * math.log(scale)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & np.isfinite(x)
        safe = np.where(inside, x, 1.0)
        out = (shape - 1.0) * np.log(safe) - safe / scale - log_norm
        return np.where(inside, out, -math.inf)

    return logpdf


def tabulated_reference(grid, values):
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    values = values / np.trapezoid(values, grid)
    lo, hi = float(grid[0]), float(grid[-1])

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        safe = np.where(inside, x, lo)
        with np.errstate(divide="ignore"):
            return np.where(inside, np.log(np.interp(safe, grid, values)), -math.inf)

    return logpdf


_TINY = 5e-324  # the smallest subnormal
_MAX = 1.7976931348623157e308
# Signed zeros, infinities, NaNs of both signs, subnormals, the smallest
# normal, and overflow-scale values: z * z overflows from about 1.34e154, and
# -0.5 * z * z from about 1.9e154.
SPECIAL = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    _TINY, -_TINY, 1e-310, -1e-310, 2.2250738585072014e-308,
    1.5e154, -1.5e154, 2e154, 1e300, -1e300, _MAX, -_MAX,
]
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-20.0, 20.0),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
FORMS = ("read-only array", "python float", "read-only 0-d array")


def _argument(xs, form):
    if form == "python float":
        return float(xs[0])
    x = np.array(xs if form == "read-only array" else xs[0], dtype=float)
    x.flags.writeable = False
    return x


def _run(logpdf, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = logpdf(x)
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_bits(density, reference, xs, form):
    x = _argument(xs, form)
    got, got_warnings = _run(density.logpdf, x)
    want, want_warnings = _run(reference, x)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert got_warnings == want_warnings
    if isinstance(x, np.ndarray) and isinstance(got, np.ndarray):
        assert not np.shares_memory(got, x)


XS = st.lists(VALUES, min_size=1, max_size=24)
FORM = st.sampled_from(FORMS)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(
    mean=st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False)),
    sd=st.one_of(POSITIVE, st.floats(-300.0, math.log10(7e307)).map(lambda e: 10.0 ** e)),
    xs=XS,
    form=FORM,
)
# sd * sqrt(2 pi) rounds to 1 here, so log_norm is 0 and a subnormal square is the result.
@example(mean=0.0, sd=1.0 / _SQRT_2PI, xs=[1e-160, -3e-162, 2e154], form="read-only array")
@example(mean=0.0, sd=1e308, xs=[_MAX, -_MAX, 0.0], form="read-only array")
@example(mean=0.0, sd=_TINY, xs=[_TINY, 1.0, -0.0], form="read-only array")
def test_normal_logpdf_bits(mean, sd, xs, form):
    assert_same_bits(normal_density(mean, sd), normal_reference(mean, sd), xs, form)


@settings(max_examples=300, deadline=None)
# 1 / rate, the hints, must be finite: it overflows just above 1 / _MAX.
@given(rate=st.floats(1e-300, _MAX), xs=XS, form=FORM)
@example(rate=_MAX, xs=[_MAX, 1.0, -0.0, math.nan], form="read-only array")
@example(rate=1e-300, xs=[-_TINY, _TINY, math.inf], form="python float")
def test_exponential_logpdf_bits(rate, xs, form):
    assert_same_bits(exponential_density(rate), exponential_reference(rate), xs, form)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    scale=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
    xs=XS,
    form=FORM,
)
# x / scale overflows at the largest x: both forms must warn alike.
@example(shape=0.5, scale=0.25, xs=[_MAX, _TINY, -0.0, 1.0], form="read-only array")
@example(shape=1.0, scale=1.0, xs=[0.0], form="read-only 0-d array")
def test_gamma_logpdf_bits(shape, scale, xs, form):
    try:
        density = gamma_density(shape, scale)
    except ValueError:  # a hint overflows: no density to compare
        return
    assert_same_bits(density, gamma_reference(shape, scale), xs, form)


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(-1e3, 1e3),
    steps=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
    values=st.lists(st.floats(0.0, 1e3), min_size=6, max_size=6),
    xs=XS,
    form=FORM,
)
@example(start=0.0, steps=[1.0, 1.0], values=[0.0, 2.0, 0.0, 0, 0, 0],
         xs=[0.0, 1.0, 2.0, -0.0, 2.5, math.nan], form="read-only array")
def test_tabulated_logpdf_bits(start, steps, values, xs, form):
    grid = start + np.cumsum([0.0, *steps])
    values = values[: len(grid)]
    try:
        density = tabulated_density(grid, values)
    except ValueError:  # no positive mass, or a grid that rounding made flat
        return
    assert_same_bits(density, tabulated_reference(grid, values), xs, form)
