"""Adaptive integrator accuracy, transforms, budget handling, determinism."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate as sciint

from pxkit import QuadratureBudgetError, QuadratureConfig, integrate
from pxkit.quadrature import _GAUSS_IDX, _WG, _WK, _XK, _panels

_EPS = np.finfo(float).eps


def _panel(fn, a, b):
    """One qk15 panel per integrand call: the reference ``_panels`` must equal bit for bit."""
    half = 0.5 * (float(b) - float(a))
    mid = 0.5 * (float(a) + float(b))
    fx = np.asarray(fn(mid + half * _XK), dtype=float)
    resk = float(_WK @ fx)
    resg = float(_WG @ fx[_GAUSS_IDX])
    resabs = float(_WK @ np.abs(fx))
    reskh = 0.5 * resk
    resasc = float(_WK @ np.abs(fx - reskh))
    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > np.finfo(float).tiny / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return value, err


def test_rule_weights_sum_to_interval_length():
    assert math.fsum(_WK) == pytest.approx(2.0, abs=1e-14)
    assert math.fsum(_WG) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 13, 20])
def test_polynomial_exactness(degree):
    # K15 integrates polynomials up to degree 22 exactly; compare on [0, 1].
    [(value, _)] = _panels(lambda x: (degree + 1) * x**degree, [0.0], [1.0])
    assert value == pytest.approx(1.0, abs=1e-13)


_SHAPES = {
    "bump": lambda x, p: np.exp(-x * x) * np.cos(p * x),
    "kink": lambda x, p: np.sqrt(np.abs(x - p)),
    "cubic": lambda x, p: 1.0 + p * x - x**3,
    "constant": lambda x, p: np.full_like(x, p),
}


@st.composite
def _batches(draw):
    k = draw(st.sampled_from([1, 2, 16]))
    lefts = draw(st.lists(st.floats(-20.0, 20.0), min_size=k, max_size=k))
    widths = draw(st.lists(st.floats(1e-3, 4.0), min_size=k, max_size=k))
    return lefts, [a + w for a, w in zip(lefts, widths)]


_EDGES = np.linspace(-1.0, 1.0, 17).tolist()


# The qk15 error heuristic applies when resasc and the Kronrod-Gauss gap are
# both nonzero (first example), is skipped for a constant whose resasc is 0
# (second) or whose gap is 0 (third), and the 50*eps*resabs floor is skipped
# when resabs is below tiny/(50*eps) (fourth) or the integrand is 0 (fifth).
@given(
    shape=st.sampled_from(sorted(_SHAPES)),
    p=st.floats(-5.0, 5.0),
    amp=st.one_of(st.sampled_from([0.0, 1e-300, 1.0]), st.floats(-1e6, 1e6)),
    batch=_batches(),
)
@example(shape="bump", p=3.0, amp=1.0, batch=([0.0], [1.0]))
@example(shape="constant", p=1.0, amp=1.0, batch=([0.0], [1.0]))
@example(shape="constant", p=3.0, amp=1.0, batch=([0.0, -1.0], [1.0, 0.5]))
@example(shape="bump", p=3.0, amp=1e-300, batch=([0.0], [1.0]))
@example(shape="kink", p=0.3, amp=0.0, batch=(_EDGES[:-1], _EDGES[1:]))
@example(shape="kink", p=0.3, amp=1.0, batch=(_EDGES[:-1], _EDGES[1:]))
def test_batched_panels_equal_one_panel_calls(shape, p, amp, batch):
    fn = lambda x: amp * _SHAPES[shape](x, p)
    lefts, rights = batch
    assert _panels(fn, lefts, rights) == [_panel(fn, a, b) for a, b in zip(lefts, rights)]


@pytest.mark.parametrize("lower, upper", [(0.0, 2.0), (-math.inf, math.inf), (0.0, math.inf),
                                          (-math.inf, 0.0)])
def test_one_integrand_call_per_pass(lower, upper):
    # The kink at 0.3 forces bisections on every interval kind.
    sizes = []

    def fn(x):
        sizes.append(len(x))
        return np.exp(-np.abs(x - 0.3))

    res = integrate(fn, lower, upper, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12))
    bisections = (res.evaluations - 240) // 30
    assert bisections > 0
    assert sizes == [240] + [30] * bisections


def test_known_definite_integrals():
    res = integrate(np.sin, 0.0, math.pi)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    res = integrate(lambda x: np.exp(-x), 0.0, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    res = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -math.inf, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_half_infinite_left():
    res = integrate(lambda x: np.exp(x), -math.inf, 0.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_sqrt_kink_against_scipy():
    fn = lambda x: np.sqrt(np.maximum(1.0 - np.abs(x - 1.0), 0.0))
    res = integrate(fn, 0.0, 2.0, QuadratureConfig(abs_tol=1e-10))
    expected, _ = sciint.quad(lambda x: math.sqrt(max(1.0 - abs(x - 1.0), 0.0)), 0, 2)
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_far_center_needs_hints():
    # A narrow bump far from the origin is found through the (center, scale) hints.
    fn = lambda x: np.exp(-0.5 * ((x - 300.0) / 0.5) ** 2) / (0.5 * math.sqrt(2 * math.pi))
    res = integrate(fn, -math.inf, math.inf, center=300.0, scale=0.5)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_error_estimate_brackets_truth():
    res = integrate(lambda x: np.exp(-x * x), 0.0, 2.0)
    truth, _ = sciint.quad(lambda x: math.exp(-x * x), 0, 2)
    assert abs(res.value - truth) <= max(res.abs_error, 1e-12)


def test_budget_error_carries_best_estimate():
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=300)
    with pytest.raises(QuadratureBudgetError) as err:
        integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, cfg)
    assert err.value.evaluations <= 300
    assert err.value.value == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert err.value.abs_error > 0


def test_determinism():
    fn = lambda x: np.exp(-x * x) * np.cos(3 * x)
    a = integrate(fn, -math.inf, math.inf)
    b = integrate(fn, -math.inf, math.inf)
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1)
    with pytest.raises(ValueError):
        QuadratureConfig(max_evaluations=10)


def test_smallest_budget_is_the_first_pass():
    # The 16 initial panels always run, so a smaller budget could only be overspent.
    with pytest.raises(ValueError, match="integer >= 240"):
        QuadratureConfig(max_evaluations=239)
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=240)
    with pytest.raises(QuadratureBudgetError) as err:
        integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, cfg)
    assert err.value.evaluations == 240


@pytest.mark.parametrize("budget", [150.5, 100.25, 300.5, math.inf])
def test_non_integral_budget_rejected(budget):
    with pytest.raises(ValueError, match="max_evaluations must be an integer"):
        QuadratureConfig(max_evaluations=budget)


def test_nan_budget_rejected():
    # A NaN budget would compare false against every evaluation count and never stop.
    with pytest.raises(ValueError, match="max_evaluations"):
        QuadratureConfig(max_evaluations=math.nan)


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_tolerance_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        QuadratureConfig(**{field: value})


def test_bad_interval():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 1.0)
