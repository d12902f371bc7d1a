"""Adaptive integrator accuracy, transforms, budget handling, determinism."""

import math

import numpy as np
import pytest
from scipy import integrate as sciint

from pxkit import QuadratureBudgetError, QuadratureConfig, integrate
from pxkit.quadrature import _WG, _WK, _panel


def test_rule_weights_sum_to_interval_length():
    assert math.fsum(_WK) == pytest.approx(2.0, abs=1e-14)
    assert math.fsum(_WG) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 13, 20])
def test_polynomial_exactness(degree):
    # K15 integrates polynomials up to degree 22 exactly; compare on [0, 1].
    value, _ = _panel(lambda x: (degree + 1) * x**degree, 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-13)


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
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=200)
    with pytest.raises(QuadratureBudgetError) as err:
        integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, cfg)
    assert err.value.evaluations <= 260
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
