"""Decision rules of the ratio tests: ties, antisymmetry, degenerate collapse."""

import math

import numpy as np
import pytest

from pxkit import (
    MarginalFamily,
    ScalarDensity,
    SimpleHypotheses,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    phi_decide,
    psi_decide,
    tabulated_density,
)

NORMAL = make_normal_location(1.0)
HYP = SimpleHypotheses(0.0, 1.0)


def test_reject_above_midpoint():
    # For equal-variance normals the rule reduces to t1 > (theta0+theta1)/2.
    assert phi_decide(0.6, NORMAL, HYP).reject_h0
    assert not phi_decide(0.4, NORMAL, HYP).reject_h0


def test_tie_retains_null():
    d = phi_decide(0.5, NORMAL, HYP)
    assert d.log_ratio == 0.0
    assert not d.reject_h0


def test_decision_matches_sign_of_log_ratio():
    rng = np.random.default_rng(3)
    for t1 in rng.normal(0.5, 2.0, size=50):
        d = phi_decide(float(t1), NORMAL, HYP)
        assert d.reject_h0 == (d.log_ratio > 0)


def test_swap_negates_log_ratio():
    swapped = SimpleHypotheses(HYP.theta1, HYP.theta0)
    for t1 in (-1.0, 0.2, 0.9, 3.0):
        assert phi_decide(t1, NORMAL, HYP).log_ratio == pytest.approx(
            -phi_decide(t1, NORMAL, swapped).log_ratio
        )


def test_one_sided_support():
    def uniform_at(theta, eta):
        return tabulated_density([theta, theta + 1.0], [1.0, 1.0])

    fam = MarginalFamily(uniform_at)
    d = phi_decide(1.5, fam, HYP)
    assert d.reject_h0 and d.log_ratio == math.inf
    d = phi_decide(0.25, fam, HYP)
    assert not d.reject_h0 and d.log_ratio == -math.inf


def test_outside_both_models_raises():
    def uniform_at(theta, eta):
        return tabulated_density([theta, theta + 1.0], [1.0, 1.0])

    fam = MarginalFamily(uniform_at)
    with pytest.raises(ValueError):
        phi_decide(5.0, fam, HYP)


def test_scale_invariance_of_decision():
    base = NORMAL

    def scaled_at(theta, eta, c=7.3):
        d = base.density_at(theta, eta)
        return ScalarDensity(
            support=d.support,
            logpdf=lambda x, d=d: math.log(c) + d.logpdf(x),
            sample=d.sample,
            center=d.center,
            scale=d.scale,
        )

    scaled = MarginalFamily(scaled_at)
    for t1 in (-0.5, 0.5, 0.6, 2.0):
        assert phi_decide(t1, scaled, HYP).reject_h0 == phi_decide(t1, base, HYP).reject_h0


class TestPsi:
    def test_reject_when_sum_exceeds_threshold(self):
        # two_stage_normal(1,1,1): reject iff t1 + t2 > theta0 + theta1.
        em = make_two_stage_normal(1, 1, 1.0)
        assert psi_decide(0.3, 0.8, em, HYP).reject_h0

    def test_tie_retains(self):
        em = make_two_stage_normal(1, 1, 1.0)
        d = psi_decide(0.6, 0.4, em, HYP)
        assert d.log_ratio == pytest.approx(0.0, abs=1e-12)
        assert not d.reject_h0

    def test_theta_free_conditional_collapses_to_phi(self):
        em = make_normal_variance_expansion(4)
        rng = np.random.default_rng(11)
        t1_grid = rng.normal(0.5, 1.0, size=100)
        t2_grid = rng.gamma(1.5, 0.5, size=100)
        for t1, t2 in zip(t1_grid, t2_grid):
            psi = psi_decide(float(t1), float(t2), em, HYP)
            phi = phi_decide(float(t1), em.marginal, HYP)
            assert psi.reject_h0 == phi.reject_h0
            assert psi.log_ratio == pytest.approx(phi.log_ratio, rel=1e-12)
