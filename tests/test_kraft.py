"""The square-root density-ratio rule: ties, antisymmetry, degenerate collapse."""

import itertools
import math

import numpy as np
import pytest

from pxkit import (
    SimpleHypotheses,
    joint_logpdf,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    tabulated_density,
)
from pxkit.kraft import decide

NORMAL = make_normal_location(1.0)
HYP = SimpleHypotheses(0.0, 1.0)


def phi_rule(t1, family=NORMAL, hyp=HYP):
    """`decide` on the first statistic's log densities under the two hypotheses."""
    t1 = np.asarray(t1, dtype=float)
    l1 = family.density_at(hyp.theta1).logpdf(t1)
    return decide(l1, family.density_at(hyp.theta0).logpdf(t1))


def psi_rule(t1, t2, em, hyp=HYP):
    """`decide` on the joint log densities of (t1, t2) under the two hypotheses."""
    return decide(joint_logpdf(em, t1, t2, hyp.theta1), joint_logpdf(em, t1, t2, hyp.theta0))


def test_reject_above_midpoint():
    # For equal-variance normals the rule reduces to t1 > (theta0+theta1)/2.
    reject, _ = phi_rule([0.6, 0.4, -3.0, 3.0])
    np.testing.assert_array_equal(reject, [True, False, False, True])


def test_tie_retains_null():
    reject, log_ratio = phi_rule(0.5)
    assert log_ratio == 0.0
    assert not reject


def test_decision_matches_sign_of_log_ratio():
    # log N(t; 1, 1) - log N(t; 0, 1) = t - 1/2, so the half-log-ratio is (t - 1/2) / 2.
    t1 = np.random.default_rng(3).normal(0.5, 2.0, size=50)
    reject, log_ratio = phi_rule(t1)
    np.testing.assert_allclose(log_ratio, 0.5 * (t1 - 0.5), rtol=1e-12, atol=1e-13)
    np.testing.assert_array_equal(reject, log_ratio > 0)


def test_swap_negates_log_ratio():
    swapped = SimpleHypotheses(HYP.theta1, HYP.theta0)
    t1 = np.array([-1.0, 0.2, 0.9, 3.0])
    np.testing.assert_allclose(phi_rule(t1)[1], -phi_rule(t1, hyp=swapped)[1], rtol=1e-12)
    l1, l0 = np.array([-0.3, -math.inf, 2.0]), np.array([-1.2, 0.0, -math.inf])
    np.testing.assert_array_equal(decide(l1, l0)[1], -decide(l0, l1)[1])


def test_one_sided_support():
    # Uniform on [0, 1] under theta0 and on [1, 2] under theta1.
    l0 = tabulated_density([0.0, 1.0], [1.0, 1.0]).logpdf(np.array([1.5, 0.25]))
    l1 = tabulated_density([1.0, 2.0], [1.0, 1.0]).logpdf(np.array([1.5, 0.25]))
    reject, log_ratio = decide(l1, l0)
    np.testing.assert_array_equal(reject, [True, False])
    np.testing.assert_array_equal(log_ratio, [math.inf, -math.inf])


def test_outside_both_models_raises():
    with pytest.raises(ValueError, match="zero density under both"):
        decide([0.0, -math.inf], [-1.0, -math.inf])


def test_scale_invariance_of_decision():
    # Multiplying both densities by a constant c leaves the decision unchanged.
    t1 = np.array([-0.5, 0.5, 0.6, 2.0])
    l1 = NORMAL.density_at(HYP.theta1).logpdf(t1)
    l0 = NORMAL.density_at(HYP.theta0).logpdf(t1)
    c = math.log(7.3)
    np.testing.assert_array_equal(decide(l1 + c, l0 + c)[0], decide(l1, l0)[0])


class TestPsi:
    def test_reject_when_sum_exceeds_threshold(self):
        # two_stage_normal(1,1,1): reject iff t1 + t2 > theta0 + theta1.
        em = make_two_stage_normal(1, 1, 1.0)
        reject, _ = psi_rule([0.3, 0.3, -1.0], [0.8, 0.6, 1.5], em)
        np.testing.assert_array_equal(reject, [True, False, False])

    def test_tie_retains(self):
        em = make_two_stage_normal(1, 1, 1.0)
        reject, log_ratio = psi_rule(0.6, 0.4, em)
        assert log_ratio == pytest.approx(0.0, abs=1e-12)
        assert not reject

    def test_theta_free_conditional_collapses_to_phi(self):
        em = make_normal_variance_expansion(4)
        rng = np.random.default_rng(11)
        t1 = rng.normal(0.5, 1.0, size=100)
        t2 = rng.gamma(1.5, 0.5, size=100)
        psi_reject, psi_ratio = psi_rule(t1, t2, em)
        phi_reject, phi_ratio = phi_rule(t1, em.marginal)
        np.testing.assert_array_equal(psi_reject, phi_reject)
        np.testing.assert_allclose(psi_ratio, phi_ratio, rtol=1e-12)


@pytest.mark.parametrize(
    "l1, l0", itertools.product([-math.inf, math.inf, math.nan, 0.0, -0.0, -3.0, 5.0], repeat=2)
)
def test_zero_density_check_matches_isneginf(l1, l0):
    # Only (-inf, -inf) has zero density under both hypotheses; a NaN beside
    # -inf is not such a point, which np.fmax would make it.
    if np.isneginf(l1) and np.isneginf(l0):
        with pytest.raises(ValueError, match="zero density under both"):
            decide([0.0, l1], [0.0, l0])
        return
    with np.errstate(invalid="ignore"):  # inf - inf
        reject, log_ratio = decide([0.0, l1], [0.0, l0])
        want = 0.5 * (np.array([0.0, l1]) - np.array([0.0, l0]))
    assert log_ratio.tobytes() == want.tobytes()
    assert reject.tolist() == [False, bool(want[1] > 0.0)]
