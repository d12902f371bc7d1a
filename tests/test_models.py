"""Model families, joint factorization, and the preservation identity."""

import math

import numpy as np
import pytest
from scipy.stats import gamma, norm

from pxkit import (
    ConditionalFamily,
    ExpandedModel,
    Interval,
    QuadratureConfig,
    ScalarDensity,
    SimpleHypotheses,
    check_bound,
    estimate_psi_errors,
    expanded_bound,
    integrate,
    joint_logpdf,
    make_exponential_rate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    normal_density,
)
from pxkit.densities import make_rng


class TestParamTypes:
    def test_hypotheses_must_differ(self):
        with pytest.raises(ValueError):
            SimpleHypotheses(1.0, 1.0)
        with pytest.raises(ValueError):
            SimpleHypotheses(0.0, math.inf)


class TestNormalLocation:
    def test_pdf_at_mean(self):
        fam = make_normal_location(1.0)
        assert float(fam.density_at(0.0).pdf(0.0)) == pytest.approx(0.3989422804014327, abs=1e-7)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            make_normal_location(0.0)


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
@pytest.mark.parametrize(
    "make", [make_normal_location, lambda s: make_two_stage_normal(1, 1, s)], ids=["normal", "two_stage"]
)
def test_non_finite_sigma_is_named(make, sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        make(sigma)


class TestExponentialRate:
    def test_pdf_matches_formula(self):
        fam = make_exponential_rate()
        t = np.array([0.0, 0.5, 2.0])
        np.testing.assert_allclose(fam.density_at(1.0).pdf(t), np.exp(-t), rtol=1e-12)
        assert float(fam.density_at(2.0).pdf(-1.0)) == 0.0

    def test_rejects_nonpositive_rate_at_evaluation(self):
        fam = make_exponential_rate()
        with pytest.raises(ValueError):
            fam.density_at(0.0)
        with pytest.raises(ValueError):
            fam.density_at(-1.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_bad_rate_is_named(self, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            make_exponential_rate().density_at(rate)


class TestTwoStageNormal:
    def test_joint_is_product_of_normals(self):
        em = make_two_stage_normal(1, 1, 1.0)
        assert joint_logpdf(em, 0.0, 0.0, 0.0) == pytest.approx(-math.log(2.0 * math.pi), rel=1e-15)
        # t1 ~ N(theta, 1.5^2/2) and t2 ~ N(theta, 1.5^2/3), independent.
        em = make_two_stage_normal(2, 3, 1.5)
        rng = np.random.default_rng(5)
        t1, t2 = rng.normal(0.4, 2.0, size=(2, 30))
        want = norm.logpdf(t1, 0.4, 1.5 / math.sqrt(2)) + norm.logpdf(t2, 0.4, 1.5 / math.sqrt(3))
        np.testing.assert_allclose(joint_logpdf(em, t1, t2, 0.4), want, rtol=1e-12)

    def test_conditional_independent_of_t1(self):
        em = make_two_stage_normal(1, 1, 1.0)
        t2 = np.linspace(-3, 3, 25)
        a = em.conditional.density_at(5.0, 0.0).pdf(t2)
        b = em.conditional.density_at(-5.0, 0.0).pdf(t2)
        np.testing.assert_array_equal(a, b)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            make_two_stage_normal(0, 1, 1.0)
        with pytest.raises(ValueError):
            make_two_stage_normal(1, 1, 0.0)
        with pytest.raises(ValueError):
            make_two_stage_normal(1.5, 1, 1.0)


class TestVarianceExpansion:
    def test_conditional_is_theta_free(self):
        em = make_normal_variance_expansion(5)
        t2 = np.linspace(0.01, 4, 40)
        a = em.conditional.density_at(0.3, 0.0).pdf(t2)
        b = em.conditional.density_at(0.3, 7.0).pdf(t2)
        np.testing.assert_array_equal(a, b)

    def test_marginal_is_mean_distribution(self):
        # The mean of n iid Normal(theta, 1) draws is Normal(theta, 1/n).
        n = 4
        em = make_normal_variance_expansion(n)
        t = np.linspace(-2, 3, 50)
        got = em.marginal.density_at(0.7).pdf(t)
        want = normal_density(0.7, 1.0 / math.sqrt(n)).pdf(t)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_negative_t2_has_zero_density(self):
        em = make_normal_variance_expansion(4)
        assert joint_logpdf(em, 0.0, -0.5, 0.0) == -math.inf
        logpdf = joint_logpdf(em, [0.0, 1.0], [-1e-9, -3.0], 0.0)
        np.testing.assert_array_equal(logpdf, -math.inf)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_normal_variance_expansion(1)


class TestJointStructure:
    @pytest.mark.parametrize(
        "em",
        [make_two_stage_normal(2, 3, 1.5), make_normal_variance_expansion(4)],
        ids=["two_stage", "variance_expansion"],
    )
    def test_marginalizing_t2_recovers_marginal(self, em):
        theta = 0.4
        marg = em.marginal.density_at(theta)
        probes = [-1.0, -0.2, 0.4, 1.1, 2.0]
        for t1 in probes:
            cond = em.conditional.density_at(t1, theta)
            res = integrate(
                lambda t2, t1=t1: np.exp(joint_logpdf(em, t1, t2, theta)),
                cond.support.lower,
                cond.support.upper,
                QuadratureConfig(abs_tol=1e-10),
                center=cond.center,
                scale=cond.scale,
            )
            assert abs(res.value - float(marg.pdf(t1))) < 1e-6

    def test_joint_mass_is_one(self):
        # Outer quadrature over t1 of the t2-marginalized joint.
        em = make_two_stage_normal(1, 2, 1.0)
        marg = em.marginal.density_at(0.0)
        res = integrate(
            marg.pdf, -math.inf, math.inf, center=marg.center, scale=marg.scale
        )
        assert abs(res.value - 1.0) < 1e-5

    def test_vectorized_joint_logpdf_matches_scalar(self):
        # n = 4: t1 ~ N(theta, 1/4) and t2 ~ Gamma(3/2, scale 2/3), independent.
        em = make_normal_variance_expansion(4)
        rng = np.random.default_rng(7)
        t1 = rng.normal(size=20)
        t2 = rng.gamma(1.5, 1.0, size=20)
        vec = joint_logpdf(em, t1, t2, 0.5)
        scalar = [
            norm.logpdf(a, 0.5, 0.5) + gamma.logpdf(b, 1.5, scale=2 / 3) for a, b in zip(t1, t2)
        ]
        np.testing.assert_allclose(vec, scalar, rtol=1e-12)


# t1 ~ N(theta, SIGMA^2) and t2 | t1 ~ N(B*t1 + C*theta, TAU^2).  At every t1 the
# two hypotheses' conditionals differ in the mean by C*delta, so the expanded
# bound is exp(-delta^2/8 SIGMA^2) * exp(-C^2 delta^2/8 TAU^2), and the joint
# test errs with probability Phi(-d/2) under each hypothesis, where
# d^2 = delta^2/SIGMA^2 + C^2 delta^2/TAU^2.
SIGMA, B, C, TAU = 1.0, 0.8, 1.5, 0.7


def _linear_conditional_at(t1, theta):
    """N(B*t1 + C*theta, TAU^2): one law per entry of an array t1."""
    mean = B * np.asarray(t1, dtype=float) + C * theta
    log_norm = math.log(TAU * math.sqrt(2.0 * math.pi))

    def logpdf(t2):
        z = (np.asarray(t2, dtype=float) - mean) / TAU
        return -0.5 * z * z - log_norm

    def sample(n, rng):
        return rng.normal(mean, TAU, size=n)

    return ScalarDensity(
        Interval(-math.inf, math.inf), logpdf, sample, center=float(np.mean(mean)), scale=TAU
    )


LINEAR = ExpandedModel(
    marginal=make_normal_location(SIGMA),
    conditional=ConditionalFamily(_linear_conditional_at),
)


class TestT1DependentConditional:
    def test_joint_logpdf_matches_joint_density(self):
        rng = np.random.default_rng(3)
        t1 = rng.normal(0.3, 2.0, size=50)
        t2 = rng.normal(0.0, 3.0, size=50)
        vec = joint_logpdf(LINEAR, t1, t2, 0.3)
        want = norm.logpdf(t1, 0.3, SIGMA) + norm.logpdf(t2, B * t1 + C * 0.3, TAU)
        np.testing.assert_allclose(vec, want, rtol=1e-12)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_expanded_bound_matches_closed_form(self, delta):
        res = expanded_bound(LINEAR, SimpleHypotheses(0.0, delta))
        exact = math.exp(-(delta**2) / (8 * SIGMA**2)) * math.exp(-(C * delta) ** 2 / (8 * TAU**2))
        assert abs(res.raw_value - exact) <= res.abs_error_estimate

    def test_blocked_draws_at_an_array_of_t1_continue_one_stream(self):
        # The array-mean sampler: drawing at t1[:a] and then at t1[a:] from one
        # generator gives what one draw at all of t1 gives.
        t1 = np.random.default_rng(5).normal(0.3, 2.0, size=1000)
        g = make_rng(4)
        head = _linear_conditional_at(t1[:300], 0.5).sample(300, g)
        tail = _linear_conditional_at(t1[300:], 0.5).sample(700, g)
        full = _linear_conditional_at(t1, 0.5).sample(1000, make_rng(4))
        assert np.array_equal(np.concatenate([head, tail]), full)

    def test_psi_estimate_matches_oracle_and_bound(self):
        delta, n = 1.0, 10**5
        hyp = SimpleHypotheses(0.0, delta)
        est = estimate_psi_errors(LINEAR, hyp, n, seed=17)
        d = delta * math.sqrt(1 / SIGMA**2 + C**2 / TAU**2)
        p = 0.5 * math.erfc(d / 2 / math.sqrt(2))
        sd = math.sqrt(p * (1 - p) / n)
        assert abs(est.alpha_hat - p) < 5 * sd
        assert abs(est.beta_hat - p) < 5 * sd
        assert check_bound(est, expanded_bound(LINEAR, hyp).value).satisfied


class TestPreservation:
    def test_builtin_models_preserve_original(self):
        # At the expansion baseline the marginal is the un-expanded normal family, exactly.
        probes = np.array([-1.0, 0.0, 1.0])
        for em, sd in (
            (make_two_stage_normal(1, 1, 1.0), 1.0),
            (make_normal_variance_expansion(6), 1.0 / math.sqrt(6)),
        ):
            for theta in (-0.5, 0.0, 2.0):
                got = em.marginal.density_at(theta).logpdf(probes)
                np.testing.assert_array_equal(got, normal_density(theta, sd).logpdf(probes))
