"""Affinity values against closed forms, bound ordering, and the activation measure."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate as sciint

from pxkit import (
    AffinityResult,
    ConditionalFamily,
    ExpandedModel,
    MarginalFamily,
    QuadratureBudgetError,
    QuadratureConfig,
    SimpleHypotheses,
    activation_measure,
    affinity,
    conditional_affinity,
    expanded_bound,
    exponential_density,
    hellinger_sq,
    make_exponential_rate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    marginal_bound,
    normal_density,
    product_affinity_iid,
    tabulated_density,
)


def gaussian_affinity(theta0, theta1, sigma):
    return math.exp(-((theta1 - theta0) ** 2) / (8.0 * sigma**2))


def exponential_affinity(theta0, theta1):
    return 2.0 * math.sqrt(theta0 * theta1) / (theta0 + theta1)


# t2 | t1 ~ N(t1/2 + theta, 1): the conditional law moves with t1, so
# expanded_bound runs one inner integral per outer node.
def _t1_dependent_conditional_at(t1, theta):
    return normal_density(0.5 * float(t1) + theta, 1.0)


T1_DEPENDENT = ExpandedModel(
    make_normal_location(1.0), ConditionalFamily(_t1_dependent_conditional_at)
)


class TestAffinityValues:
    def test_unit_normals_one_apart(self):
        res = affinity(normal_density(0, 1), normal_density(1, 1))
        assert res.value == pytest.approx(0.8824969025845955, abs=1e-9)
        assert res.abs_error_estimate < 1e-7
        assert res.evaluations > 0

    def test_identical_density(self):
        f = normal_density(2, 3)
        assert affinity(f, f).value == pytest.approx(1.0, abs=1e-9)

    def test_exponential_pair(self):
        res = affinity(exponential_density(1), exponential_density(2))
        assert res.value == pytest.approx(0.9428090415820635, abs=1e-9)

    def test_disjoint_supports(self):
        res = affinity(tabulated_density([0, 1], [1, 1]), tabulated_density([2, 3], [1, 1]))
        assert res.value == 0.0
        assert res.evaluations == 0

    def test_symmetry(self):
        pairs = [
            (normal_density(0, 1), normal_density(2, 0.5)),
            (exponential_density(0.5), exponential_density(3)),
            (normal_density(1, 1), exponential_density(1)),
        ]
        cfg = QuadratureConfig()
        for f, g in pairs:
            assert abs(affinity(f, g, cfg).value - affinity(g, f, cfg).value) <= 2 * cfg.abs_tol

    def test_mixed_family_against_scipy(self):
        # Independent route: direct scipy quadrature of sqrt(f*g).
        f = normal_density(1.0, 1.0)
        g = exponential_density(1.0)
        expected, _ = sciint.quad(
            lambda x: math.sqrt(f.pdf(x) * g.pdf(x)), 0, math.inf, epsabs=1e-12
        )
        assert affinity(f, g).value == pytest.approx(expected, abs=1e-9)

    def test_gaussian_grid_meets_closed_form(self):
        rng = np.random.default_rng(20250810)
        for _ in range(20):
            theta0, theta1 = rng.uniform(-6, 6, size=2)
            sigma = rng.uniform(0.5, 3.0)
            got = affinity(normal_density(theta0, sigma), normal_density(theta1, sigma)).value
            assert abs(got - gaussian_affinity(theta0, theta1, sigma)) < 1e-8


class TestHellinger:
    def test_identity_with_affinity(self):
        f, g = normal_density(0, 1), normal_density(1, 1)
        assert hellinger_sq(f, g) == 2.0 * (1.0 - affinity(f, g).value)
        assert hellinger_sq(f, g) == pytest.approx(0.2350061948308091, abs=1e-8)

    def test_identical(self):
        f = exponential_density(1.0)
        assert hellinger_sq(f, f) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_attains_maximum(self):
        f = tabulated_density([0, 1], [1, 1])
        g = tabulated_density([2, 3], [1, 1])
        assert hellinger_sq(f, g) == 2.0


class TestMarginalBound:
    def test_normal(self):
        res = marginal_bound(make_normal_location(1.0), SimpleHypotheses(0, 1))
        assert res.value == pytest.approx(0.8824969025845955, abs=1e-9)

    def test_exponential(self):
        res = marginal_bound(make_exponential_rate(), SimpleHypotheses(1, 2))
        assert res.value == pytest.approx(0.9428090415820635, abs=1e-9)


class TestConditionalAffinity:
    def test_two_stage_equal_split(self):
        em = make_two_stage_normal(1, 1, 1.0)
        for t1 in (-2.0, 0.0, 1.7):
            res = conditional_affinity(em, SimpleHypotheses(0, 1), t1)
            assert res.value == pytest.approx(0.8824969025845955, abs=1e-9)

    def test_two_stage_bigger_second_half(self):
        # Conditionals are Normal(theta, 1/4): affinity exp(-1/2).
        em = make_two_stage_normal(1, 4, 1.0)
        res = conditional_affinity(em, SimpleHypotheses(0, 1), 0.3)
        assert res.value == pytest.approx(0.6065306597126334, abs=1e-9)

    def test_theta_free_conditional_gives_one(self):
        em = make_normal_variance_expansion(4)
        for t1 in (-1.0, 0.5):
            res = conditional_affinity(em, SimpleHypotheses(0, 1), t1)
            assert res.value == pytest.approx(1.0, abs=1e-9)


class TestExpandedBound:
    def test_two_stage_equal_split(self):
        em = make_two_stage_normal(1, 1, 1.0)
        res = expanded_bound(em, SimpleHypotheses(0, 1))
        assert res.value == pytest.approx(0.7788007830714049, abs=1e-8)

    def test_variance_expansion_equals_marginal(self):
        n = 4
        em = make_normal_variance_expansion(n)
        hyp = SimpleHypotheses(0, 1)
        eb = expanded_bound(em, hyp)
        mb = marginal_bound(em.marginal, hyp)
        assert eb.value == pytest.approx(mb.value, abs=1e-8)
        assert eb.value == pytest.approx(gaussian_affinity(0, 1, 1 / math.sqrt(n)), abs=1e-8)

    @pytest.mark.parametrize("t1_free", [False, True])
    def test_disjoint_marginal_supports(self, t1_free):
        # t1 is uniform on [theta, theta + 1], so theta = 0 and 5 never overlap.
        def conditional_at(t1, theta):
            raise AssertionError("no conditional is needed when the marginals are disjoint")

        em = ExpandedModel(
            MarginalFamily(lambda theta: tabulated_density([theta, theta + 1.0], [1.0, 1.0])),
            ConditionalFamily(conditional_at, t1_free=t1_free),
        )
        assert expanded_bound(em, SimpleHypotheses(0, 5)) == AffinityResult(0.0, 0.0, 0.0, 0)

    def test_tiny_separation_stays_below_one(self):
        em = make_two_stage_normal(1, 1, 1.0)
        res = expanded_bound(em, SimpleHypotheses(0, 0.001))
        assert res.value == pytest.approx(math.exp(-0.25e-6), abs=1e-9)
        assert res.raw_value < 1.0


class TestT1FreeShortcut:
    """One inner integral for a t1-free conditional, against the nested path."""

    @pytest.mark.parametrize(
        "em, cfg",
        [
            (make_two_stage_normal(1, 1, 1.0), None),
            (make_two_stage_normal(1, 1, 1.0), QuadratureConfig(1e-12, 1e-12)),
            (make_two_stage_normal(2, 3, 0.7), None),
            (make_two_stage_normal(2, 3, 0.7), QuadratureConfig(1e-12, 1e-12)),
            (make_normal_variance_expansion(2), None),
            (make_normal_variance_expansion(8), None),
            (make_normal_variance_expansion(8), QuadratureConfig(1e-12, 1e-12)),
        ],
        ids=["split_1_1", "split_1_1_tight", "split_2_3", "split_2_3_tight",
             "variance_2", "variance_8", "variance_8_tight"],
    )
    def test_same_bytes_as_nested_path(self, em, cfg):
        nested = replace(em, conditional=replace(em.conditional, t1_free=False))
        hyp = SimpleHypotheses(0, 1)
        shortcut, full = expanded_bound(em, hyp, cfg), expanded_bound(nested, hyp, cfg)
        assert shortcut.raw_value == full.raw_value
        assert shortcut.abs_error_estimate == full.abs_error_estimate
        assert shortcut.evaluations < full.evaluations

    @pytest.mark.parametrize(
        "em", [make_two_stage_normal(2, 3, 0.7), make_normal_variance_expansion(3)],
        ids=["two_stage", "variance"],
    )
    def test_factory_declaration_holds(self, em):
        assert em.conditional.t1_free
        x = np.linspace(0.05, 4.0, 9)  # inside the gamma support (0, inf) too
        ref = em.conditional.density_at(0.0, 0.0).logpdf(x)
        for t1 in (-3.0, 0.4, 7.5):
            got = em.conditional.density_at(t1, 0.0).logpdf(x)
            np.testing.assert_array_equal(got, ref)

    def test_inner_integral_counts(self, monkeypatch):
        module = importlib.import_module("pxkit.affinity")
        original = module.conditional_affinity
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "conditional_affinity", counted)
        expanded_bound(make_two_stage_normal(1, 1, 1.0), SimpleHypotheses(0, 1))
        assert len(calls) == 1
        calls.clear()
        expanded_bound(T1_DEPENDENT, SimpleHypotheses(0, 1))
        assert len(calls) > 1

    def test_evaluation_counts(self):
        # Deterministic: the outer integral plus one inner integral.  A change
        # in either count is a change in the quadrature, not noise.
        hyp = SimpleHypotheses(0, 1)
        assert expanded_bound(make_two_stage_normal(1, 1, 1.0), hyp).evaluations == 480
        assert expanded_bound(make_normal_variance_expansion(2), hyp).evaluations == 1710


class TestActivationMeasure:
    def test_two_stage_unit_separation(self):
        comp = activation_measure(make_two_stage_normal(1, 1, 1.0), SimpleHypotheses(0, 1))
        assert comp.r_measure == pytest.approx(0.10369611951319058, abs=1e-8)
        assert comp.strict
        assert comp.hellinger_sq_gain == pytest.approx(2 * comp.r_measure)

    def test_two_stage_wide_separation(self):
        # exp(-9/8) - exp(-9/4) from the analytic forms of both bounds.
        comp = activation_measure(make_two_stage_normal(1, 1, 1.0), SimpleHypotheses(0, 3))
        assert comp.r_measure == pytest.approx(0.2192532427964854, abs=1e-8)
        assert comp.strict

    def test_theta_free_conditional_never_strict(self):
        em = make_normal_variance_expansion(5)
        for hyp in (SimpleHypotheses(0, 1), SimpleHypotheses(-2, 0.5), SimpleHypotheses(1, 1.1)):
            comp = activation_measure(em, hyp)
            assert abs(comp.r_measure) <= 2e-9
            assert not comp.strict

    def test_r_measure_is_bound_difference(self):
        comp = activation_measure(make_two_stage_normal(2, 1, 1.0), SimpleHypotheses(0, 0.7))
        assert comp.r_measure == comp.marginal_bound - comp.expanded_bound


class TestBoundOrdering:
    @pytest.mark.parametrize(
        "em",
        [
            make_two_stage_normal(1, 1, 1.0),
            make_two_stage_normal(3, 2, 0.7),
            make_normal_variance_expansion(4),
        ],
        ids=["split_1_1", "split_3_2", "variance"],
    )
    def test_expanded_never_exceeds_marginal(self, em):
        for hyp in (SimpleHypotheses(0, 0.5), SimpleHypotheses(-1, 1), SimpleHypotheses(0.2, 3)):
            comp = activation_measure(em, hyp)
            combined = comp.marginal_error + comp.expanded_error
            assert comp.expanded_bound <= comp.marginal_bound + combined
            assert comp.r_measure >= -combined


class TestProductAffinity:
    def test_eight_fold(self):
        got = product_affinity_iid(normal_density(0, 1), normal_density(1, 1), 8)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_identity_any_power(self):
        f = exponential_density(2.0)
        assert product_affinity_iid(f, f, 17) == pytest.approx(1.0, abs=1e-7)

    def test_large_n_forces_separation(self):
        rho_n = product_affinity_iid(normal_density(0, 1), normal_density(1, 1), 200)
        assert rho_n < 1e-10
        assert 2.0 * (1.0 - rho_n) > 1.999999

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_product_rule_matches_mean_statistic(self, n):
        # The mean of n unit-variance normals is normal with variance 1/n,
        # and its affinity equals the single-observation affinity to the n.
        sigma = 1.0
        direct = affinity(
            normal_density(0, sigma / math.sqrt(n)), normal_density(1, sigma / math.sqrt(n))
        ).value
        power = product_affinity_iid(normal_density(0, sigma), normal_density(1, sigma), n)
        assert abs(direct - power) < 1e-8

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            product_affinity_iid(normal_density(0, 1), normal_density(1, 1), 0)


class TestBudget:
    def test_budget_error_from_affinity(self):
        f = tabulated_density([0, 1, 2], [0, 2, 0])
        g = tabulated_density([0.5, 1.5, 2.5], [0, 2, 0])
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=300)
        with pytest.raises(QuadratureBudgetError) as err:
            affinity(f, g, cfg)
        assert err.value.evaluations <= 300
        assert math.isfinite(err.value.value)

    def test_expanded_bound_inner_budget_error_has_no_estimate(self):
        # The 240 outer nodes of the first pass, and 8 inner integrals of 240
        # evaluations before fewer than 240 remain for the ninth.
        cfg = QuadratureConfig(max_evaluations=2000)
        with pytest.raises(QuadratureBudgetError) as err:
            expanded_bound(T1_DEPENDENT, SimpleHypotheses(0, 1), cfg)
        assert err.value.evaluations == 2160
        assert math.isnan(err.value.value)
        assert err.value.abs_error == math.inf

    def test_expanded_bound_starts_no_inner_integral_it_cannot_finish(self):
        # After the 240 outer nodes of the first pass and 8 inner integrals of
        # 240, the 180 evaluations left are fewer than any integral's first
        # pass, so the ninth is never started.
        cfg = QuadratureConfig(max_evaluations=2100)
        with pytest.raises(QuadratureBudgetError) as err:
            expanded_bound(T1_DEPENDENT, SimpleHypotheses(0, 1), cfg)
        assert err.value.evaluations == 240 + 1920

    @pytest.mark.parametrize("t1_free", [True, False])
    def test_expanded_bound_outer_budget_error_carries_partial_sum(self, monkeypatch, t1_free):
        # With every conditional affinity 1/2 at no cost, only the outer
        # integral spends the budget, and its partial sum is exp(-1/8) / 2,
        # whether one inner value serves every node or each node has its own.
        module = importlib.import_module("pxkit.affinity")
        monkeypatch.setattr(
            module, "conditional_affinity", lambda *args: AffinityResult(0.5, 0.5, 0.0, 0)
        )
        em = make_two_stage_normal(1, 1, 1.0)
        em = replace(em, conditional=replace(em.conditional, t1_free=t1_free))
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=300)
        with pytest.raises(QuadratureBudgetError) as err:
            expanded_bound(em, SimpleHypotheses(0, 1), cfg)
        assert err.value.evaluations == 300
        assert err.value.value == pytest.approx(0.5 * gaussian_affinity(0, 1, 1.0), abs=1e-12)
        assert 0 < err.value.abs_error < 1e-9
