"""Affinity values against closed forms, bound ordering, and the activation measure."""

import importlib
import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate as sciint

from pxkit import (
    AffinityResult,
    ConditionalFamily,
    ExpandedModel,
    Interval,
    MarginalFamily,
    QuadratureBudgetError,
    QuadratureConfig,
    ScalarDensity,
    SimpleHypotheses,
    activation_measure,
    affinity,
    conditional_affinity,
    expanded_bound,
    exponential_density,
    hellinger_sq,
    integrate,
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


# t2 | t1 ~ N(t1/2 + theta, 1): the conditional law moves with t1, but by a
# shift both hypotheses share, so c is exp(-1/8) at every t1 and the expanded
# bound is exp(-1/8) * exp(-1/8) = exp(-1/4).
def _t1_dependent_conditional_at(t1, theta):
    return normal_density(0.5 * float(t1) + theta, 1.0)


T1_DEPENDENT = ExpandedModel(
    make_normal_location(1.0), ConditionalFamily(_t1_dependent_conditional_at)
)


def _marginal_if(given, em, hyp):
    """The marginal bound to hand expanded_bound, as activation_measure does, or None."""
    return marginal_bound(em.marginal, hyp) if given else None


def _nested_expanded_bound(em, hyp, cfg):
    """The expanded bound as the iterated integral over t1 of sqrt(m1*m0) * c(t1).

    Each outer node of nonzero weight gets its own conditional integral, at
    one tenth of the outer tolerance.  Returns the value, its error estimate
    and the evaluations of both levels.
    """
    full = QuadratureConfig() if cfg is None else cfg
    outer_tol = 0.5 * full.abs_tol
    inner_cfg = QuadratureConfig(outer_tol / 10.0, full.rel_tol)
    m1, m0 = em.marginal.density_at(hyp.theta1), em.marginal.density_at(hyp.theta0)
    inner_evaluations = [0]

    def integrand(t1_values):
        w = np.exp(0.5 * (m1.logpdf(t1_values) + m0.logpdf(t1_values)))
        c = np.zeros_like(w)
        for i in np.flatnonzero(w):
            inner = conditional_affinity(em, hyp, float(t1_values[i]), inner_cfg)
            inner_evaluations[0] += inner.evaluations
            c[i] = inner.raw_value
        return w * c

    common = m1.support.intersect(m0.support)
    res = integrate(
        integrand, common.lower, common.upper, QuadratureConfig(outer_tol, full.rel_tol),
        center=0.5 * m1.center + 0.5 * m0.center,
        scale=max(m1.scale, m0.scale) + abs(0.5 * m1.center - 0.5 * m0.center),
    )
    return res.value, res.abs_error + inner_cfg.abs_tol, res.evaluations + inner_evaluations[0]


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

    @pytest.mark.parametrize("means", [(-1e308, 1e308), (1e308, 1.5e308)])
    def test_centres_near_the_largest_float(self, means):
        # The sum or the difference of the two centres overflows; the hints must not.
        res = affinity(normal_density(means[0], 1.0), normal_density(means[1], 1.0))
        assert (res.value, res.abs_error_estimate) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "call",
        [affinity, hellinger_sq, lambda f, g: product_affinity_iid(f, g, 3)],
        ids=["affinity", "hellinger_sq", "product_affinity_iid"],
    )
    def test_non_finite_integral_raises(self, call):
        # The substitution's weight overflows, so the integral reads inf +/- inf;
        # clamped, it would pass for an affinity of 1 (the exact value is 0.8825).
        f, g = normal_density(1e307, 1e307), normal_density(0.0, 1e307)
        with pytest.raises(ValueError, match=r"not finite: inf \+/- inf after 240 evaluations"):
            call(f, g)

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


@pytest.fixture
def integrals(monkeypatch):
    """The number of `integrate` calls the affinity module makes."""
    module = importlib.import_module("pxkit.affinity")
    original = module.integrate
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "integrate", counted)
    return calls


class TestMarginalBound:
    def test_equal_but_distinct_arguments_integrate_anew(self, integrals):
        family, hyp = make_normal_location(1.0), SimpleHypotheses(0.0, 1)
        first = marginal_bound(family, hyp)
        others = [
            (make_normal_location(1.0), hyp, None),
            (family, SimpleHypotheses(-0.0, 1), None),
            (family, SimpleHypotheses(0.0, 1), None),
            (family, hyp, QuadratureConfig()),
            (family, hyp, QuadratureConfig()),
        ]
        for i, args in enumerate(others, start=2):
            assert marginal_bound(*args) == first
            assert integrals[0] == i

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

    @pytest.mark.parametrize("marginal_given", [False, True])
    def test_disjoint_marginal_supports(self, marginal_given):
        # t1 is uniform on [theta, theta + 1], so theta = 0 and 5 never overlap.
        def conditional_at(t1, theta):
            raise AssertionError("no conditional is needed when the marginals are disjoint")

        em = ExpandedModel(
            MarginalFamily(lambda theta: tabulated_density([theta, theta + 1.0], [1.0, 1.0])),
            ConditionalFamily(conditional_at),
        )
        hyp = SimpleHypotheses(0, 5)
        res = expanded_bound(em, hyp, marginal=_marginal_if(marginal_given, em, hyp))
        assert res == AffinityResult(0.0, 0.0, 0.0, 0)

    @pytest.mark.parametrize("marginal_given", [False, True])
    def test_zero_marginal_runs_no_conditional(self, marginal_given):
        # The marginal weight underflows to 0 at every node, so c is not needed,
        # whether expanded_bound integrates the marginal or is handed it.
        def conditional_at(t1, theta):
            raise AssertionError("no conditional is needed when the marginal weight is 0")

        em = ExpandedModel(make_normal_location(1.0), ConditionalFamily(conditional_at))
        hyp = SimpleHypotheses(0, 1000)
        res = expanded_bound(em, hyp, marginal=_marginal_if(marginal_given, em, hyp))
        assert (res.value, res.raw_value, res.evaluations) == (0.0, 0.0, 240)

    def test_tiny_separation_stays_below_one(self):
        em = make_two_stage_normal(1, 1, 1.0)
        res = expanded_bound(em, SimpleHypotheses(0, 0.001))
        assert res.value == pytest.approx(math.exp(-0.25e-6), abs=1e-9)
        assert res.raw_value < 1.0

    def test_t1_dependent_matches_closed_form(self):
        res = expanded_bound(T1_DEPENDENT, SimpleHypotheses(0, 1))
        assert abs(res.raw_value - math.exp(-0.25)) <= res.abs_error_estimate
        assert res.evaluations == 480


_T1_FREE_CASES = pytest.mark.parametrize(
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


class TestT1FreeShortcut:
    """The expanded bound is the marginal bound times one conditional affinity."""

    @_T1_FREE_CASES
    def test_product_of_marginal_and_conditional(self, em, cfg):
        hyp = SimpleHypotheses(0, 1)
        got = expanded_bound(em, hyp, cfg)
        full = QuadratureConfig() if cfg is None else cfg
        inner_tol = 0.5 * full.abs_tol / 10.0
        # Integrated here, apart from expanded_bound's own integrals; any t1 serves.
        mb = affinity(em.marginal.density_at(hyp.theta1), em.marginal.density_at(hyp.theta0), cfg)
        c = conditional_affinity(em, hyp, -2.5, QuadratureConfig(inner_tol, full.rel_tol))
        assert got.raw_value == mb.raw_value * c.raw_value
        assert got.abs_error_estimate == abs(c.raw_value) * mb.abs_error_estimate + inner_tol
        assert got.evaluations == mb.evaluations + c.evaluations

    @_T1_FREE_CASES
    def test_agrees_with_nested_path(self, em, cfg):
        hyp = SimpleHypotheses(0, 1)
        product = expanded_bound(em, hyp, cfg)
        nested, nested_error, nested_evaluations = _nested_expanded_bound(em, hyp, cfg)
        assert abs(product.raw_value - nested) <= product.abs_error_estimate + nested_error
        assert product.evaluations < nested_evaluations

    @pytest.mark.parametrize(
        "em",
        [make_two_stage_normal(2, 3, 0.7), make_normal_variance_expansion(3), T1_DEPENDENT],
        ids=["two_stage", "variance", "t1_dependent"],
    )
    def test_factory_declaration_holds(self, em):
        # The ConditionalFamily contract: one conditional affinity at every t1.
        hyp = SimpleHypotheses(0, 1)
        cs = [conditional_affinity(em, hyp, t1) for t1 in (-3.0, 0.4, 7.5)]
        for c in cs[1:]:
            assert abs(c.raw_value - cs[0].raw_value) <= c.abs_error_estimate + cs[0].abs_error_estimate

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
        assert len(calls) == 1

    def test_evaluation_counts(self):
        # Deterministic: the marginal integral plus the conditional one.  A change
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

    def test_t1_free_runs_two_integrals(self, integrals):
        # The marginal once for both bounds, then the one conditional affinity.
        activation_measure(make_two_stage_normal(1, 1, 1.0), SimpleHypotheses(0, 1))
        assert integrals[0] == 2

    def test_repeat_with_the_same_objects_integrates_anew(self, integrals):
        # Nothing is kept between calls: each runs its own two integrals.
        em, hyp = make_two_stage_normal(1, 1, 1.0), SimpleHypotheses(0, 1)
        first = activation_measure(em, hyp)
        assert integrals[0] == 2
        assert activation_measure(em, hyp) == first
        assert integrals[0] == 4

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

    @pytest.mark.parametrize("conditional_costs", [False, True])
    def test_expanded_bound_outer_budget_error_carries_partial_sum(
        self, monkeypatch, conditional_costs
    ):
        # With the conditional affinity 1/2, only the marginal integral runs
        # out, and the raised partial sum is exp(-1/8) / 2.  The raised count
        # adds the conditional's evaluations, if it spent any, to the 300.
        cost = 240 if conditional_costs else 0
        module = importlib.import_module("pxkit.affinity")
        monkeypatch.setattr(
            module, "conditional_affinity", lambda *args: AffinityResult(0.5, 0.5, 0.0, cost)
        )
        em = make_two_stage_normal(1, 1, 1.0)
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=300)
        with pytest.raises(QuadratureBudgetError) as err:
            expanded_bound(em, SimpleHypotheses(0, 1), cfg)
        assert err.value.evaluations == 300 + cost
        assert err.value.value == pytest.approx(0.5 * gaussian_affinity(0, 1, 1.0), abs=1e-12)
        assert 0 < err.value.abs_error < 1e-9


def test_concurrent_activations_match_sequential():
    # Two threads run activation_measure at once; each must get its own
    # model's bounds.  The barrier starts each pair of calls together, and a
    # short switch interval interleaves them within the calls.
    jobs = [
        (make_two_stage_normal(2, 3, 0.7), SimpleHypotheses(0, 1)),
        (make_normal_variance_expansion(4), SimpleHypotheses(-0.5, 1.5)),
    ]
    want = [activation_measure(em, hyp) for em, hyp in jobs]
    barrier = threading.Barrier(len(jobs), timeout=60)

    def repeat(em, hyp):
        out = []
        for _ in range(100):
            barrier.wait()
            out.append(activation_measure(em, hyp))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(repeat, em, hyp) for em, hyp in jobs]
            got = [run.result() for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for results, expected in zip(got, want):
        assert results == [expected] * 100


# Every pair a log density may return: a point outside the support, overflow
# and invalid values, signed zeros and finite values.
_LOG_VALUES = [-math.inf, math.inf, math.nan, 0.0, -0.0, -3.0, 5.0]


def test_dead_mask_keeps_the_bits_of_isneginf():
    # A point is dead where either log density is -inf, also when the other
    # is NaN: np.fmin gives -inf at (-inf, NaN), where np.minimum gives NaN.
    lf, lg = (np.array(v) for v in zip(*itertools.product(_LOG_VALUES, repeat=2)))
    module = importlib.import_module("pxkit.affinity")

    def density(values):
        return ScalarDensity(Interval(-math.inf, math.inf), lambda x: values, None)

    with np.errstate(invalid="ignore"):
        got = module._sqrt_product_integrand(density(lf), density(lg))(np.zeros(lf.size))
        dead = np.isneginf(lf) | np.isneginf(lg)
        want = np.exp(np.where(dead, -math.inf, 0.5 * (lf + lg)))
    assert got.tobytes() == want.tobytes()
    assert got[np.isneginf(lf) & np.isnan(lg)].tolist() == [0.0]
