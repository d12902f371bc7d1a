"""The square-root density-ratio rule: ties, antisymmetry, degenerate collapse, closed forms."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pxkit import (
    SimpleHypotheses,
    exponential_density,
    gamma_density,
    joint_logpdf,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    normal_density,
    tabulated_density,
)
from pxkit.densities import make_rng
from pxkit.kraft import _log_ratio, _log_ratio_rule, decide

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


# The closed-form rule of the Monte Carlo estimators against `decide`.

_EPS = np.finfo(float).eps
# A disagreement is a near-tie when the exact log ratio lies within this
# many eps of the summed magnitudes of the terms `decide`'s log densities
# cancel: the closed form is no less accurate than those.
_TIE_ULPS = 16


def _exact_and_terms(law1, law0, x):
    """The exact log ratio at x and the magnitude of the terms of the two log densities.

    Both as Fractions, so no magnitude overflows.  The log normalisers and
    log rates are the rounded floats, an error inside the stated bound.
    """
    x = Fraction(x)
    if law1[0] == "normal":
        sd = Fraction(law1[2])
        z1, z0 = (x - Fraction(law1[1])) / sd, (x - Fraction(law0[1])) / sd
        log_norm = abs(Fraction(math.log(law1[2]) + math.log(math.sqrt(2.0 * math.pi))))
        return (z0 * z0 - z1 * z1) / 2, (z1 * z1 + z0 * z0) / 2 + 2 * log_norm
    rate1, rate0 = Fraction(law1[1]), Fraction(law0[1])
    log1, log0 = Fraction(math.log(law1[1])), Fraction(math.log(law0[1]))
    return log1 - log0 - (rate1 - rate0) * x, abs(log1) + abs(log0) + (rate1 + rate0) * x


def _rule(ratio, x):
    """The closed-form rejections at x, or ValueError's type when it raises."""
    try:
        return ratio(x, np.empty_like(x)) > 0.0
    except ValueError:
        return ValueError


def _reference(f1, f0, x):
    try:
        return decide(f1.logpdf(x), f0.logpdf(x))[0]
    except ValueError:
        return ValueError


def _scale(exponent):
    return 10.0**exponent


_scales = st.floats(-300, 300).map(_scale)
_shapes = st.floats(-2, 2).map(_scale)
_signs = st.sampled_from([-1.0, 1.0])


@st.composite
def _law_pairs(draw):
    """Two densities of a pair that has a closed form: equal-sd normals, exponentials, one law twice."""
    kind = draw(st.sampled_from(["normal", "exponential", "identical"]))
    if kind == "normal":
        sd = draw(_scales)
        mean0 = draw(st.sampled_from([0.0, 1.0, -1.0])) * draw(_scales)
        mean1 = mean0 + draw(_signs) * draw(st.floats(1e-3, 20)) * sd
        assume(math.isfinite(mean1) and mean1 != mean0)
        return normal_density(mean1, sd), normal_density(mean0, sd)
    if kind == "exponential":
        rate0 = draw(_scales)
        rate1 = rate0 * _scale(draw(_signs) * draw(st.floats(1e-3, 3)))
        assume(0.0 < rate1 < math.inf and rate1 != rate0)
        return exponential_density(rate1), exponential_density(rate0)
    make = draw(st.sampled_from([
        st.builds(normal_density, st.floats(-1e300, 1e300), _scales),
        st.builds(exponential_density, _scales),
        st.builds(gamma_density, _shapes, _scales),
    ]))
    f = draw(make)
    return f, replace(f)


@settings(max_examples=300, deadline=None)
@given(pair=_law_pairs(), seed=st.integers(0, 2**32))
@example(pair=(normal_density(1.0, 1e-300), normal_density(0.0, 1e-300)), seed=1)
@example(pair=(normal_density(1e300, 1e300), normal_density(-1e300, 1e300)), seed=2)
@example(pair=(exponential_density(1e300), exponential_density(1e-300)), seed=3)
# Means one ulp apart, with sd below an ulp: the draws are the means, and
# the midpoint lies between two floats and rounds to the alternative's mean.
@example(pair=(normal_density(1.0 + 2**-51, 1e-17), normal_density(1.0 + 2**-52, 1e-17)), seed=5)
@example(pair=(gamma_density(1e-3, 1e-300), gamma_density(1e-3, 1e-300)), seed=4)
def test_closed_form_rule_matches_decide(pair, seed):
    """On draws from both hypotheses, ratio > 0 rejects where `decide` does.

    Both raise ValueError together (a draw outside the support, such as a
    gamma draw that underflows to 0), or they agree at every draw but a
    near-tie.  Near-ties are counted as a Hypothesis event; none has been seen.
    """
    f1, f0 = pair
    ratio = _log_ratio(f1, f0)
    assert ratio is not None
    rng = make_rng(seed)
    near_ties = 0
    for f in pair:
        x = f.sample(1000, rng)
        got, want = _rule(ratio, x), _reference(f1, f0, x)
        if got is ValueError or want is ValueError:
            assert got is want
            continue
        for i in np.flatnonzero(got != want):
            exact, terms = _exact_and_terms(f1.law, f0.law, float(x[i]))
            assert abs(exact) <= _TIE_ULPS * Fraction(_EPS) * terms, (f1.law, f0.law, x[i])
            near_ties += 1
    event(f"near-tie disagreements: {near_ties}")


def test_closed_form_exists_only_for_declared_pairs():
    assert _log_ratio(normal_density(0, 1), normal_density(1, 2)) is None
    assert _log_ratio(gamma_density(2, 1), gamma_density(2, 3)) is None
    assert _log_ratio(normal_density(0, 1), exponential_density(1)) is None
    assert _log_ratio(tabulated_density([0, 1], [1, 1]), tabulated_density([0, 1], [1, 1])) is None
    f = normal_density(0, 1)
    assert _log_ratio(replace(f, law=None), f) is None
    assert _log_ratio(f, f)(np.array([-1e308, 0.0]), np.empty(2)) == 0.0


@pytest.mark.parametrize(
    "f1, f0, x",
    [
        (normal_density(1, 1), normal_density(0, 1), [0.0, math.inf]),
        (normal_density(0, 1), normal_density(0, 1), [-math.inf, math.nan]),
        (exponential_density(2), exponential_density(1), [1.0, -1e-300]),
        (exponential_density(2), exponential_density(1), [1.0, math.inf]),
        (exponential_density(1), exponential_density(1), [math.nan]),
        (gamma_density(2, 1), gamma_density(2, 1), [0.0, 1.0]),
        (gamma_density(2, 1), gamma_density(2, 1), [1.0, math.nan]),
    ],
    ids=["normal-inf", "normal-identical-inf", "exponential-negative", "exponential-inf",
         "exponential-nan", "gamma-zero", "gamma-nan"],
)
def test_closed_form_raises_where_decide_does(f1, f0, x):
    x = np.array(x)
    assert _rule(_log_ratio(f1, f0), x) is _reference(f1, f0, x) is ValueError


def test_normal_closed_form_raises_at_nan():
    # `decide` takes the normal's NaN log density for a tie; the closed forms
    # raise at a NaN for every law, as the logpdf difference does.
    x = np.array([math.nan, 2.0])
    for f1, f0 in [(normal_density(1, 1), normal_density(0, 1)), (normal_density(0, 1),) * 2]:
        with pytest.raises(ValueError, match="NaN or has zero density under both"):
            _log_ratio(f1, f0)(x, np.empty_like(x))


# Pairs without a closed form: an unequal-sd normal pair, a tabulated pair,
# and law-stripped normals of one sd.
_UNDECLARED = {
    "normal-scale": (normal_density(0, 1.5), normal_density(0, 1)),
    "tabulated": (tabulated_density([0, 1, 2], [1, 2, 1]), tabulated_density([0, 1, 2], [2, 1, 1])),
    "law-stripped": tuple(replace(normal_density(m, 1), law=None) for m in (1, 0)),
}


@pytest.mark.parametrize("pair", sorted(_UNDECLARED))
def test_rule_without_closed_form_is_the_logpdf_difference(pair):
    f1, f0 = _UNDECLARED[pair]
    x = np.concatenate([f.sample(500, make_rng(seed)) for seed, f in enumerate((f1, f0))])
    out = np.empty_like(x)
    got = _log_ratio_rule(f1, f0)(x, out)
    assert got is out
    assert got.tobytes() == (f1.logpdf(x) - f0.logpdf(x)).tobytes()
    assert (got > 0.0).tolist() == decide(f1.logpdf(x), f0.logpdf(x))[0].tolist()


def _raising_logpdf(x):
    raise AssertionError("a log density was evaluated")


def test_rule_without_closed_form_raises_at_nan_before_any_logpdf():
    f1, f0 = (replace(normal_density(0, sd), logpdf=_raising_logpdf) for sd in (1.5, 1))
    x = np.array([1.0, math.nan])
    with pytest.raises(ValueError, match="NaN or has zero density under both"):
        _log_ratio_rule(f1, f0)(x, np.empty(2))
