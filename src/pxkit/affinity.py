"""Affinity and Hellinger computations, testing bounds, and the activation measure.

The affinity of two densities f and g is the integral of sqrt(f*g); the
squared Hellinger distance is 2*(1 - affinity).  For a simple-vs-simple
testing problem the affinity of the two hypothesis densities upper-bounds
the sum of the test's error probabilities, and the drop in that bound
obtained by expanding the model with a second statistic is the activation
measure computed by ``activation_measure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_count
from .densities import ScalarDensity
from .models import ExpandedModel, MarginalFamily, SimpleHypotheses
from .quadrature import (
    _DEFAULT_CONFIG,
    QuadratureBudgetError,
    QuadratureConfig,
    integrate,
)


@dataclass(frozen=True)
class AffinityResult:
    """An affinity value with its quadrature error estimate.

    ``value`` is clamped to [0, 1]; ``raw_value`` keeps the unclamped
    quadrature output, which may exceed 1 by up to the error estimate.
    """

    value: float
    raw_value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class BoundComparison:
    """Marginal vs expanded error-sum bounds and their difference.

    ``strict`` is set when the reduction exceeds the sum of both reported
    quadrature error estimates.  That guards against noise only as far as
    those estimates bound the actual errors, and they do not always:
    ``activation_measure(make_normal_variance_expansion(2),
    SimpleHypotheses(0, 1))`` gives ``strict=True`` with R = 2.85e-9,
    where the true R is 0.
    """

    marginal_bound: float
    expanded_bound: float
    r_measure: float
    strict: bool
    marginal_error: float
    expanded_error: float

    @property
    def hellinger_sq_gain(self) -> float:
        """Increase in squared Hellinger separation from the expansion."""
        return 2.0 * self.r_measure


def _sqrt_product_integrand(f: ScalarDensity, g: ScalarDensity):
    """sqrt(f*g) evaluated as exp((log f + log g)/2), 0 where either is 0."""

    def integrand(x):
        lf = np.asarray(f.logpdf(x), dtype=float)
        lg = np.asarray(g.logpdf(x), dtype=float)
        # fmin skips NaN, so (-inf, NaN) is dead too; np.minimum would give NaN there.
        dead = np.fmin(lf, lg) == -math.inf
        s = np.where(dead, -math.inf, 0.5 * (lf + lg))
        return np.exp(s)

    return integrand


def affinity(
    f: ScalarDensity,
    g: ScalarDensity,
    cfg: QuadratureConfig | None = None,
) -> AffinityResult:
    """Affinity of two densities by adaptive quadrature over the common support.

    Disjoint supports give exactly 0 with no evaluation.  The location and
    scale hints of the infinite-interval substitution come from f and g.  A
    value or error estimate that is not finite raises ValueError before the
    value is clamped to [0, 1].
    """
    common = f.support.intersect(g.support)
    if common is None:
        return AffinityResult(value=0.0, raw_value=0.0, abs_error_estimate=0.0, evaluations=0)
    lo, hi = common.lower, common.upper
    # Halving before adding gives the same bits, and no overflow for centres
    # near the largest float.
    center = 0.5 * f.center + 0.5 * g.center
    scale = max(f.scale, g.scale) + abs(0.5 * f.center - 0.5 * g.center)
    scale = max(scale, 1e-12)
    if not (math.isinf(lo) and math.isinf(hi)):
        anchor = lo if math.isinf(hi) else hi
        scale = max(scale, abs(center - anchor))
    res = integrate(_sqrt_product_integrand(f, g), lo, hi, cfg, center=center, scale=scale)
    if not (math.isfinite(res.value) and math.isfinite(res.abs_error)):
        raise ValueError(
            f"integral is not finite: {res.value} +/- {res.abs_error} after {res.evaluations} evaluations"
        )
    return AffinityResult(
        value=min(1.0, max(0.0, res.value)),
        raw_value=res.value,
        abs_error_estimate=res.abs_error,
        evaluations=res.evaluations,
    )


def hellinger_sq(
    f: ScalarDensity, g: ScalarDensity, cfg: QuadratureConfig | None = None
) -> float:
    """Squared Hellinger distance 2*(1 - affinity), in [0, 2]."""
    return 2.0 * (1.0 - affinity(f, g, cfg).value)


def marginal_bound(
    family: MarginalFamily, hyp: SimpleHypotheses, cfg: QuadratureConfig | None = None
) -> AffinityResult:
    """Upper bound on the error-probability sum of the first-statistic test."""
    return affinity(family.density_at(hyp.theta1), family.density_at(hyp.theta0), cfg)


def conditional_affinity(
    em: ExpandedModel,
    hyp: SimpleHypotheses,
    t1: float,
    cfg: QuadratureConfig | None = None,
) -> AffinityResult:
    """Affinity of the two hypothesis conditionals of t2 at a fixed t1.

    Strictly below 1 exactly when the conditional law of t2 differs under
    the two hypotheses at this t1 (Cauchy-Schwarz).
    """
    c1 = em.conditional.density_at(t1, hyp.theta1)
    c0 = em.conditional.density_at(t1, hyp.theta0)
    return affinity(c1, c0, cfg)


def expanded_bound(
    em: ExpandedModel,
    hyp: SimpleHypotheses,
    cfg: QuadratureConfig | None = None,
    *,
    marginal: AffinityResult | None = None,
) -> AffinityResult:
    """Upper bound on the error-probability sum of the joint-statistic test.

    The bound is the integral over t1 of sqrt of the product of the marginal
    densities times c(t1), the affinity of the two t2 conditionals at t1.
    `ConditionalFamily` requires c to be one number over the marginals'
    common support, so the integral is `marginal_bound` times c, with c
    taken at one point of that support.  ``marginal`` is that marginal
    bound when the caller already has it (`activation_measure` does);
    otherwise it is integrated here with the caller's config unchanged.

    c is a `conditional_affinity` at one tenth of half the caller's absolute
    tolerance (``inner_tol``), and the reported error is |c| times the
    marginal's error plus ``inner_tol``.  A marginal of exactly 0 (disjoint
    supports included) is returned as it is, with no conditional integral:
    the expanded bound lies between 0 and the marginal bound.

    The marginal and the conditional integral each have a budget of
    ``max_evaluations``.  When either runs out, the raised
    QuadratureBudgetError counts both.  Its value is the partial marginal
    sum times c when the marginal ran out, and NaN when the conditional did:
    without c there is no estimate.
    """
    full = _DEFAULT_CONFIG if cfg is None else cfg
    inner_tol = 0.5 * full.abs_tol / 10.0
    ran_out = False
    if marginal is None:
        try:
            marginal = marginal_bound(em.marginal, hyp, cfg)
        except QuadratureBudgetError as exc:
            # c still runs, so the raised partial estimate is of the expanded bound.
            ran_out = True
            marginal = AffinityResult(exc.value, exc.value, exc.abs_error, exc.evaluations)
    if marginal.raw_value == 0.0 and not ran_out:
        return marginal
    m1 = em.marginal.density_at(hyp.theta1)
    m0 = em.marginal.density_at(hyp.theta0)
    common = m1.support.intersect(m0.support)
    # Any t1 serves; the centre hint, clamped into the common support, is one.
    t1 = min(max(0.5 * m1.center + 0.5 * m0.center, common.lower), common.upper)
    inner_cfg = QuadratureConfig(abs_tol=inner_tol, rel_tol=full.rel_tol,
                                 max_evaluations=full.max_evaluations)
    try:
        inner = conditional_affinity(em, hyp, t1, inner_cfg)
    except QuadratureBudgetError as exc:
        raise QuadratureBudgetError(math.nan, math.inf, marginal.evaluations + exc.evaluations) from None
    c = inner.raw_value
    raw = marginal.raw_value * c
    err = abs(c) * marginal.abs_error_estimate + inner_tol
    evaluations = marginal.evaluations + inner.evaluations
    if ran_out:
        raise QuadratureBudgetError(raw, err, evaluations) from None
    return AffinityResult(min(1.0, max(0.0, raw)), raw, err, evaluations)


def activation_measure(
    em: ExpandedModel, hyp: SimpleHypotheses, cfg: QuadratureConfig | None = None
) -> BoundComparison:
    """Drop in the error-sum bound obtained by activating the second statistic.

    The marginal integral runs once: the expanded bound is built from the
    `marginal_bound` result computed here, with one conditional integral.
    """
    mb = marginal_bound(em.marginal, hyp, cfg)
    eb = expanded_bound(em, hyp, cfg, marginal=mb)
    r = mb.value - eb.value
    combined = mb.abs_error_estimate + eb.abs_error_estimate
    return BoundComparison(
        marginal_bound=mb.value,
        expanded_bound=eb.value,
        r_measure=r,
        strict=r > combined,
        marginal_error=mb.abs_error_estimate,
        expanded_error=eb.abs_error_estimate,
    )


def product_affinity_iid(
    f: ScalarDensity, g: ScalarDensity, n: int, cfg: QuadratureConfig | None = None
) -> float:
    """Affinity of n-fold iid product densities: the single-pair affinity to the n.

    The product identity is exact, so one 1D quadrature suffices; as n
    grows the value decays geometrically toward 0, which is what makes
    consistent testing possible.
    """
    n = check_count("n", n, 1)
    return affinity(f, g, cfg).value ** n
