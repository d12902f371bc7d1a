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
from dataclasses import dataclass, replace

import numpy as np

from ._checks import check_count
from .densities import ScalarDensity
from .models import ExpandedModel, MarginalFamily, SimpleHypotheses
from .quadrature import MIN_EVALUATIONS, QuadratureBudgetError, QuadratureConfig, integrate


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

    ``strict`` is set only when the reduction exceeds the sum of both
    quadrature error estimates, so numerical noise can never produce a
    false strict-reduction claim.
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
        dead = np.isneginf(lf) | np.isneginf(lg)
        s = np.where(dead, -math.inf, 0.5 * (lf + lg))
        return np.exp(s)

    return integrand


def _integrate_overlap(
    integrand, f: ScalarDensity, g: ScalarDensity, cfg: QuadratureConfig | None
) -> AffinityResult:
    """Integral of ``integrand`` over the common support of f and g, clamped to [0, 1].

    Disjoint supports give exactly 0 with no evaluation.  The location and
    scale hints of the infinite-interval substitution come from f and g.
    """
    common = f.support.intersect(g.support)
    if common is None:
        return AffinityResult(value=0.0, raw_value=0.0, abs_error_estimate=0.0, evaluations=0)
    lo, hi = common.lower, common.upper
    center = 0.5 * (f.center + g.center)
    scale = max(f.scale, g.scale) + 0.5 * abs(f.center - g.center)
    scale = max(scale, 1e-12)
    if not (math.isinf(lo) and math.isinf(hi)):
        anchor = lo if math.isinf(hi) else hi
        scale = max(scale, abs(center - anchor))
    res = integrate(integrand, lo, hi, cfg, center=center, scale=scale)
    return AffinityResult(
        value=min(1.0, max(0.0, res.value)),
        raw_value=res.value,
        abs_error_estimate=res.abs_error,
        evaluations=res.evaluations,
    )


def affinity(
    f: ScalarDensity,
    g: ScalarDensity,
    cfg: QuadratureConfig | None = None,
) -> AffinityResult:
    """Affinity of two densities by adaptive quadrature over the common support."""
    return _integrate_overlap(_sqrt_product_integrand(f, g), f, g, cfg)


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
    em: ExpandedModel, hyp: SimpleHypotheses, cfg: QuadratureConfig | None = None
) -> AffinityResult:
    """Upper bound on the error-probability sum of the joint-statistic test.

    An iterated integral: at each outer node t1 of nonzero weight, the
    affinity c(t1) of the two t2 conditionals is an inner adaptive
    quadrature at one tenth of the outer tolerance, and sqrt of the product
    of the marginal densities times c is integrated over t1.  A ``t1_free``
    conditional gets one inner integral, at the first such node, and its
    value serves every node.  The reported error adds the inner tolerance to
    the outer estimate.

    The outer integral has a budget of ``max_evaluations`` and the inner
    integrals share another.  When either runs out, the raised
    QuadratureBudgetError counts both levels, every node of the outer pass
    in progress included (240 on the first pass).  Its value is the outer
    partial sum when the outer integral ran out, and NaN when an inner one
    did: a node without its inner affinity leaves no estimate.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    m1 = em.marginal.density_at(hyp.theta1)
    m0 = em.marginal.density_at(hyp.theta0)
    outer_tol = 0.5 * cfg.abs_tol
    inner_tol = outer_tol / 10.0
    weight = _sqrt_product_integrand(m1, m0)
    evals = [0, 0]  # outer nodes evaluated, inner evaluations
    shared = []  # the one inner value of a t1-free conditional, once computed

    def inner_value(t1: float) -> float:
        if shared:
            return shared[0]
        remaining = cfg.max_evaluations - evals[1]
        if remaining < MIN_EVALUATIONS:
            raise QuadratureBudgetError(math.nan, math.inf, 0)
        inner_cfg = replace(cfg, abs_tol=inner_tol, max_evaluations=remaining)
        try:
            inner = conditional_affinity(em, hyp, t1, inner_cfg)
        except QuadratureBudgetError as exc:
            evals[1] += exc.evaluations
            raise QuadratureBudgetError(math.nan, math.inf, 0) from None
        evals[1] += inner.evaluations
        if em.conditional.t1_free:
            shared.append(inner.raw_value)
        return inner.raw_value

    def outer_integrand(t1_values):
        evals[0] += t1_values.size
        w = weight(t1_values)
        live = np.flatnonzero(w)
        nodes = live[:1] if em.conditional.t1_free else live
        c = np.zeros_like(w)
        c[live] = [inner_value(t1) for t1 in t1_values[nodes].tolist()]
        return w * c

    try:
        res = _integrate_overlap(outer_integrand, m1, m0, replace(cfg, abs_tol=outer_tol))
    except QuadratureBudgetError as exc:
        raise QuadratureBudgetError(exc.value, exc.abs_error + inner_tol, sum(evals)) from None
    if res.evaluations == 0:
        return res  # disjoint supports: no integral, so no inner tolerance either
    err = res.abs_error_estimate + inner_tol
    return replace(res, abs_error_estimate=err, evaluations=res.evaluations + evals[1])


def activation_measure(
    em: ExpandedModel, hyp: SimpleHypotheses, cfg: QuadratureConfig | None = None
) -> BoundComparison:
    """Drop in the error-sum bound obtained by activating the second statistic."""
    mb = marginal_bound(em.marginal, hyp, cfg)
    eb = expanded_bound(em, hyp, cfg)
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
