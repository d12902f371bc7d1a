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

from .densities import ScalarDensity
from .models import ExpandedModel, MarginalFamily, SimpleHypotheses
from .quadrature import QuadratureBudgetError, QuadratureConfig, integrate

__all__ = [
    "AffinityResult",
    "BoundComparison",
    "affinity",
    "hellinger_sq",
    "marginal_bound",
    "conditional_affinity",
    "expanded_bound",
    "activation_measure",
    "product_affinity_iid",
    "total_mass",
]


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
    c1 = em.conditional.density_at(t1, hyp.theta1, em.eta0)
    c0 = em.conditional.density_at(t1, hyp.theta0, em.eta0)
    return affinity(c1, c0, cfg)


def expanded_bound(
    em: ExpandedModel, hyp: SimpleHypotheses, cfg: QuadratureConfig | None = None
) -> AffinityResult:
    """Upper bound on the error-probability sum of the joint-statistic test.

    Computed as an iterated integral: for each outer node t1 the affinity
    of the two t2 conditionals is found by an inner adaptive quadrature at
    one tenth of the outer tolerance, then weighted by sqrt of the product
    of the marginal densities and integrated over t1.  The reported error
    adds the inner tolerance budget to the outer quadrature estimate.  On
    budget exhaustion mid-iteration the raised error refers to the
    integral that was in progress.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    m1 = em.marginal.density_at(hyp.theta1, em.eta0)
    m0 = em.marginal.density_at(hyp.theta0, em.eta0)
    outer_tol = 0.5 * cfg.abs_tol
    inner_tol = outer_tol / 10.0
    weight = _sqrt_product_integrand(m1, m0)
    inner_evals = 0

    def outer_integrand(t1_values):
        nonlocal inner_evals
        t1_values = np.atleast_1d(np.asarray(t1_values, dtype=float))
        w = weight(t1_values)
        out = np.zeros_like(w)
        for i, t1 in enumerate(t1_values):
            if w[i] == 0.0:
                continue
            remaining = cfg.max_evaluations - inner_evals
            if remaining < 100:
                raise QuadratureBudgetError(float(out[i]), math.inf, inner_evals)
            inner_cfg = replace(cfg, abs_tol=inner_tol, max_evaluations=remaining)
            inner = conditional_affinity(em, hyp, float(t1), inner_cfg)
            inner_evals += inner.evaluations
            out[i] = w[i] * inner.raw_value
        return out

    res = _integrate_overlap(outer_integrand, m1, m0, replace(cfg, abs_tol=outer_tol))
    if res.evaluations == 0:
        return res  # disjoint supports: no integral, so no inner tolerance either
    return replace(
        res,
        abs_error_estimate=res.abs_error_estimate + inner_tol,
        evaluations=res.evaluations + inner_evals,
    )


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
    if int(n) != n or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return affinity(f, g, cfg).value ** int(n)


def total_mass(d: ScalarDensity, cfg: QuadratureConfig | None = None):
    """Integral of the density over its support (should be 1)."""
    return integrate(
        d.pdf,
        d.support.lower,
        d.support.upper,
        cfg,
        center=d.center,
        scale=max(d.scale, 1e-12),
    )
