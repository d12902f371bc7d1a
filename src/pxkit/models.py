"""Density families indexed by a parameter of interest, written at the expansion baseline.

A marginal family gives the density of the first summary statistic t1; a
conditional family gives the density of the second statistic t2 given t1.
Together they form an expanded model whose joint density factorizes as
marginal times conditional.  The paper's expansion parameter eta enters
only through its baseline eta0, where the expanded marginal coincides with
the original, un-expanded model; every bound and estimator is taken there,
so each family is written at eta0 and takes no eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import check_count, check_real
from .densities import ScalarDensity, gamma_density, normal_density, exponential_density


@dataclass(frozen=True)
class SimpleHypotheses:
    """The two parameter values of a simple-vs-simple testing problem."""

    theta0: float
    theta1: float

    def __post_init__(self) -> None:
        check_real("theta0", self.theta0)
        check_real("theta1", self.theta1)
        if self.theta0 == self.theta1:
            raise ValueError("theta0 and theta1 must differ")


@dataclass(frozen=True)
class MarginalFamily:
    """Family of t1 densities indexed by theta."""

    density_at: Callable[[float], ScalarDensity]


@dataclass(frozen=True)
class ConditionalFamily:
    """Family of t2-given-t1 densities indexed by (t1, theta).

    ``density_at(t1, theta)`` is the one description of the law, used
    by the quadrature, `joint_logpdf` and the Monte Carlo estimators alike.
    ``t1`` is a scalar (one conditional density, for quadrature) or an
    array; for an array, the returned density's ``logpdf(t2)`` pairs t2
    with t1 elementwise and ``sample(len(t1), rng)`` draws one t2 per
    entry of t1.  The support must not depend on t1.  The joint-statistic
    estimator adds the log ratio of the two conditional densities at the
    block's t1 to that of the marginals, each in closed form where the two
    laws have one (`kraft._log_ratio_rule`), so it never evaluates the
    joint density itself.

    The affinity of ``density_at(t1, theta1)`` and ``density_at(t1,
    theta0)`` must be the same at every t1 of the marginals' common support.
    Then the expanded bound, the integral over t1 of sqrt(m1*m0) times that
    affinity, is the marginal bound times one conditional affinity, which
    `expanded_bound` takes at one t1.  The condition holds when the law of
    t2 does not depend on t1, and also when t1 acts on t2 only through a
    one-to-one change of variable that both hypotheses share, such as the
    shift in t2 | t1 ~ N(b*t1 + c*theta, tau^2), because a change of
    variable leaves the affinity unchanged.  It is a promise about the law
    that nothing checks: a family that breaks it gets a wrong bound.
    """

    density_at: Callable[[np.ndarray | float, float], ScalarDensity]


@dataclass(frozen=True)
class ExpandedModel:
    """Joint model for (t1, t2): a marginal family and a conditional family."""

    marginal: MarginalFamily
    conditional: ConditionalFamily


def make_normal_location(sigma: float) -> MarginalFamily:
    """Normal location family: theta is the mean, sigma fixed."""
    check_real("sigma", sigma, 0)
    return MarginalFamily(lambda theta: normal_density(theta, sigma))


def make_exponential_rate() -> MarginalFamily:
    """Exponential family: theta is the rate, which `exponential_density` checks."""
    # Every family looks its constructor up in this module at each call, so a
    # wrapper later set on the module name (as a tracer does) sees each density.
    return MarginalFamily(lambda theta: exponential_density(theta))


def make_two_stage_normal(n1: int, n2: int, sigma: float) -> ExpandedModel:
    """Split-sample normal model where the second statistic stays informative.

    t1 is the mean of the first n1 observations, Normal(theta, sigma^2/n1);
    t2 is the mean of the remaining n2, Normal(theta, sigma^2/n2),
    independent of t1.  The conditional law of t2 depends on theta, so the
    expanded model genuinely tightens the testing bound.
    """
    n1, n2 = check_count("n1", n1, 1), check_count("n2", n2, 1)
    check_real("sigma", sigma, 0)
    sd1 = sigma / math.sqrt(n1)
    sd2 = sigma / math.sqrt(n2)
    return ExpandedModel(
        marginal=MarginalFamily(lambda theta: normal_density(theta, sd1)),
        conditional=ConditionalFamily(lambda t1, theta: normal_density(theta, sd2)),
    )


def make_normal_variance_expansion(n: int) -> ExpandedModel:
    """Normal model expanded in the scale; the second statistic stays inert.

    For a sample of size n from Normal(theta, eta^2), expanded in the scale
    eta and written at its baseline eta0 = 1: t1 is the sample mean,
    Normal(theta, 1/n); t2 is the sample variance, distributed as 1/(n-1)
    times chi-square with n-1 degrees of freedom, that is Gamma((n-1)/2,
    scale 2/(n-1)), independent of t1 and free of theta.  Since the
    conditional does not involve theta, the expansion cannot improve the
    testing bound: the activation measure is zero.
    """
    n = check_count("n", n, 2)
    sd = 1.0 / math.sqrt(n)
    shape = (n - 1) / 2.0
    scale = 2.0 / (n - 1)
    return ExpandedModel(
        marginal=MarginalFamily(lambda theta: normal_density(theta, sd)),
        conditional=ConditionalFamily(lambda t1, theta: gamma_density(shape, scale)),
    )


def joint_logpdf(em: ExpandedModel, t1, t2, theta: float):
    """Vectorized log joint density over paired (t1, t2) arrays: marginal plus conditional.

    The Monte Carlo estimators do not call it: they add the two factors' log
    likelihood ratios (`kraft._log_ratio_rule`), which tests check against it.
    """
    t1 = np.asarray(t1, dtype=float)
    lm = em.marginal.density_at(theta).logpdf(t1)
    return np.add(lm, em.conditional.density_at(t1, theta).logpdf(t2))
