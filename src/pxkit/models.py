"""Density families indexed by a parameter of interest and an expansion parameter.

A marginal family gives the density of the first summary statistic t1; a
conditional family gives the density of the second statistic t2 given t1.
Together with the baseline value eta0 of the expansion parameter they form
an expanded model whose joint density factorizes as marginal times
conditional.  At eta = eta0 the marginal must coincide with the original,
un-expanded model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import check_count
from .densities import ScalarDensity, gamma_density, normal_density, exponential_density


@dataclass(frozen=True)
class SimpleHypotheses:
    """The two parameter values of a simple-vs-simple testing problem."""

    theta0: float
    theta1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta0) and math.isfinite(self.theta1)):
            raise ValueError("hypothesis parameters must be finite")
        if self.theta0 == self.theta1:
            raise ValueError("theta0 and theta1 must differ")


@dataclass(frozen=True)
class MarginalFamily:
    """Family of t1 densities indexed by (theta, eta), with baseline eta0."""

    _density_at: Callable[[float, float], ScalarDensity]
    eta0: float = 0.0

    def density_at(self, theta: float, eta: float | None = None) -> ScalarDensity:
        if eta is None:
            eta = self.eta0
        return self._density_at(float(theta), float(eta))


@dataclass(frozen=True)
class ConditionalFamily:
    """Family of t2-given-t1 densities indexed by (t1, theta, eta).

    ``density_at(t1, theta, eta)`` is the one description of the law, used
    by the quadrature, `joint_logpdf` and the Monte Carlo estimators alike.
    ``t1`` is a scalar (one conditional density, for quadrature) or an
    array; for an array, the returned density's ``logpdf(t2)`` pairs t2
    with t1 elementwise and ``sample(len(t1), rng)`` draws one t2 per
    entry of t1.  The support must not depend on t1.

    ``t1_free`` declares that the law of t2 does not depend on t1.  It only
    limits which outer nodes of nonzero weight get an inner integral in
    `expanded_bound`: the first one, whose conditional affinity then serves
    every node.  It is a promise about the law that nothing checks: a wrong
    True gives a wrong bound.
    """

    density_at: Callable[[np.ndarray | float, float, float], ScalarDensity]
    t1_free: bool = False


@dataclass(frozen=True)
class ExpandedModel:
    """Joint model for (t1, t2) with expansion baseline eta0."""

    marginal: MarginalFamily
    conditional: ConditionalFamily

    @property
    def eta0(self) -> float:
        """The expansion baseline: the marginal family's ``eta0``, its one source."""
        return self.marginal.eta0


def make_normal_location(sigma: float) -> MarginalFamily:
    """Normal location family: theta is the mean, sigma fixed, eta unused."""
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")

    def density_at(theta: float, eta: float) -> ScalarDensity:
        return normal_density(theta, sigma)

    return MarginalFamily(density_at, eta0=0.0)


def make_exponential_rate() -> MarginalFamily:
    """Exponential family: theta is the rate, which `exponential_density` checks; eta unused."""
    return MarginalFamily(lambda theta, eta: exponential_density(theta), eta0=0.0)


def make_two_stage_normal(n1: int, n2: int, sigma: float) -> ExpandedModel:
    """Split-sample normal model where the second statistic stays informative.

    t1 is the mean of the first n1 observations, Normal(theta, sigma^2/n1);
    t2 is the mean of the remaining n2, Normal(theta, sigma^2/n2),
    independent of t1.  The conditional law of t2 depends on theta, so the
    expanded model genuinely tightens the testing bound.  eta plays no
    role; eta0 = 0 by convention.
    """
    n1, n2 = check_count("n1", n1, 1), check_count("n2", n2, 1)
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    sd1 = sigma / math.sqrt(n1)
    sd2 = sigma / math.sqrt(n2)

    def marginal_at(theta: float, eta: float) -> ScalarDensity:
        return normal_density(theta, sd1)

    def conditional_at(t1, theta: float, eta: float) -> ScalarDensity:
        return normal_density(theta, sd2)

    return ExpandedModel(
        marginal=MarginalFamily(marginal_at, eta0=0.0),
        conditional=ConditionalFamily(conditional_at, t1_free=True),
    )


def make_normal_variance_expansion(n: int) -> ExpandedModel:
    """Normal model expanded in the scale; the second statistic stays inert.

    For a sample of size n from Normal(theta, eta^2) with baseline eta0=1:
    t1 is the sample mean, Normal(theta, eta^2/n); t2 is the sample
    variance, distributed as eta^2/(n-1) times chi-square with n-1 degrees
    of freedom, independent of t1 and free of theta.  Since the
    conditional does not involve theta, the expansion cannot improve the
    testing bound: the activation measure is zero.
    """
    n = check_count("n", n, 2)
    shape = (n - 1) / 2.0

    def marginal_at(theta: float, eta: float) -> ScalarDensity:
        return normal_density(theta, abs(eta) / math.sqrt(n))

    def conditional_at(t1, theta: float, eta: float) -> ScalarDensity:
        return gamma_density(shape, 2.0 * eta * eta / (n - 1))

    return ExpandedModel(
        marginal=MarginalFamily(marginal_at, eta0=1.0),
        conditional=ConditionalFamily(conditional_at, t1_free=True),
    )


def joint_logpdf(em: ExpandedModel, t1, t2, theta: float, eta: float | None = None):
    """Vectorized log joint density over paired (t1, t2) arrays."""
    if eta is None:
        eta = em.eta0
    t1 = np.asarray(t1, dtype=float)
    lm = em.marginal.density_at(theta, eta).logpdf(t1)
    return lm + em.conditional.density_at(t1, theta, eta).logpdf(t2)
