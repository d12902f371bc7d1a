"""Square-root density-ratio tests for simple hypotheses.

Both tests reject when the square root of the density ratio under the
alternative versus the null exceeds 1, i.e. when the half-log-ratio is
strictly positive.  Ties retain the null.  Decisions are computed in log
space so extreme observations cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ExpandedModel, MarginalFamily, SimpleHypotheses, joint_logpdf


@dataclass(frozen=True)
class Decision:
    reject_h0: bool
    log_ratio: float


def decide(l1, l0) -> tuple[np.ndarray, np.ndarray]:
    """The rejection rule over arrays of log densities under the alternative and the null.

    Returns ``(reject_h0, half_log_ratio)`` elementwise.  Raises ValueError
    if any observation has zero density under both hypotheses.
    """
    l1 = np.asarray(l1, dtype=float)
    l0 = np.asarray(l0, dtype=float)
    if np.any(np.isneginf(l1) & np.isneginf(l0)):
        raise ValueError("observation has zero density under both hypotheses")
    log_ratio = 0.5 * (l1 - l0)
    return log_ratio > 0.0, log_ratio


def _decide(l1: float, l0: float) -> Decision:
    reject, log_ratio = decide(l1, l0)
    return Decision(reject_h0=bool(reject), log_ratio=float(log_ratio))


def phi_decide(t1: float, family: MarginalFamily, hyp: SimpleHypotheses) -> Decision:
    """Test based on the first statistic alone."""
    l1 = float(family.density_at(hyp.theta1).logpdf(t1))
    l0 = float(family.density_at(hyp.theta0).logpdf(t1))
    return _decide(l1, l0)


def psi_decide(t1: float, t2: float, em: ExpandedModel, hyp: SimpleHypotheses) -> Decision:
    """Test based on the joint statistic of the expanded model at eta0."""
    return _decide(joint_logpdf(em, t1, t2, hyp.theta1), joint_logpdf(em, t1, t2, hyp.theta0))
