"""Seeded Monte Carlo estimation of test error probabilities.

Estimates the two error probabilities of the first-statistic and
joint-statistic tests by simulating under each hypothesis, and checks the
estimates against the analytic affinity bounds.  Every stream is derived
from the caller's seed, an integer in [0, 2**64), with `seeding.derive_seed`,
so reruns are bit-identical and replicates are decorrelated by construction.
Replicates are drawn, evaluated and decided vectorized in blocks of `_CHUNK`
(32,768), so memory does not grow with the replicate count.  Each hypothesis
arm holds one ``(2, _CHUNK)`` float buffer for the whole call.

Every block is decided by one rule.  It computes the log likelihood ratio
log f1 - log f0 of each replicate into the arm's buffer, by
`kraft._log_ratio_rule` of each pair of densities, and rejects where it is
positive (`_estimate_errors`).  The buffer's first row holds the ratio of
the marginal densities of the first statistic; for the joint statistic the
second row holds the ratio of the block's two conditional densities, which
is added into the first.  A pair of declared laws with a closed-form ratio
(`kraft._log_ratio`) evaluates no density; any other pair (tabulated,
custom or mixed-law families) writes the difference of its two log
densities into its row.  A block allocates its draws, the comparison's
booleans and, for a pair without a closed form, each density's
log-density output (a shipped ``logpdf`` allocates that and at most one
intermediate).  Nothing is kept between calls, and no array that a density
or a sampler returns is written.  When a call spans more than one block,
the theta1 arm runs on one worker thread while the caller's thread runs
the theta0 arm (see `_estimate_errors`).
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import densities
from ._checks import check_count, check_real, check_seed
from .affinity import expanded_bound, marginal_bound
from .kraft import _log_ratio_rule
from .models import ExpandedModel, MarginalFamily, SimpleHypotheses
from .quadrature import QuadratureConfig
from .seeding import derive_seed

Z_99 = 2.576  # normal 99% two-sided quantile used for half-widths
_CHUNK = 1 << 15  # replicates per block; sets memory, never the results


@dataclass(frozen=True)
class ErrorProbEstimate:
    """Monte Carlo estimates of the two error probabilities.

    alpha_hat estimates the probability of rejecting under the null;
    beta_hat the probability of retaining under the alternative.
    Half-widths are 99% normal-approximation intervals.
    """

    alpha_hat: float
    beta_hat: float
    replicates: int
    seed: int
    half_width_alpha: float
    half_width_beta: float

    @property
    def error_sum(self) -> float:
        return self.alpha_hat + self.beta_hat


@dataclass(frozen=True)
class BoundCheck:
    estimate: ErrorProbEstimate
    bound: float
    satisfied: bool
    slack: float


def _half_width(p_hat: float, n: int) -> float:
    return Z_99 * math.sqrt(p_hat * (1.0 - p_hat) / n)


def check_replicates(replicates: int) -> int:
    """The replicate count as an int; raises ValueError unless an integer >= 100."""
    return check_count("replicates", replicates, 100)


def _estimate_errors(
    sample, streams: int, log_ratio, hyp: SimpleHypotheses, replicates: int, seed: int
) -> ErrorProbEstimate:
    """Error probabilities of the test that rejects where ``log_ratio`` is positive.

    ``sample(theta, n, rngs)`` draws n statistics under theta from the
    ``streams`` generators in ``rngs``; ``log_ratio(t, rows)`` gives their
    log likelihood ratios of theta1 to theta0, and each one above 0 rejects
    theta0 (a tie of 0 retains it).  ``rows`` is the arm's one ``(2,
    block)`` buffer cut to the block's n columns, which every block of the
    arm reuses and ``log_ratio`` may write.  Stream seeds
    are derived from ``seed`` with keys 0, 1, ..., the theta0 streams first,
    and each stream is one generator for the whole call.  Each arm draws,
    evaluates and decides its replicates in blocks of `_CHUNK` and sums its
    rejections as an integer count, so the estimate equals that of one
    full-length draw and memory does not depend on ``replicates``.

    A call of more than one block runs the theta1 arm on one worker thread
    while the caller's thread runs the theta0 arm; numpy draws without the
    interpreter lock, and each arm reads only its own generators, so the
    counts do not depend on scheduling.  An exception from either arm
    reaches the caller unchanged, the other arm stops at its next block
    boundary, and the worker is joined before the call returns.
    """
    seed = check_seed(seed)
    replicates = check_replicates(replicates)
    keys = itertools.count()
    arms = [
        (theta, [densities.make_rng(derive_seed(seed, next(keys))) for _ in range(streams)])
        for theta in (hyp.theta0, hyp.theta1)
    ]
    failed = threading.Event()

    def rejections(theta, rngs) -> int:
        count = 0
        rows = np.empty((2, min(_CHUNK, replicates)))
        try:
            for start in range(0, replicates, _CHUNK):
                if failed.is_set():
                    break
                n = min(_CHUNK, replicates - start)
                count += int(np.count_nonzero(log_ratio(sample(theta, n, rngs), rows[:, :n]) > 0.0))
        except BaseException:
            failed.set()
            raise
        return count

    if replicates <= _CHUNK:
        counts = [rejections(*arm) for arm in arms]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            theta1_arm = pool.submit(rejections, *arms[1])
            counts = [rejections(*arms[0]), theta1_arm.result()]
    alpha = counts[0] / replicates
    beta = (replicates - counts[1]) / replicates
    return ErrorProbEstimate(
        alpha_hat=alpha,
        beta_hat=beta,
        replicates=replicates,
        seed=seed,
        half_width_alpha=_half_width(alpha, replicates),
        half_width_beta=_half_width(beta, replicates),
    )


def estimate_phi_errors(
    family: MarginalFamily, hyp: SimpleHypotheses, replicates: int, seed: int
) -> ErrorProbEstimate:
    """Error probabilities of the first-statistic test.

    Draws t1 under each hypothesis from its own stream (keys 0 and 1) and
    reports rejection / retention frequencies.
    """
    density = {theta: family.density_at(theta) for theta in (hyp.theta0, hyp.theta1)}
    ratio = _log_ratio_rule(density[hyp.theta1], density[hyp.theta0])
    return _estimate_errors(
        lambda theta, n, rngs: density[theta].sample(n, rngs[0]),
        1,
        lambda t, rows: ratio(t, rows[0]),
        hyp,
        replicates,
        seed,
    )


def estimate_psi_errors(
    em: ExpandedModel, hyp: SimpleHypotheses, replicates: int, seed: int
) -> ErrorProbEstimate:
    """Error probabilities of the joint-statistic test, at the model's expansion baseline.

    Draws t1 and then t2 given t1 under each hypothesis, from streams with
    keys 0 and 1 under theta0 and 2 and 3 under theta1.
    """

    marginal = {theta: em.marginal.density_at(theta) for theta in (hyp.theta0, hyp.theta1)}
    ratio = _log_ratio_rule(marginal[hyp.theta1], marginal[hyp.theta0])

    def sample(theta, n, rngs):
        t1 = marginal[theta].sample(n, rngs[0])
        return t1, em.conditional.density_at(t1, theta).sample(n, rngs[1])

    def log_ratio(t, rows):
        t1, t2 = t
        r = ratio(t1, rows[0])
        conditional = (em.conditional.density_at(t1, theta) for theta in (hyp.theta1, hyp.theta0))
        r += _log_ratio_rule(*conditional)(t2, rows[1])
        return r

    return _estimate_errors(sample, 2, log_ratio, hyp, replicates, seed)


def check_bound(estimate: ErrorProbEstimate, bound: float) -> BoundCheck:
    """Compare an error-sum estimate against its analytic upper bound.

    The check passes when the estimated sum does not exceed the bound by
    more than the two half-widths combined.
    """
    check_real("bound", bound, 0, 1, "[]")
    total = estimate.error_sum
    cushion = estimate.half_width_alpha + estimate.half_width_beta
    return BoundCheck(
        estimate=estimate,
        bound=bound,
        satisfied=total <= bound + cushion,
        slack=bound - total,
    )


@dataclass(frozen=True)
class SweepTable:
    """One bound check per alternative value, in input order, as plain data.

    ``kind`` is "phi" or "psi", the test `sweep` chose for the model.  Each
    check's estimate is seeded from the base seed and the theta1 value itself
    (`row_seed`), so permuting the input list permutes the checks and nothing
    else.  The CLI decides how a table is written (`pxkit.cli`).
    """

    kind: str
    checks: tuple[BoundCheck, ...]


def row_seed(base_seed: int, theta1: float) -> int:
    """Seed of the sweep's estimate at this alternative value.

    The base seed is checked as every seeded function checks it
    (`_checks.check_seed`), so -1 is not 2**64 - 1 under another name.
    """
    return derive_seed(check_seed(base_seed), float(theta1))


def sweep(
    model: MarginalFamily | ExpandedModel,
    theta0: float,
    theta1_list: Sequence[float],
    replicates: int,
    seed: int,
    cfg: QuadratureConfig | None = None,
) -> SweepTable:
    """Bound checks across a list of alternatives.

    A `MarginalFamily` gets the first-statistic (phi) test and its marginal
    bound, an `ExpandedModel` the joint-statistic (psi) test and its
    expanded bound; the table's ``kind`` says which.  Every bound is
    computed before the first estimate, so a quadrature failure raises
    before any drawing, and the seed is checked before the first bound.
    """
    seed = check_seed(seed)
    if isinstance(model, MarginalFamily):
        kind, estimate, bound_of = "phi", estimate_phi_errors, marginal_bound
    elif isinstance(model, ExpandedModel):
        kind, estimate, bound_of = "psi", estimate_psi_errors, expanded_bound
    else:
        raise ValueError(f"sweep needs a model, got {type(model).__name__}")
    if len(theta1_list) == 0:
        raise ValueError("theta1_list must be nonempty")
    hyps = [SimpleHypotheses(theta0, float(theta1)) for theta1 in theta1_list]
    bounds = [bound_of(model, hyp, cfg).value for hyp in hyps]
    checks = (
        check_bound(estimate(model, hyp, replicates, row_seed(seed, hyp.theta1)), bound)
        for hyp, bound in zip(hyps, bounds)
    )
    return SweepTable(kind, tuple(checks))
