"""pxkit writes into no array it did not allocate.

A density's ``logpdf`` and ``sample`` may return arrays they keep, cached or
read-only, and a caller's arrays are only read.  The families here return
read-only arrays, so any write into one raises; each estimate must equal
the one of a writable twin, and that of the shipped model, bit for bit.
Their densities declare no law, so the estimators' log likelihood ratio
is the difference of the read-only log densities; one test keeps the
shipped laws, whose closed-form ratio reads only the read-only samples.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pxkit import (
    ConditionalFamily,
    ExpandedModel,
    MarginalFamily,
    SimpleHypotheses,
    estimate_phi_errors,
    estimate_psi_errors,
    exponential_density,
    gamma_density,
    make_exponential_rate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    normal_density,
)
from pxkit.kraft import decide
from pxkit.montecarlo import _CHUNK

HYP = SimpleHypotheses(0.5, 1.5)


def _frozen(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def _no_logpdf(x):
    raise AssertionError("the closed-form log ratio evaluated a log density")


def _wrapped(density, read_only, keep_law=False):
    """The same law, whose logpdf and sample return read-only arrays when asked.

    Unless ``keep_law``, the law is not declared, so the estimators evaluate
    ``logpdf``; with it, they take the closed-form log ratio, and ``logpdf``
    raises.
    """
    finish = _frozen if read_only else np.asarray
    return replace(
        density,
        logpdf=_no_logpdf if keep_law else lambda x: finish(density.logpdf(x)),
        sample=lambda n, rng: finish(density.sample(n, rng)),
        law=density.law if keep_law else None,
    )


def _marginal(make, read_only, keep_law=False):
    return MarginalFamily(lambda theta: _wrapped(make(theta), read_only, keep_law))


# (make the marginal at theta, make the conditional at (t1, theta), the shipped model)
PHI = {
    "normal": (lambda theta: normal_density(theta, 1.0), make_normal_location(1.0)),
    "exponential": (exponential_density, make_exponential_rate()),
}
PSI = {
    "two-stage": (
        lambda theta: normal_density(theta, 1.0),
        lambda t1, theta: normal_density(theta, 1.0),
        make_two_stage_normal(1, 1, 1.0),
    ),
    "variance": (
        lambda theta: normal_density(theta, 0.5),
        lambda t1, theta: gamma_density(1.5, 2.0 / 3.0),
        make_normal_variance_expansion(4),
    ),
}
REPLICATES = [10**4, _CHUNK + 1]


def _expanded(marginal, conditional, read_only, keep_law=False):
    return ExpandedModel(
        _marginal(marginal, read_only, keep_law),
        ConditionalFamily(
            lambda t1, theta: _wrapped(conditional(t1, theta), read_only, keep_law)
        ),
    )


@pytest.mark.parametrize("replicates", REPLICATES)
@pytest.mark.parametrize("law", sorted(PHI))
def test_phi_estimate_reads_only(law, replicates):
    make, shipped = PHI[law]
    got = estimate_phi_errors(_marginal(make, True), HYP, replicates, seed=17)
    assert got == estimate_phi_errors(_marginal(make, False), HYP, replicates, seed=17)
    assert got == estimate_phi_errors(shipped, HYP, replicates, seed=17)


@pytest.mark.parametrize("replicates", REPLICATES)
@pytest.mark.parametrize("model", sorted(PSI))
def test_psi_estimate_reads_only(model, replicates):
    marginal, conditional, shipped = PSI[model]
    got = estimate_psi_errors(_expanded(marginal, conditional, True), HYP, replicates, seed=17)
    twin = _expanded(marginal, conditional, False)
    assert got == estimate_psi_errors(twin, HYP, replicates, seed=17)
    assert got == estimate_psi_errors(shipped, HYP, replicates, seed=17)


@pytest.mark.parametrize("replicates", REPLICATES)
@pytest.mark.parametrize("model", sorted(PHI) + sorted(PSI))
def test_closed_form_path_reads_only(model, replicates):
    # Read-only samples whose laws are declared, and whose logpdf raises.
    if model in PHI:
        make, shipped = PHI[model]
        family, estimate = _marginal(make, True, keep_law=True), estimate_phi_errors
    else:
        marginal, conditional, shipped = PSI[model]
        family, estimate = _expanded(marginal, conditional, True, keep_law=True), estimate_psi_errors
    got = estimate(family, HYP, replicates, seed=17)
    assert got == estimate(shipped, HYP, replicates, seed=17)


def test_decide_reads_only():
    l1 = _frozen([0.0, -math.inf, math.inf, math.nan, -0.0, 2.5, -1e308])
    l0 = _frozen([-0.0, 0.0, -math.inf, 1.0, 0.0, 2.5, 1e308])
    with np.errstate(over="ignore"):
        reject, log_ratio = decide(l1, l0)
        want = 0.5 * (l1 - l0)
    assert log_ratio.tobytes() == want.tobytes()
    assert reject.tolist() == (want > 0.0).tolist()
    assert not np.shares_memory(log_ratio, l1) and not np.shares_memory(log_ratio, l0)
