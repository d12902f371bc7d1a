"""Bit-identity pins for the Monte Carlo error estimators.

The sha256 digests below are of ``repr`` of the `ErrorProbEstimate` that
`estimate_phi_errors` or `estimate_psi_errors` returns.  Any change to the
sampled streams, the log densities the decisions read or the rejection
rule moves at least one of them.  ``MULTI_BLOCK_DIGESTS`` pins calls that
span several blocks, where the theta1 arm runs on a worker thread; they
were computed with the single-threaded block loop.
"""

import hashlib

import pytest

from pxkit import (
    SimpleHypotheses,
    estimate_phi_errors,
    estimate_psi_errors,
    make_exponential_rate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
)

TWO_STAGE = make_two_stage_normal(1, 1, 1.0)
VARIANCE_2 = make_normal_variance_expansion(2)
VARIANCE_4 = make_normal_variance_expansion(4)
# Case -> (estimator, model, hypotheses).  The phi cases of the variance
# models test their marginal families; the two-stage marginal is N(theta, 1),
# the same law as phi-normal.
CASES = {
    "phi-normal": (estimate_phi_errors, make_normal_location(1.0), SimpleHypotheses(0.0, 1.0)),
    "phi-exponential": (estimate_phi_errors, make_exponential_rate(), SimpleHypotheses(1.0, 2.0)),
    "phi-variance-2": (estimate_phi_errors, VARIANCE_2.marginal, SimpleHypotheses(0.0, 1.0)),
    "phi-variance-4": (estimate_phi_errors, VARIANCE_4.marginal, SimpleHypotheses(0.0, 1.0)),
    "psi-two-stage": (estimate_psi_errors, TWO_STAGE, SimpleHypotheses(0.0, 1.0)),
    "psi-variance-2": (estimate_psi_errors, VARIANCE_2, SimpleHypotheses(0.0, 1.0)),
    "psi-variance-4": (estimate_psi_errors, VARIANCE_4, SimpleHypotheses(0.0, 1.0)),
}
SEEDS = (1, 2)
REPLICATES = 20_000

DIGESTS = {
    ('phi-exponential', 1): "b38a03010e0fe45c54b40ebac9c0b8a66a422f161f53315f19bfd452635a1602",
    ('phi-exponential', 2): "8ea2a2f55a08c80d6093d3488728624eb4687b4bce3c006c260b9b559bda4a6c",
    ('phi-normal', 1): "b6ea34b580888e14ef26ca0fdd200f4d5aab1cb87adc1419292770b86c1b32a7",
    ('phi-normal', 2): "311573737a7141f8f31f51b4d004cc90148b231f360d9234e6f043dcde46f990",
    ('phi-variance-2', 1): "73738efcda221ff702c9a696c172d157f9977b11c2a846960d982549d022e900",
    ('phi-variance-2', 2): "cead04b4923033b9708aff367323fd489855a4938fe8252c4d203ff22c8f2b97",
    ('phi-variance-4', 1): "918cfbbebfefa8bac56bc60ddfafb3b001f2c83e96551483af55dd2c7a2fc4be",
    ('phi-variance-4', 2): "b2812bf8b62639449056693f9cd151279a75a02e9654f1e6772fc91dc5068f0a",
    ('psi-two-stage', 1): "2fc5299a621031bf3429beadbab8b9cf2d63773ac93f65e77e62b75290a52336",
    ('psi-two-stage', 2): "649471c00d7f21a231ab59fbe74c80099ceff71034b337a8f387a0d8322fe149",
    ('psi-variance-2', 1): "2a62fa625c430b55bb7c9d0dfd1ef51459387ad299957692f6d8837f74f1ec23",
    ('psi-variance-2', 2): "2570d5fb9b1b0ab6440f87bf09946e5fb34de95aff817fa4fa0b4aa8dfde98d1",
    ('psi-variance-4', 1): "fa8f7b50f9f86416a4bbf8778cedccebb55481a634bebb66cea2edc4f4558fca",
    ('psi-variance-4', 2): "74f1520885df2d1f5d17ad4e2d7d205143c74f3f6e3c274535ff3c151c467d95",
}

MULTI_BLOCK_REPLICATES = 3 * 2**16 + 7
MULTI_BLOCK_DIGESTS = {
    "phi-exponential": "025146d0ecb73b486126d87325294b60b826fd43b4bebfd7acba498e1c9fa44e",
    "phi-normal": "256828f01b460a9d8dfb4b4c46a005ea1a1d194756b793a5a764425ec857e96e",
    "phi-variance-2": "f5a84dbcaac3d282439d336ccb7a27edace143ea1da3d0d894b9e94e9ba4b897",
    "phi-variance-4": "168bf9de026c255b6ce257cd0d3622ee0f612ac522d91920e6a38867eb4bfa7e",
    "psi-two-stage": "b354a034d58085a2e4ef5e49677dc5017f83257fcd5540dbad1750a5bf4a8cd5",
    "psi-variance-2": "a9ba11f82f0df47bacada0a1795feb93367349b8f217eef9df9d6388df2a4536",
    "psi-variance-4": "ce05bcfa10076a79e2a179073f11e19267659b10ca8e400bd96312926554c749",
}


def _estimate(case, seed, replicates=REPLICATES):
    estimator, model, hyp = CASES[case]
    return estimator(model, hyp, replicates, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_estimates_are_pinned(case, seed):
    got = hashlib.sha256(repr(_estimate(case, seed)).encode()).hexdigest()
    assert got == DIGESTS[case, seed]


@pytest.mark.parametrize("case", sorted(CASES))
def test_multi_block_estimates_are_pinned(case):
    got = hashlib.sha256(repr(_estimate(case, 1, MULTI_BLOCK_REPLICATES)).encode()).hexdigest()
    assert got == MULTI_BLOCK_DIGESTS[case]
