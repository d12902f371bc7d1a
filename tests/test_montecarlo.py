"""Monte Carlo error estimates against normal-CDF oracles, and bound checks."""

import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from pxkit import (
    ConditionalFamily,
    ErrorProbEstimate,
    ExpandedModel,
    MarginalFamily,
    QuadratureBudgetError,
    QuadratureConfig,
    SimpleHypotheses,
    check_bound,
    derive_seed,
    estimate_phi_errors,
    estimate_psi_errors,
    expanded_bound,
    make_exponential_rate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    marginal_bound,
    montecarlo,
    row_seed,
    sweep,
)
from pxkit.densities import gamma_density, make_rng, normal_density
from pxkit.kraft import decide
from pxkit.models import joint_logpdf
from pxkit.montecarlo import _CHUNK, check_replicates

PHI_EXACT = float(norm.cdf(-0.5))          # error prob of the t1 test, sigma=1, delta=1
PSI_EXACT = float(norm.cdf(-1 / math.sqrt(2)))  # same for the joint test on the 1+1 split

NORMAL = make_normal_location(1.0)
HYP = SimpleHypotheses(0.0, 1.0)


class TestPhiEstimates:
    def test_matches_normal_cdf_oracle(self):
        est = estimate_phi_errors(NORMAL, HYP, 10**6, seed=42)
        assert abs(est.alpha_hat - PHI_EXACT) < 0.0012
        assert abs(est.beta_hat - PHI_EXACT) < 0.0012

    def test_half_width_formula(self):
        est = estimate_phi_errors(NORMAL, HYP, 10**5, seed=1)
        expected = 2.576 * math.sqrt(est.alpha_hat * (1 - est.alpha_hat) / est.replicates)
        assert est.half_width_alpha == pytest.approx(expected, rel=1e-12)

    def test_wide_separation_is_near_zero(self):
        est = estimate_phi_errors(NORMAL, SimpleHypotheses(0.0, 10.0), 10**5, seed=2)
        assert est.alpha_hat + est.beta_hat < 0.001

    def test_determinism(self):
        a = estimate_phi_errors(NORMAL, HYP, 10**4, seed=77)
        b = estimate_phi_errors(NORMAL, HYP, 10**4, seed=77)
        assert a == b

    def test_minimum_replicates(self):
        with pytest.raises(ValueError):
            estimate_phi_errors(NORMAL, HYP, 99, seed=0)

    @pytest.mark.parametrize("replicates", [150.7, 100.5, math.inf, math.nan])
    def test_non_integral_replicates_rejected(self, replicates):
        with pytest.raises(ValueError, match="replicates must be an integer"):
            check_replicates(replicates)
        with pytest.raises(ValueError, match="replicates must be an integer"):
            estimate_phi_errors(NORMAL, HYP, replicates, seed=0)

    def test_vectorized_decisions_agree_with_scalar_rule(self):
        # Rebuild the two streams the estimator uses and replay them through
        # the closed-form rule of equal-variance normals: reject iff t > (theta0+theta1)/2.
        n, seed = 500, 31
        est = estimate_phi_errors(NORMAL, HYP, n, seed=seed)
        midpoint = 0.5 * (HYP.theta0 + HYP.theta1)
        t_h0 = NORMAL.density_at(HYP.theta0).sample(n, make_rng(derive_seed(seed, 0)))
        t_h1 = NORMAL.density_at(HYP.theta1).sample(n, make_rng(derive_seed(seed, 1)))
        assert est.alpha_hat == np.count_nonzero(t_h0 > midpoint) / n
        assert est.beta_hat == np.count_nonzero(t_h1 <= midpoint) / n


class TestPsiEstimates:
    def test_two_stage_matches_oracle(self):
        em = make_two_stage_normal(1, 1, 1.0)
        est = estimate_psi_errors(em, HYP, 10**6, seed=42)
        assert abs(est.alpha_hat - PSI_EXACT) < 0.0012
        assert abs(est.beta_hat - PSI_EXACT) < 0.0012

    def test_variance_expansion_collapses_to_phi(self):
        em = make_normal_variance_expansion(4)
        psi_est = estimate_psi_errors(em, HYP, 10**5, seed=5)
        phi_est = estimate_phi_errors(em.marginal, HYP, 10**5, seed=6)
        cushion = (
            psi_est.half_width_alpha
            + phi_est.half_width_alpha
            + psi_est.half_width_beta
            + phi_est.half_width_beta
        )
        assert abs(psi_est.error_sum - phi_est.error_sum) < cushion

    def test_half_widths_shrink_with_replicates(self):
        em = make_two_stage_normal(1, 1, 1.0)
        small = estimate_psi_errors(em, HYP, 100, seed=9)
        large = estimate_psi_errors(em, HYP, 10**6, seed=9)
        assert small.half_width_alpha >= large.half_width_alpha
        assert small.half_width_beta >= large.half_width_beta

    def test_error_sum_reduction_is_visible(self):
        # Joint-test error sum drops below the t1-only error sum, and each
        # respects its own affinity bound.
        em = make_two_stage_normal(1, 1, 1.0)
        psi_est = estimate_psi_errors(em, HYP, 10**5, seed=8)
        phi_est = estimate_phi_errors(em.marginal, HYP, 10**5, seed=8)
        assert abs(phi_est.error_sum - 2 * PHI_EXACT) < 0.01
        assert abs(psi_est.error_sum - 2 * PSI_EXACT) < 0.01
        assert psi_est.error_sum < phi_est.error_sum
        assert check_bound(phi_est, marginal_bound(em.marginal, HYP).value).satisfied
        assert check_bound(psi_est, expanded_bound(em, HYP).value).satisfied


def _full_length_reference(estimator, model, hyp, n, seed):
    """(alpha_hat, beta_hat) from one full-length draw per stream, decided by `kraft.decide`.

    Streams are seeded as the estimators document: keys 0, 1, ... in draw
    order, t1 before t2, the theta0 draws first.
    """
    keys = itertools.count()

    def rng():
        return make_rng(derive_seed(seed, next(keys)))

    rejects = []
    for theta in (hyp.theta0, hyp.theta1):
        if estimator is estimate_phi_errors:
            t = model.density_at(theta).sample(n, rng())
            l1, l0 = (model.density_at(th).logpdf(t) for th in (hyp.theta1, hyp.theta0))
        else:
            t1 = model.marginal.density_at(theta).sample(n, rng())
            t2 = model.conditional.density_at(t1, theta).sample(n, rng())
            l1, l0 = (joint_logpdf(model, t1, t2, th) for th in (hyp.theta1, hyp.theta0))
        rejects.append(decide(l1, l0)[0])
    return float(np.mean(rejects[0])), float(np.mean(~rejects[1]))


class TestBlocks:
    @pytest.mark.parametrize(
        "estimator, model, hyp",
        [
            (estimate_phi_errors, NORMAL, HYP),
            (estimate_phi_errors, make_exponential_rate(), SimpleHypotheses(1.0, 2.0)),
            (estimate_psi_errors, make_two_stage_normal(1, 1, 1.0), HYP),
            (estimate_psi_errors, make_normal_variance_expansion(2), HYP),
            # No closed form: a normal scale family, and a closed-form
            # marginal pair beside a conditional pair without one.
            (
                estimate_phi_errors,
                MarginalFamily(lambda theta: normal_density(0.0, theta)),
                SimpleHypotheses(1.0, 1.5),
            ),
            (
                estimate_psi_errors,
                ExpandedModel(
                    NORMAL, ConditionalFamily(lambda t1, theta: gamma_density(2.0, 1.0 + theta))
                ),
                SimpleHypotheses(0.0, 0.5),
            ),
        ],
        ids=["phi-normal", "phi-exponential", "psi-two-stage", "psi-variance-2",
             "phi-normal-scale", "psi-mixed"],
    )
    # One block or fewer runs both arms on the caller's thread; the rest
    # run the theta1 arm on a worker and cross block boundaries in both arms.
    @pytest.mark.parametrize(
        "replicates",
        [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 6 * _CHUNK + 7],
    )
    def test_blocked_estimate_equals_full_length_draw(self, estimator, model, hyp, replicates):
        est = estimator(model, hyp, replicates, seed=23)
        alpha, beta = _full_length_reference(estimator, model, hyp, replicates, 23)
        assert est.alpha_hat == alpha
        assert est.beta_hat == beta

    def test_peak_memory_is_below_one_full_length_array(self):
        # A 10^6-replicate call used to hold every draw and log density at
        # full length (a traced peak of about 70 MiB); blocks keep it below
        # the size of a single 10^6-element float64 array.
        em = make_normal_variance_expansion(2)
        tracemalloc.start()
        try:
            estimate_psi_errors(em, HYP, 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6 * np.dtype(np.float64).itemsize


class _ArmError(RuntimeError):
    pass


def _recording_family(fail_theta=None):
    """N(theta, 1) family whose sampler records the thread of each draw, by theta.

    With ``fail_theta`` set, that arm raises `_ArmError` on its first draw
    and the other arm's draws wait until it has raised.
    """
    threads = {HYP.theta0: [], HYP.theta1: []}
    raised = threading.Event()

    def density_at(theta):
        base = normal_density(theta, 1.0)

        def sample(n, rng):
            threads[theta].append(threading.current_thread())
            if theta == fail_theta:
                raised.set()
                raise _ArmError(theta)
            if fail_theta is not None:
                assert raised.wait(timeout=30)
            return base.sample(n, rng)

        return replace(base, sample=sample)

    return MarginalFamily(density_at), threads


class TestArms:
    def test_one_block_runs_both_arms_on_the_callers_thread(self):
        family, threads = _recording_family()
        estimate_phi_errors(family, HYP, _CHUNK, seed=5)
        me = threading.current_thread()
        assert threads == {HYP.theta0: [me], HYP.theta1: [me]}

    def test_theta1_arm_runs_on_a_worker_past_one_block(self):
        family, threads = _recording_family()
        estimate_phi_errors(family, HYP, _CHUNK + 1, seed=5)
        me = threading.current_thread()
        assert threads[HYP.theta0] == [me, me]
        worker = threads[HYP.theta1][0]
        assert worker is not me
        assert threads[HYP.theta1] == [worker, worker]
        assert not worker.is_alive()

    @pytest.mark.parametrize("fail_theta", [HYP.theta0, HYP.theta1], ids=["theta0", "theta1"])
    def test_failing_arm_reaches_caller_and_stops_the_other(self, fail_theta):
        family, threads = _recording_family(fail_theta)
        blocks = 16
        before = threading.active_count()
        with pytest.raises(_ArmError) as info:
            estimate_phi_errors(family, HYP, blocks * _CHUNK, seed=5)
        assert info.value.args == (fail_theta,)
        assert threading.active_count() == before
        other = HYP.theta1 if fail_theta == HYP.theta0 else HYP.theta0
        assert len(threads[fail_theta]) == 1
        assert len(threads[other]) < blocks

    def test_concurrent_calls_match_sequential(self):
        # Every multi-block call starts its own worker and gives each arm its
        # own buffer (psi) or none (phi).  The barrier starts a phi and a psi
        # caller together, and a short switch interval interleaves the four
        # arms within the calls; each must still get its sequential bits.
        calls = {
            "phi": (estimate_phi_errors, make_exponential_rate(), SimpleHypotheses(1.0, 2.0)),
            "psi": (estimate_psi_errors, make_two_stage_normal(1, 1, 1.0), HYP),
        }
        sizes = (_CHUNK + 1, 3 * _CHUNK + 7)
        want = {
            kind: [repr(estimate(model, hyp, n, seed=31)) for n in sizes]
            for kind, (estimate, model, hyp) in calls.items()
        }
        barrier = threading.Barrier(len(calls), timeout=60)

        def repeat(kind):
            estimate, model, hyp = calls[kind]
            out = []
            for _ in range(4):
                barrier.wait()
                out.append([repr(estimate(model, hyp, n, seed=31)) for n in sizes])
            return out

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(calls)) as pool:
                runs = {kind: pool.submit(repeat, kind) for kind in calls}
                got = {kind: run.result() for kind, run in runs.items()}
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        for kind, results in got.items():
            assert results == [want[kind]] * 4


def _drawing(density, value, keep_law):
    """The density, whose sampler draws only ``value``; its law is declared when ``keep_law``."""
    return replace(
        density, sample=lambda n, rng: np.full(n, value), law=density.law if keep_law else None
    )


# A draw outside both hypotheses' supports raises, whether its pair's log
# ratio is a closed form of the declared laws or the difference of the two
# log densities (the "decide" id: `decide`'s check).  The variance model's
# conditional ratio is identically 0, yet a t2 of 0 has zero gamma density.
# A NaN draw raises too, for the normal as for the other laws.
@pytest.mark.parametrize("keep_law", [True, False], ids=["closed-form", "decide"])
class TestDrawOutsideBothSupports:
    def test_psi_conditional_draw(self, keep_law):
        em = make_normal_variance_expansion(4)
        conditional = ConditionalFamily(
            lambda t1, theta: _drawing(em.conditional.density_at(t1, theta), 0.0, keep_law)
        )
        with pytest.raises(ValueError, match="zero density under both"):
            estimate_psi_errors(ExpandedModel(em.marginal, conditional), HYP, 1000, seed=1)

    @pytest.mark.parametrize("value", [-1.0, math.inf])
    def test_phi_draw(self, keep_law, value):
        family = MarginalFamily(
            lambda theta: _drawing(make_exponential_rate().density_at(theta), value, keep_law)
        )
        with pytest.raises(ValueError, match="zero density under both"):
            estimate_phi_errors(family, SimpleHypotheses(1.0, 2.0), 1000, seed=1)

    @pytest.mark.parametrize("draws_nan", ["phi", "psi-marginal", "psi-conditional"])
    def test_normal_nan_draw(self, keep_law, draws_nan):
        em = make_two_stage_normal(1, 1, 1.0)
        marginal = MarginalFamily(
            lambda theta: _drawing(em.marginal.density_at(theta), math.nan, keep_law)
        )
        conditional = ConditionalFamily(
            lambda t1, theta: _drawing(em.conditional.density_at(t1, theta), math.nan, keep_law)
        )
        with pytest.raises(ValueError, match="NaN or has zero density under both"):
            if draws_nan == "phi":
                estimate_phi_errors(marginal, HYP, 1000, seed=1)
            elif draws_nan == "psi-marginal":
                estimate_psi_errors(ExpandedModel(marginal, em.conditional), HYP, 1000, seed=1)
            else:
                estimate_psi_errors(ExpandedModel(em.marginal, conditional), HYP, 1000, seed=1)


class TestCheckBound:
    def test_slack_against_oracles(self):
        est = ErrorProbEstimate(0.3085, 0.3085, 10**6, 0, 0.00119, 0.00119)
        chk = check_bound(est, 0.8824969025845955)
        assert chk.satisfied
        assert chk.slack == pytest.approx(0.2655, abs=1e-3)

    def test_psi_oracle_slack(self):
        est = ErrorProbEstimate(0.2398, 0.2398, 10**6, 0, 0.0011, 0.0011)
        chk = check_bound(est, 0.7788007830714049)
        assert chk.satisfied
        assert chk.slack == pytest.approx(0.2992, abs=1e-3)

    def test_violation_detected(self):
        est = ErrorProbEstimate(0.6, 0.5, 1000, 0, 0.01, 0.01)
        assert not check_bound(est, 1.0).satisfied

    def test_bound_range_validated(self):
        est = ErrorProbEstimate(0.1, 0.1, 1000, 0, 0.01, 0.01)
        with pytest.raises(ValueError):
            check_bound(est, 1.5)


class TestSweep:
    def test_rows_have_positive_slack(self):
        table = sweep(NORMAL, 0.0, [0.5, 1.0, 2.0], 10**4, seed=99)
        assert table.kind == "phi"
        assert len(table.checks) == 3
        for chk in table.checks:
            assert chk.slack > 0
            assert chk.satisfied

    def test_singleton_reproduces_single_estimate(self):
        table = sweep(NORMAL, 0.0, [1.0], 10**4, seed=123)
        est = estimate_phi_errors(NORMAL, HYP, 10**4, seed=row_seed(123, 1.0))
        assert table.checks == (check_bound(est, marginal_bound(NORMAL, HYP).value),)

    def test_reordering_permutes_rows_only(self):
        fwd_thetas, rev_thetas = [0.5, 1.0, 2.0], [2.0, 1.0, 0.5]
        fwd = sweep(NORMAL, 0.0, fwd_thetas, 5000, seed=7)
        rev = sweep(NORMAL, 0.0, rev_thetas, 5000, seed=7)
        assert dict(zip(fwd_thetas, fwd.checks)) == dict(zip(rev_thetas, rev.checks))

    def test_psi_sweep(self):
        em = make_two_stage_normal(1, 1, 1.0)
        table = sweep(em, 0.0, [1.0, 2.0], 10**4, seed=4)
        assert table.kind == "psi"
        for chk in table.checks:
            assert chk.satisfied

    def test_exponential_rows_respect_bound(self):
        fam = make_exponential_rate()
        table = sweep(fam, 1.0, [1.5, 2.0, 4.0], 10**4, seed=21)
        for chk in table.checks:
            assert chk.satisfied

    def test_bound_failure_comes_before_any_draw(self, monkeypatch):
        def estimate(*args):
            raise AssertionError("drew before every bound was computed")

        monkeypatch.setattr(montecarlo, "estimate_phi_errors", estimate)
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=240)
        with pytest.raises(QuadratureBudgetError):
            sweep(NORMAL, 0.0, [0.5, 1.0], 10**4, seed=0, cfg=cfg)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sweep(NORMAL, 0.0, [], 1000, seed=0)
        with pytest.raises(ValueError):
            sweep("normal", 0.0, [1.0], 1000, seed=0)
