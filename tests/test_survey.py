"""Survey-augmentation pipeline: pairing, proxy quality, estimators, recovery."""

import math
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pxkit import (
    AccuracyModel,
    PopulationSpec,
    Stratum,
    collect_proxy_responses,
    compare_schemes,
    derive_seed,
    estimate_mean,
    filter_most_accurate,
    generate_population,
)
from pxkit import survey
from pxkit.cli import ExperimentConfig, apply_config_file
from pxkit.survey import REPORT_DTYPE

TWO_STRATA = PopulationSpec(
    strata=(Stratum("A", 100, 0.0, 1.0), Stratum("B", 100, 10.0, 1.0)),
    attribute_prob=(0.9, 0.1),
    seed=7,
)
PERFECT = AccuracyModel(p_accurate=1.0, noise_sd=0.0)
NO_REPORTS = np.empty(0, dtype=REPORT_DTYPE)


def stratum_of(pop, units):
    """Stratum index of each unit, read off the population's stratum bounds."""
    return np.searchsorted(pop.edges, units, side="right") - 1


class TestSpecValidation:
    def test_rejects_mismatched_probabilities(self):
        with pytest.raises(ValueError):
            PopulationSpec((Stratum("A", 10, 0, 1),), (0.5, 0.5), seed=0)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            PopulationSpec((Stratum("A", 10, 0, 1),), (1.5,), seed=0)

    def test_rejects_bad_stratum(self):
        with pytest.raises(ValueError):
            Stratum("A", 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Stratum("A", 10, 0.0, -1.0)

    @pytest.mark.parametrize(
        "mean, sd, field",
        [(math.nan, 1.0, "value_mean"), (math.inf, 1.0, "value_mean"),
         (0.0, math.nan, "value_sd"), (0.0, math.inf, "value_sd")],
    )
    def test_rejects_non_finite_stratum(self, mean, sd, field):
        with pytest.raises(ValueError, match=field):
            Stratum("A", 10, mean, sd)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            PopulationSpec(
                (Stratum("A", 10, 0, 1), Stratum("A", 10, 0, 1)), (0.5, 0.5), seed=0
            )


class TestGeneratePopulation:
    def test_respondent_counts_track_attribute_probabilities(self):
        counts = {"A": [], "B": []}
        for s in range(50):
            pop = generate_population(replace(TWO_STRATA, seed=s))
            holders = stratum_of(pop, pop.respondents)
            for k, label in enumerate(counts):
                counts[label].append(np.count_nonzero(holders == k))
        assert np.mean(counts["A"]) == pytest.approx(90, abs=2)
        assert np.mean(counts["B"]) == pytest.approx(10, abs=2)

    def test_pairing_is_one_to_one_within_stratum(self):
        pop = generate_population(TWO_STRATA)
        paired, targets = pop.pair_respondents, pop.pair_targets
        assert len(paired)
        assert len(np.unique(paired)) == len(paired) == len(targets)
        assert np.all((0 <= targets) & (targets < len(pop.value)))
        assert np.all(np.isin(paired, pop.respondents))
        assert np.array_equal(stratum_of(pop, targets), stratum_of(pop, paired))
        assert not np.any(np.isin(targets, pop.respondents))
        assert len(np.unique(targets)) == len(targets)

    def test_shortfall_reported_not_fatal(self):
        spec = PopulationSpec((Stratum("A", 20, 0.0, 1.0),), (0.95,), seed=3)
        pop = generate_population(spec)
        holders = len(pop.respondents)
        expected = max(0, holders - (20 - holders))
        assert pop.pairing_shortfall["A"] == expected

    def test_no_attribute_means_no_respondents(self):
        spec = replace(TWO_STRATA, attribute_prob=(0.0, 0.0))
        pop = generate_population(spec)
        assert not len(pop.respondents)
        with pytest.raises(ValueError):
            estimate_mean(pop, NO_REPORTS, "naive_attribute_only")
        with pytest.raises(ValueError):
            estimate_mean(pop, NO_REPORTS, "augmented")

    def test_determinism(self):
        a, b = generate_population(TWO_STRATA), generate_population(TWO_STRATA)
        for name in ("value", "edges", "respondents", "pair_respondents", "pair_targets"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.pairing_shortfall == b.pairing_shortfall

    def test_columns_and_record_view_are_read_only(self):
        pop = generate_population(TWO_STRATA)
        columns = (pop.value, pop.edges, pop.respondents, pop.pair_respondents, pop.pair_targets)
        assert not any(column.flags.writeable for column in columns)
        assert not pop.units.flags.writeable
        assert pop.units is pop.units
        assert np.array_equal(pop.edges, [0, 100, 200])


class TestProxyResponses:
    def test_perfect_information(self):
        pop = generate_population(TWO_STRATA)
        responses = collect_proxy_responses(pop, PERFECT, seed=1)
        assert len(responses)
        assert np.array_equal(responses["reported_value"], pop.value[responses["target"]])
        assert np.all(responses["accuracy_score"] == 1.0)

    def test_fully_noisy_reports_match_folded_normal_mean(self):
        # E|N(0,1)| = sqrt(2/pi) =~ 0.7979.
        spec = PopulationSpec(
            strata=(Stratum("A", 200, 0.0, 1.0),), attribute_prob=(0.5,), seed=0
        )
        acc = AccuracyModel(p_accurate=0.0, noise_sd=1.0)
        errs = []
        for s in range(60):
            pop = generate_population(replace(spec, seed=s))
            r = collect_proxy_responses(pop, acc, seed=1000 + s)
            errs.extend(np.abs(r["reported_value"] - pop.value[r["target"]]))
        assert np.mean(errs) == pytest.approx(math.sqrt(2 / math.pi), abs=0.02)

    def test_unpaired_respondents_emit_nothing(self):
        pop = generate_population(TWO_STRATA)
        responses = collect_proxy_responses(pop, PERFECT, seed=2)
        assert np.array_equal(responses["respondent"], pop.pair_respondents)
        assert np.array_equal(responses["target"], pop.pair_targets)

    def test_determinism(self):
        pop = generate_population(TWO_STRATA)
        acc = AccuracyModel(0.5, 2.0)
        a, b = collect_proxy_responses(pop, acc, 9), collect_proxy_responses(pop, acc, 9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("noise_sd", [math.nan, math.inf])
    def test_accuracy_model_rejects_non_finite_noise(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd"):
            AccuracyModel(0.5, noise_sd)

    def test_accuracy_model_validation(self):
        with pytest.raises(ValueError):
            AccuracyModel(1.2, 0.0)
        with pytest.raises(ValueError):
            AccuracyModel(0.5, -1.0)


def _resp(scores):
    return np.array([(i, 100 + i, 0.0, s) for i, s in enumerate(scores)], dtype=REPORT_DTYPE)


class TestFilter:
    def test_quantile_one_keeps_all(self):
        rs = _resp([0.9, 0.1, 0.5])
        assert np.array_equal(filter_most_accurate(rs, 1.0), rs)

    def test_equal_scores_all_kept(self):
        rs = _resp([0.7] * 5)
        assert np.array_equal(filter_most_accurate(rs, 0.2), rs)

    def test_half_quantile_cut(self):
        rs = _resp([1.0, 1.0, 0.2, 0.1])
        kept = filter_most_accurate(rs, 0.5)
        assert np.array_equal(kept, rs[:2])

    def test_stable_order(self):
        rs = _resp([0.5, 0.9, 0.5, 0.9])
        kept = filter_most_accurate(rs, 0.5)
        assert np.array_equal(kept["respondent"], [1, 3])

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            filter_most_accurate(NO_REPORTS, 0.5)
        with pytest.raises(ValueError):
            filter_most_accurate(_resp([1.0]), 0.0)


# Exact reports score 1 and noisy ones exp(-|z|), as collect_proxy_responses scores them.
_ACCURACY_SCORES = st.lists(
    st.one_of(st.just(1.0), st.floats(-40.0, 40.0).map(lambda z: float(np.exp(-abs(z))))),
    min_size=1,
    max_size=500,
)
_TIED_SCORES = st.lists(st.floats(0.0, 1.0).map(lambda x: round(x, 1)), min_size=1, max_size=500)
_EQUAL_SCORES = st.builds(lambda x, n: [x] * n, st.floats(0.0, 1.0), st.integers(1, 500))
_QUANTILES = st.one_of(
    st.sampled_from([1.0, 0.5, 1.0 - 2.0**-52]),
    st.floats(2.0**-1074, 1e-3),
    st.floats(0.0, 1.0, exclude_min=True),
)


# The cut interpolates from a when its fractional index t < 0.5 (first
# example: t = 0 at quantile 1, second: t = 3 * 2**-52), from b when t >= 0.5
# (third: t = 0.5, fourth: t = 0.75) and is the maximum at index n - 1 (last two).
@given(scores=st.one_of(_ACCURACY_SCORES, _TIED_SCORES, _EQUAL_SCORES), quantile=_QUANTILES)
@example(scores=[0.4, 0.1, 0.3, 0.2], quantile=1.0)
@example(scores=[0.4, 0.1, 0.3, 0.2], quantile=1.0 - 2.0**-52)
@example(scores=[0.4, 0.1, 0.3, 0.2], quantile=0.5)
@example(scores=[0.4, 0.1, 0.3, 0.2, 1.0], quantile=0.8125)
@example(scores=[0.4, 0.1, 0.3, 0.2], quantile=1e-300)
@example(scores=[0.3], quantile=0.5)
def test_cut_is_numpys_linear_quantile(scores, quantile):
    rs = _resp(scores)
    reference = float(np.quantile(rs["accuracy_score"], 1.0 - quantile))
    assert survey._linear_quantile(rs["accuracy_score"], 1.0 - quantile) == reference
    assert np.array_equal(filter_most_accurate(rs, quantile), rs[rs["accuracy_score"] >= reference])


class TestEstimators:
    def test_srs_census_is_exact(self):
        pop = generate_population(TWO_STRATA)
        est = estimate_mean(pop, NO_REPORTS, "srs_oracle", srs_size=len(pop.value), seed=3)
        assert est == pytest.approx(pop.true_mean, abs=1e-12)

    @pytest.mark.parametrize("target", [-1, 200])
    def test_report_on_a_unit_outside_the_population_rejected(self, target):
        pop = generate_population(TWO_STRATA)
        reports = _resp([1.0])
        reports["target"] = target
        with pytest.raises(ValueError, match="outside the population"):
            estimate_mean(pop, reports, "augmented")

    def test_unknown_scheme(self):
        pop = generate_population(TWO_STRATA)
        with pytest.raises(ValueError):
            estimate_mean(pop, NO_REPORTS, "bootstrap")

    def test_two_strata_bias_pattern(self):
        # Mostly-stratum-A respondents drag the naive mean toward 0 while
        # post-stratified augmentation stays centered on the true mean 5.
        naive, aug = [], []
        for rep in range(300):
            pop = generate_population(replace(TWO_STRATA, seed=derive_seed(5, rep)))
            responses = collect_proxy_responses(pop, PERFECT, seed=derive_seed(6, rep))
            naive.append(estimate_mean(pop, responses, "naive_attribute_only") - pop.true_mean)
            aug.append(estimate_mean(pop, responses, "augmented") - pop.true_mean)
        assert np.mean(naive) == pytest.approx(-4.0, abs=0.15)
        aug_se = np.std(aug, ddof=1) / math.sqrt(len(aug))
        assert abs(np.mean(aug)) < 2 * aug_se + 1e-9


class TestCompareSchemes:
    def test_determinism(self):
        a = compare_schemes(TWO_STRATA, PERFECT, 1.0, 50, seed=1)
        b = compare_schemes(TWO_STRATA, PERFECT, 1.0, 50, seed=1)
        assert a.mean_error == b.mean_error
        assert a.rmse == b.rmse

    def test_integral_float_stratum_size_is_the_integer(self):
        as_float = PopulationSpec(
            strata=(Stratum("A", 10.0, 0.0, 1.0), Stratum("B", 20.0, 10.0, 1.0)),
            attribute_prob=(0.9, 0.1),
            seed=7,
        )
        as_int = PopulationSpec(
            strata=(Stratum("A", 10, 0.0, 1.0), Stratum("B", 20, 10.0, 1.0)),
            attribute_prob=(0.9, 0.1),
            seed=7,
        )
        assert [type(s.size) for s in as_float.strata] == [int, int]
        a = compare_schemes(as_float, PERFECT, 1.0, 10, seed=1)
        b = compare_schemes(as_int, PERFECT, 1.0, 10, seed=1)
        for scheme in a.errors:
            np.testing.assert_array_equal(a.errors[scheme], b.errors[scheme])

    def test_accuracy_assumption_is_necessary(self):
        clean = compare_schemes(TWO_STRATA, PERFECT, 1.0, 100, seed=2)
        noisy = compare_schemes(TWO_STRATA, AccuracyModel(0.0, 100.0), 1.0, 100, seed=2)
        assert noisy.rmse["augmented"] > 10 * clean.rmse["augmented"]

    def test_no_confounding_leaves_both_unbiased(self):
        spec = PopulationSpec(
            strata=(Stratum("A", 100, 1.0, 1.0), Stratum("B", 100, 1.0, 1.0)),
            attribute_prob=(0.5, 0.5),
            seed=0,
        )
        comp = compare_schemes(spec, PERFECT, 1.0, 200, seed=3)
        for scheme in ("naive_attribute_only", "augmented"):
            assert abs(comp.mean_error[scheme]) < 2 * comp.stderr_mean[scheme] + 1e-9

    def test_stratum_coverage(self):
        # With positive attribute probability everywhere, the augmented data
        # should cover every stratum in at least 99% of replications.
        covered = 0
        reps = 200
        for rep in range(reps):
            pop = generate_population(replace(TWO_STRATA, seed=derive_seed(8, rep)))
            responses = collect_proxy_responses(pop, PERFECT, seed=derive_seed(9, rep))
            strata_with_data = set(stratum_of(pop, pop.respondents).tolist())
            strata_with_data |= set(stratum_of(pop, responses["target"]).tolist())
            covered += strata_with_data == {0, 1}
        assert covered / reps >= 0.99

    def test_three_derived_seeds_per_replication(self, monkeypatch):
        calls = []

        def counting(*key):
            calls.append(key)
            return derive_seed(*key)

        monkeypatch.setattr(survey, "derive_seed", counting)
        compare_schemes(TWO_STRATA, PERFECT, 1.0, 12, seed=4)
        assert sorted(calls) == [(4, rep, key) for rep in range(12) for key in range(3)]

    def test_large_finite_errors_give_finite_summaries(self):
        # Stratum A's values reach about 1e300, so squared errors overflow a double.
        spec = replace(TWO_STRATA, strata=(Stratum("A", 100, 0.0, 1e300), TWO_STRATA.strata[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp = compare_schemes(spec, PERFECT, 1.0, 10, seed=1)
        for scheme, errors in comp.errors.items():
            assert np.isfinite(errors).all()
            scale = np.max(np.abs(errors))
            n = len(errors)
            rms = float(np.hypot.reduce(errors)) / math.sqrt(n)
            stderr = statistics.stdev(errors / scale) * float(scale) / math.sqrt(n)
            assert comp.rmse[scheme] == pytest.approx(rms, rel=1e-12)
            assert comp.stderr_mean[scheme] == pytest.approx(stderr, rel=1e-12)
            assert comp.mean_error[scheme] == pytest.approx(statistics.fmean(errors), rel=1e-12)

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            compare_schemes(TWO_STRATA, PERFECT, 1.0, 5, seed=0)

    @pytest.mark.parametrize(
        "call, count",
        [
            (lambda: survey.check_replications(10.9), "replications"),
            (lambda: survey.check_replications(math.inf), "replications"),
            (lambda: survey.check_srs_size(3.5, 10), "srs_size"),
            (lambda: compare_schemes(TWO_STRATA, PERFECT, 1.0, 10.9, seed=0), "replications"),
            (lambda: compare_schemes(TWO_STRATA, PERFECT, 1.0, 10, 0, srs_size=3.5), "srs_size"),
        ],
        ids=["replications", "inf_replications", "srs_size", "compare_replications",
             "compare_srs_size"],
    )
    def test_non_integral_counts_rejected(self, call, count, monkeypatch):
        monkeypatch.setattr(survey, "generate_population", lambda spec: pytest.fail("replicated"))
        with pytest.raises(ValueError, match=f"{count} must be an integer"):
            call()

    def test_no_possible_respondent_rejected_before_replicating(self, monkeypatch):
        spec = replace(TWO_STRATA, attribute_prob=(0.0, 0.0))
        monkeypatch.setattr(survey, "generate_population", lambda spec: pytest.fail("replicated"))
        with pytest.raises(ValueError, match="attribute probability"):
            compare_schemes(spec, PERFECT, 1.0, 10, seed=0)



# Two unequal strata for the exact oracles: 1,000 units, 50 drawn by srs_oracle.
ORACLE_SPEC = PopulationSpec(
    strata=(Stratum("A", 400, 0.0, 1.0), Stratum("B", 600, 5.0, 2.0)),
    attribute_prob=(0.3, 0.6),
    seed=0,
)
ORACLE_SRS_SIZE = 50
ORACLE_REPLICATIONS = 2000


# Seeds 1, 2 and 3 give srs_oracle ratios 0.983, 1.017 and 0.954 (-0.5, +0.6
# and -1.5 SE).
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_naive_and_srs_errors_match_their_exact_oracles(seed):
    """Each replication's naive error is its respondents' mean less its population
    mean, exactly.  A simple random sample of n from N units without replacement
    has E[(sample mean - population mean)^2] = (1 - n/N) S^2 / n, with S^2 the
    population variance at ddof 1 (Cochran, 1977, ch. 2), so mean squared
    srs_oracle error over mean (1 - n/N) S^2 / n is 1 up to sampling noise."""
    comp = compare_schemes(
        ORACLE_SPEC, PERFECT, 1.0, ORACLE_REPLICATIONS, seed, srs_size=ORACLE_SRS_SIZE
    )
    pops = [
        generate_population(replace(ORACLE_SPEC, seed=derive_seed(seed, rep, 0)))
        for rep in range(ORACLE_REPLICATIONS)
    ]
    naive = [survey._mean(p.value[p.respondents]) - survey._mean(p.value) for p in pops]
    assert comp.errors["naive_attribute_only"].tolist() == naive

    n, total = ORACLE_SRS_SIZE, ORACLE_SPEC.total_size
    variance = np.array([(1 - n / total) * np.var(p.value, ddof=1) / n for p in pops])
    squared = comp.errors["srs_oracle"] ** 2
    ratio = squared.mean() / variance.mean()
    # Delta-method standard error of a ratio of two means.
    se = np.std(squared - ratio * variance, ddof=1) / (math.sqrt(len(pops)) * variance.mean())
    assert abs(ratio - 1) < 4 * se, (ratio, se)

def population_from_config(path):
    """The ``[population]`` spec of a config file, read as ``pxkit survey --config`` reads it."""
    return apply_config_file(ExperimentConfig(command="survey"), path).population


def test_population_spec_config_roundtrip(tmp_path):
    path = tmp_path / "pop.ini"
    path.write_text(
        "[population]\nseed = 7\nstrata =\n    A, 100, 0.0, 1.0, 0.9\n    B, 100, 10.0, 1.0, 0.1\n",
        encoding="utf-8",
    )
    spec = population_from_config(path)
    assert spec == TWO_STRATA


def test_population_spec_config_errors(tmp_path):
    path = tmp_path / "pop.ini"
    path.write_text("[population]\nseed = 7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="strata"):
        population_from_config(path)
    path.write_text("[population]\nstrata =\n    A, 100, 0.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="stratum line"):
        population_from_config(path)
    path.write_text("[population]\nbogus = 1\nstrata =\n    A, 10, 0, 1, 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bogus"):
        population_from_config(path)


@pytest.mark.parametrize(
    "content", [b"kind = x\n", b"[population]\n# caf\xe9\n"], ids=["no_header", "not_utf8"]
)
def test_unparsable_population_file_is_value_error_naming_it(tmp_path, content):
    path = tmp_path / "pop.ini"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="pop.ini"):
        population_from_config(path)
