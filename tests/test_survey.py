"""Survey-augmentation pipeline: pairing, proxy quality, estimators, recovery."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    load_population_spec,
)
from pxkit import survey
from pxkit.survey import REPORT_DTYPE

TWO_STRATA = PopulationSpec(
    strata=(Stratum("A", 100, 0.0, 1.0), Stratum("B", 100, 10.0, 1.0)),
    attribute_prob=(0.9, 0.1),
    seed=7,
)
PERFECT = AccuracyModel(p_accurate=1.0, noise_sd=0.0)
NO_REPORTS = np.empty(0, dtype=REPORT_DTYPE)


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
            for k, label in enumerate(counts):
                in_stratum = pop.units["stratum"] == k
                counts[label].append(np.count_nonzero(in_stratum & pop.units["has_attribute"]))
        assert np.mean(counts["A"]) == pytest.approx(90, abs=2)
        assert np.mean(counts["B"]) == pytest.approx(10, abs=2)

    def test_pairing_is_one_to_one_within_stratum(self):
        units = generate_population(TWO_STRATA).units
        paired = np.flatnonzero(units["associate"] >= 0)
        targets = units["associate"][paired]
        assert len(paired)
        assert np.all(units["associate"][units["associate"] < 0] == -1)
        assert np.all(units["has_attribute"][paired])
        assert np.array_equal(units["stratum"][targets], units["stratum"][paired])
        assert not np.any(units["has_attribute"][targets])
        assert len(np.unique(targets)) == len(targets)

    def test_shortfall_reported_not_fatal(self):
        spec = PopulationSpec((Stratum("A", 20, 0.0, 1.0),), (0.95,), seed=3)
        pop = generate_population(spec)
        holders = np.count_nonzero(pop.units["has_attribute"])
        expected = max(0, holders - (20 - holders))
        assert pop.pairing_shortfall["A"] == expected

    def test_no_attribute_means_no_respondents(self):
        spec = replace(TWO_STRATA, attribute_prob=(0.0, 0.0))
        pop = generate_population(spec)
        assert not np.any(pop.units["has_attribute"])
        with pytest.raises(ValueError):
            estimate_mean(pop, NO_REPORTS, "naive_attribute_only")
        with pytest.raises(ValueError):
            estimate_mean(pop, NO_REPORTS, "augmented")

    def test_determinism(self):
        a, b = generate_population(TWO_STRATA), generate_population(TWO_STRATA)
        assert np.array_equal(a.units, b.units)


class TestProxyResponses:
    def test_perfect_information(self):
        pop = generate_population(TWO_STRATA)
        responses = collect_proxy_responses(pop, PERFECT, seed=1)
        assert len(responses)
        assert np.array_equal(responses["reported_value"], pop.units["value"][responses["target"]])
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
            errs.extend(np.abs(r["reported_value"] - pop.units["value"][r["target"]]))
        assert np.mean(errs) == pytest.approx(math.sqrt(2 / math.pi), abs=0.02)

    def test_unpaired_respondents_emit_nothing(self):
        pop = generate_population(TWO_STRATA)
        paired = np.flatnonzero(pop.units["has_attribute"] & (pop.units["associate"] >= 0))
        responses = collect_proxy_responses(pop, PERFECT, seed=2)
        assert np.array_equal(responses["respondent"], paired)
        assert np.array_equal(responses["target"], pop.units["associate"][paired])

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


class TestEstimators:
    def test_srs_census_is_exact(self):
        pop = generate_population(TWO_STRATA)
        report = estimate_mean(pop, NO_REPORTS, "srs_oracle", srs_size=len(pop.units), seed=3)
        assert report.estimate == pytest.approx(pop.true_mean, abs=1e-12)
        assert report.error == pytest.approx(0.0, abs=1e-12)

    def test_unknown_scheme(self):
        pop = generate_population(TWO_STRATA)
        with pytest.raises(ValueError):
            estimate_mean(pop, NO_REPORTS, "bootstrap")

    def test_error_field_consistency(self):
        pop = generate_population(TWO_STRATA)
        responses = collect_proxy_responses(pop, PERFECT, seed=4)
        for scheme in ("naive_attribute_only", "augmented"):
            r = estimate_mean(pop, responses, scheme)
            assert r.error == r.estimate - r.true_population_mean

    def test_two_strata_bias_pattern(self):
        # Mostly-stratum-A respondents drag the naive mean toward 0 while
        # post-stratified augmentation stays centered on the true mean 5.
        naive, aug = [], []
        for rep in range(300):
            pop = generate_population(replace(TWO_STRATA, seed=derive_seed(5, rep)))
            responses = collect_proxy_responses(pop, PERFECT, seed=derive_seed(6, rep))
            naive.append(estimate_mean(pop, responses, "naive_attribute_only").error)
            aug.append(estimate_mean(pop, responses, "augmented").error)
        assert np.mean(naive) == pytest.approx(-4.0, abs=0.15)
        aug_se = np.std(aug, ddof=1) / math.sqrt(len(aug))
        assert abs(np.mean(aug)) < 2 * aug_se + 1e-9


class TestCompareSchemes:
    def test_determinism(self):
        a = compare_schemes(TWO_STRATA, PERFECT, 1.0, 50, seed=1)
        b = compare_schemes(TWO_STRATA, PERFECT, 1.0, 50, seed=1)
        assert a.mean_error == b.mean_error
        assert a.rmse == b.rmse

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
            strata_with_data = set(pop.units["stratum"][pop.units["has_attribute"]])
            strata_with_data |= set(pop.units["stratum"][responses["target"]])
            covered += strata_with_data == {0, 1}
        assert covered / reps >= 0.99

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            compare_schemes(TWO_STRATA, PERFECT, 1.0, 5, seed=0)

    def test_no_possible_respondent_rejected_before_replicating(self, monkeypatch):
        spec = replace(TWO_STRATA, attribute_prob=(0.0, 0.0))
        monkeypatch.setattr(survey, "generate_population", lambda spec: pytest.fail("replicated"))
        with pytest.raises(ValueError, match="attribute probability"):
            compare_schemes(spec, PERFECT, 1.0, 10, seed=0)


def test_population_spec_config_roundtrip(tmp_path):
    path = tmp_path / "pop.ini"
    path.write_text(
        "[population]\nseed = 7\nstrata =\n    A, 100, 0.0, 1.0, 0.9\n    B, 100, 10.0, 1.0, 0.1\n",
        encoding="utf-8",
    )
    spec = load_population_spec(path)
    assert spec == TWO_STRATA


def test_population_spec_config_errors(tmp_path):
    path = tmp_path / "pop.ini"
    path.write_text("[population]\nseed = 7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="strata"):
        load_population_spec(path)
    path.write_text("[population]\nstrata =\n    A, 100, 0.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="stratum line"):
        load_population_spec(path)
    path.write_text("[population]\nbogus = 1\nstrata =\n    A, 10, 0, 1, 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bogus"):
        load_population_spec(path)


@pytest.mark.parametrize(
    "content", [b"kind = x\n", b"[population]\n# caf\xe9\n"], ids=["no_header", "not_utf8"]
)
def test_unparsable_population_file_is_value_error_naming_it(tmp_path, content):
    path = tmp_path / "pop.ini"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="pop.ini"):
        load_population_spec(path)
