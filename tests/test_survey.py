"""Survey-augmentation pipeline: pairing, proxy quality, estimators, recovery."""

import math
import statistics
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pxkit import AccuracyModel, PopulationSpec, Stratum, compare_schemes, derive_seed
from pxkit import survey
from pxkit.cli import ExperimentConfig, apply_config_file
from pxkit.densities import make_rng, rekey, rng_from_key

TWO_STRATA = PopulationSpec(
    strata=(Stratum("A", 100, 0.0, 1.0), Stratum("B", 100, 10.0, 1.0)),
    attribute_prob=(0.9, 0.1),
    seed=7,
)
PERFECT = AccuracyModel(p_accurate=1.0, noise_sd=0.0)


def draw(spec, *seeds):
    """One population per seed, drawn from ``make_rng(seed)`` as `compare_schemes` draws a replication's."""
    return survey._Draws.draw(spec, [make_rng(s) for s in seeds])


def stratum_of(draws, positions):
    """Stratum index of each flat unit position, read off the stratum bounds."""
    return np.searchsorted(draws.edges, positions % draws.edges[-1], side="right") - 1


def reports(draws, acc, rng):
    """The paired non-holders' positions, and the reported values and scores drawn from ``rng``.

    The draws are those of one replication's report stream: uniforms, then
    the noise when ``noise_sd`` is positive.
    """
    targets = draws.paired(holding=False)
    u = rng.random(len(targets))
    noise = rng.normal(0.0, acc.noise_sd, len(targets)) if acc.noise_sd > 0 else np.zeros(len(targets))
    return (targets, *survey._reports(draws.value.ravel()[targets], u, noise, acc))


def kept(scores, quantile):
    """The mask of the proxy reports `compare_schemes` keeps: a score at or above the cut."""
    scores = np.asarray(scores, dtype=float)
    return scores >= survey._cuts(scores, [len(scores)], 1.0 - quantile)[0]


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
        holders = draw(TWO_STRATA, *range(50)).holders
        assert holders.mean(axis=0) == pytest.approx([90, 10], abs=2)

    def test_pairing_is_one_to_one_within_stratum(self):
        draws = draw(TWO_STRATA, TWO_STRATA.seed)
        paired, targets = draws.paired(holding=True), draws.paired(holding=False)
        assert len(paired)
        assert len(np.unique(paired)) == len(paired) == len(targets)
        assert np.all((0 <= targets) & (targets < TWO_STRATA.total_size))
        assert np.all(np.isin(paired, draws.holding))
        assert np.array_equal(stratum_of(draws, targets), stratum_of(draws, paired))
        assert not np.any(np.isin(targets, draws.holding))
        assert len(np.unique(targets)) == len(targets)

    def test_shortfall_reported_not_fatal(self):
        spec = PopulationSpec((Stratum("A", 20, 0.0, 1.0),), (0.95,), seed=3)
        draws = draw(spec, *(derive_seed(3, rep, 0) for rep in range(10)))
        holders = draws.holders[:, 0]
        expected = np.maximum(0, holders - (20 - holders))
        assert np.array_equal(holders - draws.pairs[:, 0], expected)
        assert expected.all()
        comp = compare_schemes(spec, PERFECT, 1.0, 10, seed=3)
        assert comp.pairing_shortfall == {"A": expected.sum() / 10}

    def test_no_attribute_means_no_respondents(self):
        spec = replace(TWO_STRATA, attribute_prob=(0.0, 0.0))
        draws = draw(spec, spec.seed)
        assert not len(draws.holding)
        assert not draws.pairs.any()
        with pytest.raises(ValueError, match="augmented"):
            survey._augmented(np.empty(0), draws.holders, np.empty(0), draws.pairs, [0.5, 0.5])
        with pytest.raises(ValueError, match="no respondents"):
            compare_schemes(replace(spec, attribute_prob=(1e-300, 0.0)), PERFECT, 1.0, 10, seed=0)

    def test_determinism(self):
        a = draw(TWO_STRATA, TWO_STRATA.seed)
        b = draw(TWO_STRATA, TWO_STRATA.seed)
        assert a.edges == b.edges == [0, 100, 200]
        for name in ("value", "has", "holding", "holders", "pairs"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for holding in (True, False):
            assert np.array_equal(a.paired(holding), b.paired(holding))


class TestProxyResponses:
    def test_perfect_information(self):
        draws = draw(TWO_STRATA, TWO_STRATA.seed)
        targets, reported, score = reports(draws, PERFECT, make_rng(1))
        assert len(targets)
        assert np.array_equal(reported, draws.value.ravel()[targets])
        assert np.all(score == 1.0)

    def test_fully_noisy_reports_match_folded_normal_mean(self):
        # E|N(0,1)| = sqrt(2/pi) =~ 0.7979.
        spec = PopulationSpec(
            strata=(Stratum("A", 200, 0.0, 1.0),), attribute_prob=(0.5,), seed=0
        )
        acc = AccuracyModel(p_accurate=0.0, noise_sd=1.0)
        errs = []
        for s in range(60):
            draws = draw(spec, s)
            targets, reported, _ = reports(draws, acc, make_rng(1000 + s))
            errs.extend(np.abs(reported - draws.value.ravel()[targets]))
        assert np.mean(errs) == pytest.approx(math.sqrt(2 / math.pi), abs=0.02)

    def test_unpaired_respondents_emit_nothing(self):
        # Stratum A has about 90 holders and 10 non-holders: one report per pair.
        draws = draw(TWO_STRATA, TWO_STRATA.seed)
        targets, reported, score = reports(draws, PERFECT, make_rng(2))
        assert len(targets) == len(reported) == len(score) == draws.pairs.sum()
        assert len(draws.paired(holding=True)) == draws.pairs.sum() < len(draws.holding)

    def test_determinism(self):
        draws = draw(TWO_STRATA, TWO_STRATA.seed)
        acc = AccuracyModel(0.5, 2.0)
        a = reports(draws, acc, make_rng(9))
        b = reports(draws, acc, make_rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("noise_sd", [math.nan, math.inf])
    def test_accuracy_model_rejects_non_finite_noise(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd"):
            AccuracyModel(0.5, noise_sd)

    def test_accuracy_model_validation(self):
        with pytest.raises(ValueError):
            AccuracyModel(1.2, 0.0)
        with pytest.raises(ValueError):
            AccuracyModel(0.5, -1.0)


class TestFilter:
    def test_quantile_one_keeps_all(self):
        assert kept([0.9, 0.1, 0.5], 1.0).all()

    def test_equal_scores_all_kept(self):
        assert kept([0.7] * 5, 0.2).all()

    def test_half_quantile_cut(self):
        assert kept([1.0, 1.0, 0.2, 0.1], 0.5).tolist() == [True, True, False, False]

    def test_stable_order(self):
        assert np.flatnonzero(kept([0.5, 0.9, 0.5, 0.9], 0.5)).tolist() == [1, 3]

    def test_zero_quantile_raises(self):
        with pytest.raises(ValueError, match="quantile"):
            survey.check_quantile(0.0)
        with pytest.raises(ValueError, match="quantile"):
            compare_schemes(TWO_STRATA, PERFECT, 0.0, 10, seed=0)


# Exact reports score 1 and noisy ones exp(-|z|), as `_reports` scores them.
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
    scores = np.array(scores)
    reference = float(np.quantile(scores, 1.0 - quantile))
    assert survey._cuts(scores, [len(scores)], 1.0 - quantile).tolist() == [reference]
    assert np.array_equal(kept(scores, quantile), scores >= reference)


# Data without zeros: with a +0.0 and a -0.0 in one segment, which one sorts
# first is not fixed, so the sign of a zero cut can differ from numpy's.
_SEGMENT_DATA = st.one_of(
    st.floats(-1e150, -5e-324), st.floats(5e-324, 1e150), st.sampled_from([-2.0, 0.5, 1.0])
)


# Each segment is its own slice (`survey._spans`), whatever its neighbours;
# an empty one has mean 0 and cut NaN.
@given(counts=st.lists(st.integers(0, 12), min_size=1, max_size=30), q=st.floats(0.0, 1.0), data=st.data())
def test_each_segment_has_numpys_mean_and_cut(counts, q, data):
    x = np.array(data.draw(st.lists(_SEGMENT_DATA, min_size=sum(counts), max_size=sum(counts))), dtype=float)
    means = survey._segment_means(x, np.array(counts)).tolist()
    cuts = survey._cuts(x, np.array(counts), q).tolist()
    for segment, mean, cut in zip(np.split(x, np.cumsum(counts)[:-1]), means, cuts):
        if len(segment):
            assert mean.hex() == float(np.mean(segment)).hex()
            assert cut.hex() == float(np.quantile(segment, q)).hex()
        else:
            assert mean.hex() == (0.0).hex() and math.isnan(cut)


class TestEstimators:
    def test_srs_census_is_exact(self):
        comp = compare_schemes(TWO_STRATA, PERFECT, 1.0, 10, seed=3, srs_size=TWO_STRATA.total_size)
        assert np.all(np.abs(comp.errors["srs_oracle"]) <= 1e-12)

    def test_two_strata_bias_pattern(self):
        # Mostly-stratum-A respondents drag the naive mean toward 0 while
        # post-stratified augmentation stays centered on the true mean 5.
        comp = compare_schemes(TWO_STRATA, PERFECT, 1.0, 300, seed=5)
        assert comp.mean_error["naive_attribute_only"] == pytest.approx(-4.0, abs=0.15)
        assert abs(comp.mean_error["augmented"]) < 2 * comp.stderr_mean["augmented"] + 1e-9


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
        # (respondents and the units they report on) should cover every
        # stratum in at least 99% of replications.
        reps = 200
        draws = draw(TWO_STRATA, *(derive_seed(8, rep) for rep in range(reps)))
        with_data = np.zeros((reps, len(TWO_STRATA.strata)), dtype=bool)
        for positions in (draws.holding, draws.paired(holding=False)):
            with_data[positions // TWO_STRATA.total_size, stratum_of(draws, positions)] = True
        assert with_data.all(axis=1).mean() >= 0.99

    def test_each_stage_draws_from_its_derived_stream(self, monkeypatch):
        # Replication rep's population, reports and SRS draw come from
        # make_rng(derive_seed(seed, rep, key)) with keys 0, 1 and 2: each
        # state compare_schemes re-keys its generator to is one of those
        # states, each state is set once, each key's states come in
        # replication order, and each makes its own stage's draws and no other.
        streams = []  # (state, draw calls) per re-key

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def call(*args, **kwargs):
                    streams[-1][1].append(name)
                    return method(*args, **kwargs)

                return call

        def recording(rng, key):
            rekey(rng.rng, key)
            streams.append((repr(rng.rng.bit_generator.state), []))
            return rng

        monkeypatch.setattr(survey, "rng_from_key", lambda key: Recording(rng_from_key(key)))
        monkeypatch.setattr(survey, "rekey", recording)
        compare_schemes(TWO_STRATA, AccuracyModel(0.5, 1.0), 0.5, 12, seed=4)

        derived = {
            repr(make_rng(derive_seed(4, rep, key)).bit_generator.state): (rep, key)
            for rep in range(12)
            for key in range(3)
        }
        assert all(state in derived for state, _ in streams)
        assert sorted(derived[state] for state, _ in streams) == sorted(derived.values())
        stage_calls = (["normal", "random"] * len(TWO_STRATA.strata), ["random", "normal"], ["choice"])
        for key, calls in enumerate(stage_calls):
            stage = [(state, made) for state, made in streams if derived[state][1] == key]
            assert [derived[state][0] for state, _ in stage] == list(range(12))
            assert [made for _, made in stage] == [calls] * 12

    @pytest.mark.parametrize("replications", [10, 1000])
    def test_one_philox_generator_per_call(self, replications, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        compare_schemes(TWO_STRATA, AccuracyModel(0.5, 1.0), 0.5, replications, seed=1)
        assert len(built) == 1

    def test_no_seed_sequence_per_stream(self, monkeypatch):
        built = []

        class Counting(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counting)
        monkeypatch.setattr(np.random.bit_generator, "SeedSequence", Counting)
        make_rng(derive_seed(1, 0, 0))
        assert len(built) == 2  # the patch sees derive_seed's and make_rng's
        built.clear()
        compare_schemes(TWO_STRATA, AccuracyModel(0.5, 1.0), 0.5, 10, seed=1)
        assert built == []

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

    def test_memory_does_not_grow_with_replications(self, monkeypatch):
        # 20 replications a chunk and keys for 100 at a time, so both bounds
        # are reached at 100 replications; at 40 times as many, only the
        # three error arrays may grow.
        monkeypatch.setattr(survey, "_CHUNK", 20 * TWO_STRATA.total_size)
        monkeypatch.setattr(survey, "_KEYS", 100)

        def run(replications):
            compare_schemes(TWO_STRATA, AccuracyModel(0.7, 1.0), 0.5, replications, seed=1)

        def peak(replications):
            tracemalloc.start()
            try:
                run(replications)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(100)  # a first call also imports and caches what every later one reuses
        base = peak(100)
        error_arrays = len(survey.SCHEMES) * 8 * 40 * 100
        assert peak(40 * 100) - error_arrays <= 2 * base

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
        monkeypatch.setattr(survey, "rng_from_key", lambda *args: pytest.fail("replicated"))
        with pytest.raises(ValueError, match=f"{count} must be an integer"):
            call()

    def test_no_possible_respondent_rejected_before_replicating(self, monkeypatch):
        spec = replace(TWO_STRATA, attribute_prob=(0.0, 0.0))
        monkeypatch.setattr(survey, "rng_from_key", lambda *args: pytest.fail("replicated"))
        with pytest.raises(ValueError, match="attribute probability"):
            compare_schemes(spec, PERFECT, 1.0, 10, seed=0)



def test_concurrent_calls_match_sequential():
    # Each call re-keys a generator of its own.  The barrier starts two calls
    # on different seeds together, and a short switch interval interleaves
    # them within the calls; each must still get its sequential bits.
    args = (TWO_STRATA, AccuracyModel(0.7, 1.0), 0.5, 200)
    seeds = (1, 2)
    want = [compare_schemes(*args, seed=seed) for seed in seeds]
    barrier = threading.Barrier(len(seeds), timeout=60)

    def repeat(seed):
        out = []
        for _ in range(20):
            barrier.wait()
            out.append(compare_schemes(*args, seed=seed))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(repeat, seed) for seed in seeds]
            got = [run.result() for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for results, expected in zip(got, want):
        for comp in results:
            assert {s: a.tobytes() for s, a in comp.errors.items()} == {
                s: a.tobytes() for s, a in expected.errors.items()
            }
            assert repr(replace(comp, errors=None)) == repr(replace(expected, errors=None))


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
    pops = draw(ORACLE_SPEC, *(derive_seed(seed, rep, 0) for rep in range(ORACLE_REPLICATIONS)))
    naive = [float(np.mean(value[has])) - float(np.mean(value)) for value, has in zip(pops.value, pops.has)]
    assert comp.errors["naive_attribute_only"].tolist() == naive

    n, total = ORACLE_SRS_SIZE, ORACLE_SPEC.total_size
    variance = (1 - n / total) * np.var(pops.value, axis=1, ddof=1) / n
    squared = comp.errors["srs_oracle"] ** 2
    ratio = squared.mean() / variance.mean()
    # Delta-method standard error of a ratio of two means.
    se = np.std(squared - ratio * variance, ddof=1) / (math.sqrt(len(variance)) * variance.mean())
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
