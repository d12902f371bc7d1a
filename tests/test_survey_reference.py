"""The column layout of `pxkit.survey` against the record-array pipeline it replaced.

The reference below is the row-per-unit implementation: one `UNIT_DTYPE`
record per unit, stratum masks in the augmented mean and ``np.mean``
throughout.  The survey digest pins fix a few layouts; these property tests
hold every drawn layout to the same bits.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxkit import (
    AccuracyModel,
    PopulationSpec,
    Stratum,
    collect_proxy_responses,
    compare_schemes,
    derive_seed,
    estimate_mean,
    generate_population,
)
from pxkit import survey
from pxkit.densities import make_rng
from pxkit.survey import REPORT_DTYPE, SCHEMES, UNIT_DTYPE


def reference_generate(spec):
    rng = make_rng(spec.seed)
    units = np.empty(spec.total_size, dtype=UNIT_DTYPE)
    units["associate"] = -1
    shortfall = {}
    start = 0
    for k, (stratum, prob) in enumerate(zip(spec.strata, spec.attribute_prob)):
        block = units[start : start + stratum.size]
        block["stratum"] = k
        block["value"] = rng.normal(stratum.value_mean, stratum.value_sd, stratum.size)
        block["has_attribute"] = rng.random(stratum.size) < prob
        holders = start + block["has_attribute"].nonzero()[0]
        non_holders = start + (~block["has_attribute"]).nonzero()[0]
        pairs = min(len(holders), len(non_holders))
        units["associate"][holders[:pairs]] = non_holders[:pairs]
        shortfall[stratum.label] = len(holders) - pairs
        start += stratum.size
    return units, shortfall


def reference_collect(units, acc, seed):
    paired = (units["associate"] >= 0).nonzero()[0]
    n = len(paired)
    reports = np.empty(n, dtype=REPORT_DTYPE)
    if n == 0:
        return reports
    rng = make_rng(seed)
    exact = rng.random(n) < acc.p_accurate
    noise = rng.normal(0.0, acc.noise_sd, n) if acc.noise_sd > 0 else np.zeros(n)
    corruption = np.where(exact, 0.0, noise)
    decayed = np.exp(-np.abs(corruption) / acc.noise_sd) if acc.noise_sd > 0 else np.ones(n)
    reports["respondent"] = paired
    reports["target"] = units["associate"][paired]
    reports["reported_value"] = units["value"][reports["target"]] + corruption
    reports["accuracy_score"] = np.where(corruption == 0.0, 1.0, decayed)
    return reports


def reference_filter(responses, quantile):
    scores = responses["accuracy_score"]
    return responses[scores >= np.quantile(scores, 1.0 - quantile)]


def reference_naive(units):
    values = units["value"][units["has_attribute"]]
    if len(values) == 0:
        raise ValueError("no respondents")
    return float(np.mean(values))


def reference_augmented(units, spec, responses):
    respondents = units["has_attribute"]
    strata = np.concatenate([units["stratum"][respondents], units["stratum"][responses["target"]]])
    values = np.concatenate([units["value"][respondents], responses["reported_value"]])
    if len(values) == 0:
        raise ValueError("no respondents or proxy reports")
    total = spec.total_size
    covered = [(s.size / total, values[strata == k]) for k, s in enumerate(spec.strata)]
    covered = [(share, vals) for share, vals in covered if len(vals)]
    share_sum = sum(share for share, _ in covered)
    return sum(share * float(np.mean(vals)) for share, vals in covered) / share_sum


def reference_srs(units, srs_size, seed):
    idx = make_rng(seed).choice(len(units), size=srs_size, replace=False)
    return float(np.mean(units["value"][idx]))


def reference_compare(spec, acc, quantile, replications, seed, srs_size):
    """Per-scheme error arrays and each replication's (units, shortfall)."""
    errors = {s: [] for s in SCHEMES}
    drawn = []
    for rep in range(replications):
        units, shortfall = reference_generate(replace(spec, seed=derive_seed(seed, rep, 0)))
        drawn.append((units, shortfall))
        responses = reference_collect(units, acc, derive_seed(seed, rep, 1))
        kept = reference_filter(responses, quantile) if len(responses) else responses
        size = srs_size if srs_size is not None else max(1, int(np.count_nonzero(units["has_attribute"])))
        truth = float(np.mean(np.ascontiguousarray(units["value"])))
        estimates = {
            "naive_attribute_only": reference_naive(units),
            "augmented": reference_augmented(units, spec, kept),
            "srs_oracle": reference_srs(units, size, derive_seed(seed, rep, 2)),
        }
        for scheme in SCHEMES:
            errors[scheme].append(estimates[scheme] - truth)
    return {s: np.array(v) for s, v in errors.items()}, drawn


@contextmanager
def recorded_draws():
    """Collect every chunk of populations `compare_schemes` draws, through `_Draws.draw`."""
    drawn = []
    draw = survey._Draws.draw.__func__

    def recording(cls, *args):
        drawn.append(draw(cls, *args))
        return drawn[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survey._Draws, "draw", classmethod(recording))
        yield drawn


def drawn_populations(drawn):
    """Each replication of the recorded chunks as a `Population`, paired as the chunk pairs it."""
    for draws in drawn:
        size = draws.value.shape[1]
        holders, targets = draws.paired(holding=True), draws.paired(holding=False)
        for row, value in enumerate(draws.value):
            mine = holders // size == row
            yield survey.Population(
                spec=draws.spec,
                value=value,
                edges=np.array(draws.edges),
                respondents=draws.holding[draws.holding // size == row] - row * size,
                pair_respondents=holders[mine] - row * size,
                pair_targets=targets[mine] - row * size,
                pairing_shortfall={
                    s.label: int(h - p)
                    for s, h, p in zip(draws.spec.strata, draws.holders[row], draws.pairs[row])
                },
            )


_PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def specs(draw):
    """1-4 strata of 1-300 units; attribute probabilities include 0 and 1."""
    strata = tuple(
        Stratum(label, draw(st.integers(1, 300)), draw(st.floats(-10.0, 10.0)), draw(st.floats(0.0, 5.0)))
        for label in "ABCD"[: draw(st.integers(1, 4))]
    )
    probs = tuple(draw(_PROBS) for _ in strata)
    return PopulationSpec(strata, probs, seed=draw(st.integers(0, 2**63)))


accuracies = st.builds(AccuracyModel, _PROBS, st.one_of(st.just(0.0), st.floats(0.01, 5.0)))


@settings(deadline=None)
@given(
    spec=specs(),
    acc=accuracies,
    report_seed=st.integers(0, 2**63),
    shuffle_seed=st.integers(0, 2**63),
    keep=st.floats(0.0, 1.0),
)
def test_augmented_mean_ignores_report_order(spec, acc, report_seed, shuffle_seed, keep):
    pop = generate_population(spec, make_rng(spec.seed))
    responses = collect_proxy_responses(pop, acc, make_rng(report_seed))
    rng = np.random.default_rng(shuffle_seed)
    shuffled = responses[rng.permutation(len(responses))]
    subset = shuffled[rng.random(len(shuffled)) < keep]
    try:
        expected = reference_augmented(pop.units, spec, subset)
    except ValueError:
        with pytest.raises(ValueError):
            estimate_mean(pop, subset, "augmented")
    else:
        assert estimate_mean(pop, subset, "augmented") == expected


@settings(deadline=None)
@given(
    spec=specs(),
    acc=accuracies,
    quantile=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**63),
    data=st.data(),
)
def test_compare_schemes_equals_record_array_pipeline(spec, acc, quantile, seed, data):
    srs_size = data.draw(st.one_of(st.none(), st.integers(1, spec.total_size)), label="srs_size")
    try:
        expected, reference_drawn = reference_compare(spec, acc, quantile, 10, seed, srs_size)
    except ValueError:
        with pytest.raises(ValueError):
            compare_schemes(spec, acc, quantile, 10, seed, srs_size)
        return
    with recorded_draws() as drawn:
        comp = compare_schemes(spec, acc, quantile, 10, seed, srs_size)
    for scheme in SCHEMES:
        assert comp.errors[scheme].tobytes() == expected[scheme].tobytes()
    pops = list(drawn_populations(drawn))
    assert len(pops) == len(reference_drawn)
    for pop, (units, shortfall) in zip(pops, reference_drawn):
        assert np.array_equal(pop.units, units)
        assert pop.pairing_shortfall == shortfall


def test_replications_never_build_the_record_view(monkeypatch):
    # compare_schemes calls none of the stages: it builds no `Population`, so
    # no record view, and no report record array.
    spec = PopulationSpec(
        strata=(Stratum("A", 100, 0.0, 1.0), Stratum("B", 100, 10.0, 1.0)),
        attribute_prob=(0.9, 0.1),
        seed=7,
    )
    for name in ("Population", "generate_population", "collect_proxy_responses", "filter_most_accurate"):
        monkeypatch.setattr(survey, name, lambda *args, name=name: pytest.fail(f"called {name}"))
    with recorded_draws() as drawn:
        compare_schemes(spec, AccuracyModel(0.7, 1.0), 0.5, 10, seed=1)
    assert sum(len(draws.value) for draws in drawn) == 10


CHUNK_SPEC = PopulationSpec(
    strata=(Stratum("A", 20, 0.0, 1.0), Stratum("B", 15, 3.0, 2.0), Stratum("C", 15, -1.0, 0.5)),
    attribute_prob=(0.6, 0.3, 0.5),
    seed=5,
)
REPS_PER_CHUNK = 12


@pytest.mark.parametrize("srs_size", [None, 7])
@pytest.mark.parametrize(
    "replications",
    [REPS_PER_CHUNK - 1, REPS_PER_CHUNK, REPS_PER_CHUNK + 1, 2 * REPS_PER_CHUNK + 3],
)
def test_chunk_boundaries_keep_the_bits(monkeypatch, replications, srs_size):
    # 12 replications a chunk and keys for two chunks at a time: the runs end
    # one short of a chunk, on one, one past one, and inside the second key pass.
    monkeypatch.setattr(survey, "_CHUNK", REPS_PER_CHUNK * CHUNK_SPEC.total_size + 1)
    monkeypatch.setattr(survey, "_KEYS", 2 * REPS_PER_CHUNK)
    acc = AccuracyModel(0.6, 1.5)
    expected, _ = reference_compare(CHUNK_SPEC, acc, 0.7, replications, 9, srs_size)
    with recorded_draws() as drawn:
        comp = compare_schemes(CHUNK_SPEC, acc, 0.7, replications, 9, srs_size)
    sizes = [len(draws.value) for draws in drawn]
    assert sizes == [REPS_PER_CHUNK] * (replications // REPS_PER_CHUNK) + (
        [replications % REPS_PER_CHUNK] if replications % REPS_PER_CHUNK else []
    )
    for scheme in SCHEMES:
        assert comp.errors[scheme].tobytes() == expected[scheme].tobytes()
