"""Simulation of survey augmentation through proxy reports by associated units.

A stratified population is generated in which only units holding a common
attribute respond.  Each respondent is paired with one same-stratum unit
without the attribute and reports that unit's value, exactly with some
probability and otherwise with additive noise.  Keeping only the most
accurate proxy reports and post-stratifying the pooled self-plus-proxy data
recovers population-level information even though the respondent pool
itself is badly unrepresentative.

Three estimators of the population mean are compared: the naive mean over
respondents only, the augmented post-stratified mean, and a simple random
sample benchmark.

A `Population` is a set of contiguous read-only columns (values, stratum
bounds, respondents, pairing); the stages read those columns and slice
strata at their bounds.  Proxy reports are a `REPORT_DTYPE` record array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._checks import check_count
from .densities import make_rng
from .seeding import derive_seed

SCHEMES = ("naive_attribute_only", "augmented", "srs_oracle")


@dataclass(frozen=True)
class Stratum:
    label: str
    size: int
    value_mean: float
    value_sd: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", check_count(f"stratum {self.label!r}: size", self.size, 1))
        if not math.isfinite(self.value_mean):
            raise ValueError(f"stratum {self.label!r}: value_mean must be finite")
        if not 0 <= self.value_sd < math.inf:
            raise ValueError(f"stratum {self.label!r}: value_sd must be finite and nonnegative")


@dataclass(frozen=True)
class PopulationSpec:
    """Strata, one attribute probability per stratum, and the seed `generate_population` uses.

    `compare_schemes` replaces ``seed`` in every replication with one derived
    from its own seed, so the spec's seed does not change its results.
    """

    strata: tuple[Stratum, ...]
    attribute_prob: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        if not self.strata:
            raise ValueError("need at least one stratum")
        if len(self.attribute_prob) != len(self.strata):
            raise ValueError("need exactly one attribute probability per stratum")
        if any(not 0.0 <= p <= 1.0 for p in self.attribute_prob):
            raise ValueError("attribute probabilities must lie in [0, 1]")
        labels = [s.label for s in self.strata]
        if len(set(labels)) != len(labels):
            raise ValueError("stratum labels must be unique")

    @property
    def total_size(self) -> int:
        return sum(s.size for s in self.strata)


# One record per population unit, as `Population.units` lays it out: its
# stratum (index into ``spec.strata``), true value, attribute flag and paired
# unit (index, or -1 when unpaired).
UNIT_DTYPE = np.dtype(
    [("stratum", "i8"), ("value", "f8"), ("has_attribute", "?"), ("associate", "i8")]
)
# One record per proxy report: the reporting unit, the unit reported on,
# the reported value and its accuracy score.
REPORT_DTYPE = np.dtype(
    [("respondent", "i8"), ("target", "i8"), ("reported_value", "f8"), ("accuracy_score", "f8")]
)


@dataclass(frozen=True)
class AccuracyModel:
    """Probability of an exact proxy report and the noise scale otherwise."""

    p_accurate: float
    noise_sd: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_accurate <= 1.0:
            raise ValueError(f"p_accurate must lie in [0, 1], got {self.p_accurate}")
        if not 0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be finite and nonnegative, got {self.noise_sd}")


def _mean(x: np.ndarray) -> float:
    """``float(np.mean(x))`` for a nonempty float64 array, without its Python layers.

    np.mean divides the same pairwise sum by the count, so the bits agree.
    """
    return float(x.sum()) / len(x)


@dataclass(frozen=True, eq=False)
class Population:
    """A drawn population as read-only columns, units in stratum order.

    - ``value``: float64, the true value of each unit.
    - ``edges``: int64 stratum bounds, ``len(spec.strata) + 1`` of them from 0
      to the population size; stratum k holds units ``edges[k]:edges[k + 1]``.
    - ``respondents``: ascending int64 indices of the attribute holders.
    - ``pair_respondents``, ``pair_targets``: the 1:1 pairing of holders with
      non-holders of their own stratum, both ascending, stratum by stratum.
    - ``pairing_shortfall``: holders left unpaired, by stratum label.
    """

    spec: PopulationSpec
    value: np.ndarray
    edges: np.ndarray
    respondents: np.ndarray
    pair_respondents: np.ndarray
    pair_targets: np.ndarray
    pairing_shortfall: dict[str, int]

    @property
    def true_mean(self) -> float:
        return _mean(self.value)

    @cached_property
    def units(self) -> np.ndarray:
        """The same population as a read-only `UNIT_DTYPE` record array, built on first access."""
        units = np.empty(len(self.value), dtype=UNIT_DTYPE)
        units["stratum"] = np.repeat(np.arange(len(self.edges) - 1), np.diff(self.edges))
        units["value"] = self.value
        units["has_attribute"] = False
        units["has_attribute"][self.respondents] = True
        units["associate"] = -1
        units["associate"][self.pair_respondents] = self.pair_targets
        units.flags.writeable = False
        return units


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def generate_population(spec: PopulationSpec) -> Population:
    """Draw a stratified population with attribute flags and 1:1 pairings.

    Within each stratum, attribute holders are paired with distinct
    non-holders in unit order; holders beyond the number of available
    non-holders stay unpaired and the per-stratum shortfall is recorded.
    """
    rng = make_rng(spec.seed)
    edges = list(accumulate((s.size for s in spec.strata), initial=0))
    value = np.empty(edges[-1])
    holders, pair_respondents, pair_targets = [], [], []
    shortfall: dict[str, int] = {}
    for stratum, prob, start, stop in zip(spec.strata, spec.attribute_prob, edges, edges[1:]):
        value[start:stop] = rng.normal(stratum.value_mean, stratum.value_sd, stratum.size)
        has_attribute = rng.random(stratum.size) < prob
        own = start + has_attribute.nonzero()[0]
        others = start + (~has_attribute).nonzero()[0]
        pairs = min(len(own), len(others))
        holders.append(own)
        pair_respondents.append(own[:pairs])
        pair_targets.append(others[:pairs])
        shortfall[stratum.label] = len(own) - pairs
    return Population(
        spec=spec,
        value=_read_only(value),
        edges=_read_only(np.array(edges, dtype=np.int64)),
        respondents=_read_only(np.concatenate(holders)),
        pair_respondents=_read_only(np.concatenate(pair_respondents)),
        pair_targets=_read_only(np.concatenate(pair_targets)),
        pairing_shortfall=shortfall,
    )


def collect_proxy_responses(pop: Population, acc: AccuracyModel, seed: int) -> np.ndarray:
    """One proxy report per paired respondent for its associated unit.

    Returns a `REPORT_DTYPE` array in respondent order.  A report is the
    target's exact value with probability ``p_accurate``, otherwise the
    value plus centered normal noise.  The accuracy score is 1 for exact
    reports and decays exponentially in the absolute corruption (in
    noise-sd units) otherwise.
    """
    n = len(pop.pair_respondents)
    reports = np.empty(n, dtype=REPORT_DTYPE)
    if n == 0:
        return reports
    rng = make_rng(seed)
    exact = rng.random(n) < acc.p_accurate
    noise = rng.normal(0.0, acc.noise_sd, n) if acc.noise_sd > 0 else np.zeros(n)
    corruption = np.where(exact, 0.0, noise)
    decayed = np.exp(-np.abs(corruption) / acc.noise_sd) if acc.noise_sd > 0 else np.ones(n)
    reports["respondent"] = pop.pair_respondents
    reports["target"] = pop.pair_targets
    reports["reported_value"] = pop.value[pop.pair_targets] + corruption
    reports["accuracy_score"] = np.where(corruption == 0.0, 1.0, decayed)
    return reports


def check_quantile(quantile: float) -> float:
    """The kept share of proxy reports as a float; raises ValueError outside (0, 1]."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    return float(quantile)


def check_srs_size(srs_size: int, population_size: int) -> int:
    """The sample size as an int; raises ValueError unless an integer in [1, population_size]."""
    return check_count("srs_size", srs_size, 1, population_size)


def _linear_quantile(x: np.ndarray, q: float) -> float:
    """``float(np.quantile(x, q))`` for a nonempty NaN-free float64 array and q in [0, 1].

    numpy's default "linear" rule (Hyndman & Fan method 7): the virtual
    index (n - 1) q falls between order statistics a and b, found here by one
    partition, and the cut is interpolated from the nearer end as
    ``numpy.lib._function_base_impl._lerp`` does, so the bits agree.  An index
    at or past n - 1 gives the maximum.
    """
    n = len(x)
    v = (n - 1) * q
    if v >= n - 1:
        return float(x.max())
    k = math.floor(v)
    a, b = np.partition(x, (k, k + 1))[k : k + 2].tolist()
    t = v - k
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


def filter_most_accurate(responses: np.ndarray, quantile: float) -> np.ndarray:
    """Keep the top `quantile` share of proxy reports by accuracy score.

    The cut is numpy's linear (1 - quantile) empirical quantile of the
    scores, computed with one partition; ties at the cut are kept, input
    order is preserved.
    """
    if len(responses) == 0:
        raise ValueError("no responses to filter")
    quantile = check_quantile(quantile)
    scores = responses["accuracy_score"]
    return responses[scores >= _linear_quantile(scores, 1.0 - quantile)]


def estimate_mean(
    pop: Population,
    responses: np.ndarray,
    scheme: str,
    srs_size: int = 0,
    seed: int = 0,
) -> float:
    """Population-mean estimate under one of the three schemes.

    naive_attribute_only averages the respondents' own values; augmented
    post-stratifies the pooled respondent self-reports and proxy reports
    (`REPORT_DTYPE` array) using population stratum shares (renormalized
    over covered strata); srs_oracle averages a seeded simple random
    sample of the whole population.
    """
    if scheme == "naive_attribute_only":
        if len(pop.respondents) == 0:
            raise ValueError("no respondents: naive estimate undefined")
        return _mean(pop.value[pop.respondents])

    if scheme == "augmented":
        # Each stratum pools its self-reports in unit order, then its proxy
        # reports in report order: the pooled order fixes the summation order,
        # and so the last bits, of each mean.  The stable sort groups the
        # reports by their target's stratum and keeps report order within one.
        own = pop.value[pop.respondents]
        own_edges = pop.respondents.searchsorted(pop.edges).tolist()
        target_strata = pop.edges.searchsorted(responses["target"], "right") - 1
        order = target_strata.argsort(kind="stable")
        sorted_strata = target_strata[order]
        if len(order) and not 0 <= sorted_strata[0] <= sorted_strata[-1] < len(pop.spec.strata):
            raise ValueError("a proxy report targets a unit outside the population")
        reported = responses["reported_value"][order]
        reported_edges = sorted_strata.searchsorted(np.arange(len(pop.edges))).tolist()
        total = len(pop.value)
        covered = []
        for k, stratum in enumerate(pop.spec.strata):
            own_k = own[own_edges[k] : own_edges[k + 1]]
            reported_k = reported[reported_edges[k] : reported_edges[k + 1]]
            vals = np.concatenate((own_k, reported_k))
            if len(vals):
                covered.append((stratum.size / total, vals))
        if not covered:
            raise ValueError("no respondents or proxy reports: augmented estimate undefined")
        share_sum = sum(share for share, _ in covered)
        return sum(share * _mean(vals) for share, vals in covered) / share_sum

    if scheme == "srs_oracle":
        srs_size = check_srs_size(srs_size, len(pop.value))
        idx = make_rng(seed).choice(len(pop.value), size=srs_size, replace=False)
        return _mean(pop.value[idx])

    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@dataclass(frozen=True)
class SchemeComparison:
    """Replicated end-to-end comparison of the three estimation schemes, as plain data.

    Each summary dict maps every scheme of `SCHEMES` to its value, in that
    order.  The CLI decides how a comparison is written (`pxkit.cli`).
    """

    replications: int
    seed: int
    mean_error: dict[str, float]
    rmse: dict[str, float]
    stderr_mean: dict[str, float]
    errors: dict[str, np.ndarray]


def check_replications(replications: int) -> int:
    """The replication count as an int; raises ValueError unless an integer >= 10."""
    return check_count("replications", replications, 10)


def check_population(spec: PopulationSpec) -> PopulationSpec:
    """The spec; raises ValueError when every attribute probability is 0.

    Such a population never has a respondent, so the naive estimate is
    undefined in every replication.
    """
    if not any(spec.attribute_prob):
        raise ValueError("every attribute probability is 0, so no unit can respond")
    return spec


def compare_schemes(
    spec: PopulationSpec,
    acc: AccuracyModel,
    quantile: float,
    replications: int,
    seed: int,
    srs_size: int | None = None,
) -> SchemeComparison:
    """Replicate the full pipeline and summarize per-scheme estimation error.

    Each replication regenerates the population, proxy responses and SRS
    draw from three seeds derived of (seed, replication index, key) with
    keys 0, 1 and 2; only srs_oracle reads the third.  The population seed
    is the key-0 seed, so ``spec.seed`` does not change the result.  When
    ``srs_size`` is not given, the benchmark sample matches the
    replication's respondent count.  The spec, the replication count,
    ``quantile`` and ``srs_size`` are validated before the first replication.
    """
    check_population(spec)
    replications = check_replications(replications)
    quantile = check_quantile(quantile)
    if srs_size is not None:
        srs_size = check_srs_size(srs_size, spec.total_size)
    errors: dict[str, list[float]] = {s: [] for s in SCHEMES}
    for rep in range(replications):
        pop = generate_population(replace(spec, seed=derive_seed(seed, rep, 0)))
        responses = collect_proxy_responses(pop, acc, derive_seed(seed, rep, 1))
        kept = filter_most_accurate(responses, quantile) if len(responses) else responses
        size = srs_size if srs_size is not None else max(1, len(pop.respondents))
        truth = pop.true_mean
        srs_seed = derive_seed(seed, rep, 2)
        for scheme in SCHEMES:
            est = estimate_mean(pop, kept, scheme, srs_size=size, seed=srs_seed)
            errors[scheme].append(est - truth)
    arrays = {s: np.array(v) for s, v in errors.items()}
    return SchemeComparison(
        replications=replications,
        seed=int(seed),
        mean_error={s: _summary(np.mean, a) for s, a in arrays.items()},
        rmse={s: _summary(_rms, a) for s, a in arrays.items()},
        stderr_mean={s: _summary(_stderr, a) for s, a in arrays.items()},
        errors=arrays,
    )


def _rms(a: np.ndarray) -> float:
    return np.sqrt(np.mean(a * a))


def _stderr(a: np.ndarray) -> float:
    return np.std(a, ddof=1) / math.sqrt(len(a))


def _summary(stat, a: np.ndarray) -> float:
    """``stat(a)`` for a statistic with stat(c·a) = c·stat(a) for every c > 0.

    When the plain form overflows on finite errors (it squares or sums before
    it reduces), it is taken on ``a / max|a|`` and scaled back.  A finite
    plain form is returned as is, so results that did not overflow are
    unchanged to the bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(stat(a))
    if math.isfinite(value) or not np.isfinite(a).all():
        return value
    scale = float(np.max(np.abs(a)))
    return float(stat(a / scale)) * scale
