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

The stages that draw (`generate_population`, `collect_proxy_responses` and
the srs_oracle scheme of `estimate_mean`) take a `numpy.random.Generator`
and advance it, as the density samplers do.

`compare_schemes` does not call the stages.  It runs its replications in
chunks of about `_CHUNK` population units: only the draws run once per
replication, each from the generator the stage would get, and pairing,
report scoring, the quantile cut, the true mean and the three estimators
are array passes over the whole chunk.  Each of those rules is written once
in this module, and the stages apply the same rules to one replication, so
a replication's errors have the same bits either way and whatever the
chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._checks import check_count
from .densities import rng_from_key
from .seeding import derive_keys

SCHEMES = ("naive_attribute_only", "augmented", "srs_oracle")
_CHUNK = 1 << 14  # population units per chunk of replications; sets memory, never the results
_KEYS = 1 << 10  # replications whose Philox keys are derived in one pass, in whole chunks


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
    """Strata, one attribute probability per stratum, and a seed.

    No library call reads ``seed``: `compare_schemes` derives every
    replication's streams from its own seed, and a direct
    `generate_population` call takes a generator, such as
    ``densities.make_rng(spec.seed)``.
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


def _segment_means(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The `_mean` of each of the consecutive segments of ``x`` that ``counts`` lays out.

    Each segment is summed alone, on its own contiguous slice: numpy's
    pairwise sum groups a segment's terms by its length only, so each mean
    has the bits of `_mean` on that segment.  ``np.add.reduceat`` groups
    them differently.  An empty segment's mean is 0.
    """
    counts = np.asarray(counts).ravel()
    ends = np.cumsum(counts).tolist()
    sums = [np.add.reduce(x[a:b]) for a, b in zip([0, *ends], ends)]
    return np.array(sums) / np.maximum(counts, 1)


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


@dataclass(frozen=True, eq=False)
class _Draws:
    """R populations drawn from one spec, one row per replication.

    - ``value``: (R, N) float64 unit values; ``has``: (R, N) attribute flags.
    - ``edges``: the stratum bounds, as a list.
    - ``holding``: ascending flat (row-major) positions of the attribute
      holders, so row by row and stratum by stratum.
    - ``holders``, ``pairs``: (R, K) int64 attribute holders and pairs per
      stratum; a stratum pairs ``min(holders, size - holders)`` of each.
    """

    spec: PopulationSpec
    value: np.ndarray
    has: np.ndarray
    edges: list[int]
    holding: np.ndarray
    holders: np.ndarray
    pairs: np.ndarray

    @classmethod
    def draw(cls, spec: PopulationSpec, rngs: list[np.random.Generator]) -> "_Draws":
        """One population per generator: stratum by stratum, its values, then its attribute draws."""
        edges = list(accumulate((s.size for s in spec.strata), initial=0))
        value = np.empty((len(rngs), edges[-1]))
        has = np.empty(value.shape, dtype=bool)
        for row, rng in enumerate(rngs):
            for stratum, prob, start, stop in zip(spec.strata, spec.attribute_prob, edges, edges[1:]):
                value[row, start:stop] = rng.normal(stratum.value_mean, stratum.value_sd, stratum.size)
                np.less(rng.random(stratum.size), prob, out=has[row, start:stop])
        holding = np.flatnonzero(has)
        bounds = np.append(np.add.outer(np.arange(len(rngs)) * edges[-1], edges[:-1]), value.size)
        holders = np.diff(holding.searchsorted(bounds)).reshape(len(rngs), -1)
        pairs = np.minimum(holders, np.diff(edges) - holders)
        return cls(spec, value, has, edges, holding, holders, pairs)

    def paired(self, holding: bool) -> np.ndarray:
        """Flat positions of the paired holders (``holding``) or non-holders.

        Within a stratum, the i-th holder in unit order is paired with the
        i-th non-holder, so the first ``pairs`` of each side are paired.
        Both sides come out row by row and stratum by stratum, so position
        i of one side is paired with position i of the other.
        """
        positions = self.holding if holding else np.flatnonzero(~self.has)
        counts = self.holders if holding else np.diff(self.edges) - self.holders
        starts = (np.cumsum(counts) - counts.ravel()).tolist()
        return np.concatenate([positions[a : a + n] for a, n in zip(starts, self.pairs.ravel().tolist())])


def generate_population(spec: PopulationSpec, rng: np.random.Generator) -> Population:
    """Draw a stratified population with attribute flags and 1:1 pairings from ``rng``.

    Within each stratum, attribute holders are paired with distinct
    non-holders in unit order; holders beyond the number of available
    non-holders stay unpaired and the per-stratum shortfall is recorded.
    """
    draws = _Draws.draw(spec, [rng])
    (value,) = draws.value
    return Population(
        spec=spec,
        value=_read_only(value),
        edges=_read_only(np.array(draws.edges, dtype=np.int64)),
        respondents=_read_only(draws.holding),
        pair_respondents=_read_only(draws.paired(holding=True)),
        pair_targets=_read_only(draws.paired(holding=False)),
        pairing_shortfall={
            s.label: int(h - p) for s, h, p in zip(spec.strata, draws.holders[0], draws.pairs[0])
        },
    )


def _draw_reports(rng: np.random.Generator, acc: AccuracyModel, u: np.ndarray, noise: np.ndarray) -> None:
    """Fill ``u`` and ``noise`` with one replication's report draws from ``rng``.

    ``u`` gets the uniforms that decide exact reports, then ``noise`` the
    normal noise; ``noise`` is left as it is when ``noise_sd`` is 0.
    """
    rng.random(out=u)
    if acc.noise_sd > 0:
        noise[:] = rng.normal(0.0, acc.noise_sd, len(noise))


def _reports(target_value: np.ndarray, u: np.ndarray, noise: np.ndarray, acc: AccuracyModel):
    """Reported values and accuracy scores from the targets' values and the report draws.

    A report is exact when its uniform falls below ``p_accurate`` and the
    target's value plus its noise otherwise.  An exact report scores 1,
    another one exp(-|noise| / noise_sd).
    """
    corruption = np.where(u < acc.p_accurate, 0.0, noise)
    decayed = np.exp(-np.abs(corruption) / acc.noise_sd) if acc.noise_sd > 0 else 1.0
    return target_value + corruption, np.where(corruption == 0.0, 1.0, decayed)


def collect_proxy_responses(
    pop: Population, acc: AccuracyModel, rng: np.random.Generator
) -> np.ndarray:
    """One proxy report per paired respondent for its associated unit, drawn from ``rng``.

    Returns a `REPORT_DTYPE` array in respondent order.  A report is the
    target's exact value with probability ``p_accurate``, otherwise the
    value plus centered normal noise.  The accuracy score is 1 for exact
    reports and decays exponentially in the absolute corruption (in
    noise-sd units) otherwise.  With no paired respondent nothing is drawn.
    """
    n = len(pop.pair_respondents)
    reports = np.empty(n, dtype=REPORT_DTYPE)
    if n == 0:
        return reports
    u, noise = np.empty(n), np.zeros(n)
    _draw_reports(rng, acc, u, noise)
    reports["respondent"] = pop.pair_respondents
    reports["target"] = pop.pair_targets
    reports["reported_value"], reports["accuracy_score"] = _reports(pop.value[pop.pair_targets], u, noise, acc)
    return reports


def check_quantile(quantile: float) -> float:
    """The kept share of proxy reports as a float; raises ValueError outside (0, 1]."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    return float(quantile)


def check_srs_size(srs_size: int, population_size: int) -> int:
    """The sample size as an int; raises ValueError unless an integer in [1, population_size]."""
    return check_count("srs_size", srs_size, 1, population_size)


def _cuts(x: np.ndarray, counts: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(segment, q)`` for each consecutive ``counts``-long segment of ``x``.

    For NaN-free float64 data below +inf and q in [0, 1].  numpy's default
    "linear" rule (Hyndman & Fan method 7): the virtual index (n - 1) q
    falls between order statistics a and b, read here from one row-wise sort
    of the segments padded with +inf, and the cut is interpolated from the
    nearer end as ``numpy.lib._function_base_impl._lerp`` does, so the bits
    agree.  An index at n - 1 gives the maximum.  An empty segment's cut is NaN.
    """
    counts = np.asarray(counts)
    width = max(int(counts.max()), 1)
    ends = np.cumsum(counts).tolist()
    padding = np.full(width, np.inf)
    table = np.concatenate([
        part for a, b in zip([0, *ends], ends) for part in (x[a:b], padding[: width - (b - a)])
    ]).reshape(-1, width)
    table.sort(axis=1)
    rows = np.arange(len(counts))
    v = (counts - 1) * q
    k = np.floor(v).astype(np.intp)
    a, b = table[rows, k], table[rows, np.minimum(k + 1, counts - 1)]
    t = v - k
    with np.errstate(invalid="ignore"):
        return np.where(t < 0.5, a + (b - a) * t, b - (b - a) * (1 - t))


def _linear_quantile(x: np.ndarray, q: float) -> float:
    """``float(np.quantile(x, q))`` for a nonempty NaN-free float64 array and q in [0, 1]."""
    return float(_cuts(x, [len(x)], q)[0])


def filter_most_accurate(responses: np.ndarray, quantile: float) -> np.ndarray:
    """Keep the top `quantile` share of proxy reports by accuracy score.

    The cut is numpy's linear (1 - quantile) empirical quantile of the
    scores; ties at the cut are kept, input order is preserved.
    """
    if len(responses) == 0:
        raise ValueError("no responses to filter")
    quantile = check_quantile(quantile)
    scores = responses["accuracy_score"]
    return responses[scores >= _linear_quantile(scores, 1.0 - quantile)]


def _augmented(own, own_counts, reported, reported_counts, shares) -> np.ndarray:
    """The augmented post-stratified mean of each replication.

    ``own`` holds the respondents' values and ``reported`` the kept proxy
    reports, each replication by replication and stratum by stratum, with
    the (R, K) counts given.  Each stratum pools its self-reports, then its
    proxy reports: the pooled order fixes the summation order, and so the
    last bits, of each stratum mean.  The covered strata's shares and
    share-weighted means are summed as left folds, in stratum order, so
    the bits do not depend on the Python version.
    """
    counts = own_counts + reported_counts
    if not counts.any(axis=1).all():
        raise ValueError("no respondents or proxy reports: augmented estimate undefined")
    own_ends, reported_ends = np.cumsum(own_counts).tolist(), np.cumsum(reported_counts).tolist()
    pooled = np.concatenate([
        part
        for a, b, c, d in zip([0, *own_ends], own_ends, [0, *reported_ends], reported_ends)
        for part in (own[a:b], reported[c:d])
    ])
    means = _segment_means(pooled, counts).reshape(counts.shape)
    share_sum = weighted = np.zeros(len(counts))
    for covered, share, mean in zip(counts.T > 0, shares, means.T):
        share_sum = np.where(covered, share_sum + share, share_sum)
        weighted = np.where(covered, weighted + share * mean, weighted)
    return weighted / share_sum


def _srs(rng: np.random.Generator, value: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` filled with a simple random sample of the values, drawn without replacement from ``rng``."""
    return np.take(value, rng.choice(len(value), size=len(out), replace=False), out=out)


def estimate_mean(
    pop: Population,
    responses: np.ndarray,
    scheme: str,
    srs_size: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Population-mean estimate under one of the three schemes.

    naive_attribute_only averages the respondents' own values; augmented
    post-stratifies the pooled respondent self-reports and proxy reports
    (`REPORT_DTYPE` array) using population stratum shares (renormalized
    over covered strata); srs_oracle averages a simple random sample of the
    whole population drawn from ``rng``, and raises ValueError without one.
    The other two schemes do not read ``rng``.
    """
    if scheme == "naive_attribute_only":
        if len(pop.respondents) == 0:
            raise ValueError("no respondents: naive estimate undefined")
        return _mean(pop.value[pop.respondents])

    if scheme == "augmented":
        # The stable sort groups the reports by their target's stratum and
        # keeps report order within one.
        target_strata = pop.edges.searchsorted(responses["target"], "right") - 1
        order = target_strata.argsort(kind="stable")
        sorted_strata = target_strata[order]
        if len(order) and not 0 <= sorted_strata[0] <= sorted_strata[-1] < len(pop.spec.strata):
            raise ValueError("a proxy report targets a unit outside the population")
        total = len(pop.value)
        return float(_augmented(
            pop.value[pop.respondents],
            np.diff(pop.respondents.searchsorted(pop.edges))[None],
            responses["reported_value"][order],
            np.diff(sorted_strata.searchsorted(np.arange(len(pop.edges))))[None],
            [s.size / total for s in pop.spec.strata],
        )[0])

    if scheme == "srs_oracle":
        srs_size = check_srs_size(srs_size, len(pop.value))
        if rng is None:
            raise ValueError("srs_oracle draws its sample from a generator; pass rng")
        return _mean(_srs(rng, pop.value, np.empty(srs_size)))

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
    draw from three generators, each the one ``densities.make_rng`` builds
    from ``derive_seed(seed, replication index, key)`` with keys 0, 1 and 2;
    only srs_oracle reads the third.  ``spec.seed`` is not read, so it does
    not change the result.  When ``srs_size`` is not given, the benchmark
    sample matches the replication's respondent count.  The spec, the
    replication count, ``quantile`` and ``srs_size`` are validated before
    the first replication.

    Replications run in chunks of ``_CHUNK // spec.total_size`` (at least
    one).  `seeding.derive_keys` computes the Philox keys of about `_KEYS`
    replications, in whole chunks, in one pass.  Within a chunk only the
    draws run replication by replication; the rest are array passes over
    the chunk.  Each error has the bits that `generate_population`,
    `collect_proxy_responses`, `filter_most_accurate` and `estimate_mean`
    give for its replication, and memory does not grow with
    ``replications`` beyond the three error arrays.
    """
    check_population(spec)
    replications = check_replications(replications)
    quantile = check_quantile(quantile)
    if srs_size is not None:
        srs_size = check_srs_size(srs_size, spec.total_size)
    errors = {s: np.empty(replications) for s in SCHEMES}
    per_chunk = max(1, _CHUNK // spec.total_size)
    per_keys = per_chunk * max(1, _KEYS // per_chunk)
    for first in range(0, replications, per_keys):
        # Row 3 * rep + key is (rep, key).
        rows = np.arange(3 * first, 3 * min(first + per_keys, replications))
        keys = derive_keys(seed, np.column_stack(np.divmod(rows, 3))).reshape(-1, 3, 2)
        for start in range(0, len(keys), per_chunk):
            chunk = keys[start : start + per_chunk]
            # Drawn before the previous chunk's draws are released, so that
            # the allocator can reuse their memory rather than trim the heap
            # and fault the pages back in for every chunk.
            draws = _Draws.draw(spec, [rng_from_key(key) for key in chunk[:, 0]])
            done = slice(first + start, first + start + len(chunk))
            for scheme, scheme_errors in zip(SCHEMES, _replicate(draws, acc, quantile, srs_size, chunk)):
                errors[scheme][done] = scheme_errors
    return SchemeComparison(
        replications=replications,
        seed=int(seed),
        mean_error={s: _summary(np.mean, a) for s, a in errors.items()},
        rmse={s: _summary(_rms, a) for s, a in errors.items()},
        stderr_mean={s: _summary(_stderr, a) for s, a in errors.items()},
        errors=errors,
    )


def _replicate(draws: _Draws, acc, quantile, srs_size, keys) -> np.ndarray:
    """Each scheme's errors (rows, in `SCHEMES` order) for the populations drawn from ``keys`` (R, 3, 2)."""
    respondents = draws.holders.sum(axis=1)
    if not respondents.all():
        raise ValueError("no respondents: naive estimate undefined")
    naive, augmented = _respondent_means(draws, acc, quantile, keys[:, 1])
    # The sample is drawn last, once the respondent estimates' arrays are freed.
    sizes = respondents if srs_size is None else np.full(len(keys), srs_size)
    sample = np.empty(sizes.sum())
    ends = np.cumsum(sizes).tolist()
    for value, key, a, b in zip(draws.value, keys[:, 2], [0, *ends], ends):
        _srs(rng_from_key(key), value, sample[a:b])
    truth = draws.value.sum(axis=1) / draws.edges[-1]
    return np.array([naive, augmented, _segment_means(sample, sizes)]) - truth


def _respondent_means(draws: _Draws, acc: AccuracyModel, quantile: float, keys: np.ndarray):
    """The naive and the augmented mean of each replication; ``keys`` are the report streams' keys."""
    n = draws.pairs.sum(axis=1)
    u, noise = np.empty(n.sum()), np.zeros(n.sum())
    ends = np.cumsum(n).tolist()
    for key, a, b in zip(keys, [0, *ends], ends):
        _draw_reports(rng_from_key(key), acc, u[a:b], noise[a:b])
    reported, score = _reports(draws.value.ravel()[draws.paired(holding=False)], u, noise, acc)
    kept = np.flatnonzero(score >= np.repeat(_cuts(score, n, 1.0 - quantile), n))
    # Reports come replication by replication and stratum by stratum.
    bounds = np.concatenate(([0], np.cumsum(draws.pairs)))
    kept_counts = np.diff(kept.searchsorted(bounds)).reshape(draws.pairs.shape)
    own = draws.value.ravel()[draws.holding]
    shares = [s.size / draws.edges[-1] for s in draws.spec.strata]
    return (
        _segment_means(own, draws.holders.sum(axis=1)),
        _augmented(own, draws.holders, reported[kept], kept_counts, shares),
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
