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

`compare_schemes` runs the whole pipeline.  It runs its replications in
chunks of about `_CHUNK` population units: only the draws run once per
replication, each from one of the replication's three streams, and
pairing, report scoring, the quantile cut, the true mean and the three
estimators are array passes over the whole chunk.  Each of those rules is
written once, and so is the layout they share: one helper (`_spans`) cuts
a chunk's flat arrays into their (replication, stratum) segments, each its
own contiguous slice.  So a replication's errors have the same bits
whatever the chunk size.  A call builds one Philox generator and re-keys it
(`densities.rekey`) before each stream's draws: no stage interleaves two
streams, so each stream's draws are those of the generator
``make_rng(derive_seed(seed, rep, key))``, though no such generator is
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._checks import check_count, check_seed
from .densities import make_rng, rekey
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
    replication's streams from its own seed.
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


def _spans(counts) -> list[slice]:
    """The slices of the consecutive segments that ``counts`` (any shape, read row-major) lays out."""
    ends = np.cumsum(counts).tolist()
    return [slice(a, b) for a, b in zip([0, *ends], ends)]


def _segment_means(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of each of the consecutive segments of ``x`` that ``counts`` lays out.

    Each segment is summed alone, on its own contiguous slice (`_spans`):
    numpy's pairwise sum groups a segment's terms by its length only, and
    np.mean divides the same sum by the count, so each mean has the bits of
    ``np.mean`` on that segment.  ``np.add.reduceat`` groups them
    differently.  An empty segment's mean is 0.
    """
    sums = [np.add.reduce(x[span]) for span in _spans(counts)]
    return np.array(sums) / np.maximum(np.ravel(counts), 1)


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
    def draw(cls, spec: PopulationSpec, rngs) -> "_Draws":
        """One population per generator: stratum by stratum, its values, then its attribute draws.

        ``rngs`` is a list of generators, or `_Streams`, which re-keys one
        generator before each population's draws.
        """
        edges = list(accumulate((s.size for s in spec.strata), initial=0))
        value = np.empty((len(rngs), edges[-1]))
        has = np.empty(value.shape, dtype=bool)
        for row, rng in enumerate(rngs):
            for stratum, prob, start, stop in zip(spec.strata, spec.attribute_prob, edges, edges[1:]):
                value[row, start:stop] = rng.normal(stratum.value_mean, stratum.value_sd, stratum.size)
                np.less(rng.random(stratum.size), prob, out=has[row, start:stop])
        holding = np.flatnonzero(has)
        # Every stratum has a unit, so no segment of reduceat's is empty.
        holders = np.add.reduceat(has, edges[:-1], axis=1, dtype=np.int64)
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
        pairs = self.pairs.ravel().tolist()
        return np.concatenate([positions[span][:n] for span, n in zip(_spans(counts), pairs)])


class _Streams:
    """The streams of ``keys`` (an (R, 2) uint64 array of Philox keys) in turn, on one generator.

    Iterating yields ``rng`` once per key, re-keyed to the state
    ``numpy.random.Philox(key=key)`` starts in; a stage makes one stream's
    draws before it asks for the next.
    """

    def __init__(self, rng: np.random.Generator, keys: np.ndarray):
        self.rng, self.keys = rng, keys.tolist()

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        for key in self.keys:
            yield rekey(self.rng, key)


def _reports(target_value: np.ndarray, u: np.ndarray, noise: np.ndarray, acc: AccuracyModel):
    """Reported values and accuracy scores from the targets' values and the report draws.

    A report is exact when its uniform falls below ``p_accurate`` and the
    target's value plus its noise otherwise.  An exact report scores 1,
    another one exp(-|noise| / noise_sd).
    """
    corruption = np.where(u < acc.p_accurate, 0.0, noise)
    decayed = np.exp(-np.abs(corruption) / acc.noise_sd) if acc.noise_sd > 0 else 1.0
    return target_value + corruption, np.where(corruption == 0.0, 1.0, decayed)


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
    agree on data without zeros.  With a +0.0 or -0.0 in a segment, a zero
    cut's sign can differ from numpy's; the scores cut here lie in (0, 1].
    An index at n - 1 gives the maximum.  An empty segment's cut is NaN.
    """
    counts = np.asarray(counts)
    width = max(int(counts.max()), 1)
    padding = np.full(width, np.inf)
    segments = [x[span] for span in _spans(counts)]
    table = np.concatenate([p for seg in segments for p in (seg, padding[len(seg) :])]).reshape(-1, width)
    table.sort(axis=1)
    rows = np.arange(len(counts))
    v = (counts - 1) * q
    k = np.floor(v).astype(np.intp)
    a, b = table[rows, k], table[rows, np.minimum(k + 1, counts - 1)]
    t = v - k
    with np.errstate(invalid="ignore"):
        return np.where(t < 0.5, a + (b - a) * t, b - (b - a) * (1 - t))


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
    pooled = np.concatenate([
        part for o, r in zip(_spans(own_counts), _spans(reported_counts)) for part in (own[o], reported[r])
    ])
    means = _segment_means(pooled, counts).reshape(counts.shape)
    share_sum = weighted = np.zeros(len(counts))
    for covered, share, mean in zip(counts.T > 0, shares, means.T):
        share_sum = np.where(covered, share_sum + share, share_sum)
        weighted = np.where(covered, weighted + share * mean, weighted)
    return weighted / share_sum


@dataclass(frozen=True)
class SchemeComparison:
    """Replicated end-to-end comparison of the three estimation schemes, as plain data.

    Each summary dict maps every scheme of `SCHEMES` to its value, in that
    order.  ``pairing_shortfall`` maps each stratum label to the mean, over
    the replications, of its attribute holders left unpaired because the
    stratum ran out of non-holders; they make no proxy report.  The CLI
    decides how a comparison is written (`pxkit.cli`).
    """

    replications: int
    seed: int
    mean_error: dict[str, float]
    rmse: dict[str, float]
    stderr_mean: dict[str, float]
    errors: dict[str, np.ndarray]
    pairing_shortfall: dict[str, float]


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
    draw from three streams, with keys 0, 1 and 2; only srs_oracle reads the
    third.  Each stream's draws are those of the generator
    ``densities.make_rng`` builds from ``derive_seed(seed, replication
    index, key)``: once its inputs are valid, the call builds one
    generator with ``make_rng(seed)`` and, before each stream's draws, sets
    it to the state ``numpy.random.Philox(key=key)`` starts in for the
    stream's Philox key, which is that generator's initial state.  The
    state it is built in reaches no result.  ``spec.seed`` is not read, so
    it does not change the result.  When ``srs_size`` is not given, the
    benchmark sample matches the replication's respondent count.  The seed (an
    integer in [0, 2**64)), the spec, the replication count, ``quantile``
    and ``srs_size`` are validated, in that order, before the first
    replication.

    Replications run in chunks of ``_CHUNK // spec.total_size`` (at least
    one).  `seeding.derive_keys` computes the Philox keys of about `_KEYS`
    replications, in whole chunks, in one pass.  Within a chunk only the
    draws run replication by replication; the rest are array passes over
    the chunk.  The chunk size never changes an error's bits, and memory
    does not grow with ``replications`` beyond the three error arrays.
    """
    seed = check_seed(seed)
    check_population(spec)
    replications = check_replications(replications)
    quantile = check_quantile(quantile)
    if srs_size is not None:
        srs_size = check_srs_size(srs_size, spec.total_size)
    errors = {s: np.empty(replications) for s in SCHEMES}
    shortfall = np.zeros(len(spec.strata), dtype=np.int64)
    per_chunk = max(1, _CHUNK // spec.total_size)
    per_keys = per_chunk * max(1, _KEYS // per_chunk)
    rng = make_rng(seed)  # re-keyed before each stream's draws, so never drawn from as built
    for first in range(0, replications, per_keys):
        # Row 3 * rep + key is (rep, key).
        rows = np.arange(3 * first, 3 * min(first + per_keys, replications))
        keys = derive_keys(seed, np.column_stack(np.divmod(rows, 3))).reshape(-1, 3, 2)
        for start in range(0, len(keys), per_chunk):
            chunk = keys[start : start + per_chunk]
            # Drawn before the previous chunk's draws are released, so that
            # the allocator can reuse their memory rather than trim the heap
            # and fault the pages back in for every chunk.
            draws = _Draws.draw(spec, _Streams(rng, chunk[:, 0]))
            shortfall += (draws.holders - draws.pairs).sum(axis=0)
            done = slice(first + start, first + start + len(chunk))
            for scheme, scheme_errors in zip(SCHEMES, _replicate(draws, acc, quantile, srs_size, rng, chunk)):
                errors[scheme][done] = scheme_errors
    return SchemeComparison(
        replications=replications,
        seed=seed,
        mean_error={s: _summary(np.mean, a) for s, a in errors.items()},
        rmse={s: _summary(_rms, a) for s, a in errors.items()},
        stderr_mean={s: _summary(_stderr, a) for s, a in errors.items()},
        errors=errors,
        pairing_shortfall={s.label: n / replications for s, n in zip(spec.strata, shortfall.tolist())},
    )


def _replicate(draws: _Draws, acc, quantile, srs_size, rng, keys) -> np.ndarray:
    """Each scheme's errors (rows, in `SCHEMES` order) for the populations drawn from ``keys`` (R, 3, 2).

    ``rng`` is re-keyed to each population's report and SRS streams in turn.
    """
    respondents = draws.holders.sum(axis=1)
    if not respondents.all():
        raise ValueError("no respondents: naive estimate undefined")
    naive, augmented = _respondent_means(draws, acc, quantile, _Streams(rng, keys[:, 1]))
    # The sample is drawn last, once the respondent estimates' arrays are freed.
    sizes = respondents if srs_size is None else np.full(len(keys), srs_size)
    sample = np.empty(sizes.sum())
    for value, sampler, span in zip(draws.value, _Streams(rng, keys[:, 2]), _spans(sizes)):
        drawn = sampler.choice(len(value), size=span.stop - span.start, replace=False)
        np.take(value, drawn, out=sample[span])
    truth = draws.value.sum(axis=1) / draws.edges[-1]
    return np.array([naive, augmented, _segment_means(sample, sizes)]) - truth


def _respondent_means(draws: _Draws, acc: AccuracyModel, quantile: float, reports: _Streams):
    """The naive and the augmented mean of each replication; ``reports`` are its report streams."""
    n = draws.pairs.sum(axis=1)
    u, noise = np.empty(n.sum()), np.zeros(n.sum())
    for rng, span in zip(reports, _spans(n)):
        # The uniforms that decide exact reports, then the noise, if any.
        rng.random(out=u[span])
        if acc.noise_sd > 0:
            noise[span] = rng.normal(0.0, acc.noise_sd, span.stop - span.start)
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
