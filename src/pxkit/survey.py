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
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

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
        if int(self.size) != self.size or self.size <= 0:
            raise ValueError(f"stratum {self.label!r}: size must be a positive integer")
        if self.value_sd < 0:
            raise ValueError(f"stratum {self.label!r}: value_sd must be nonnegative")


@dataclass(frozen=True)
class PopulationSpec:
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
class Unit:
    id: int
    stratum: str
    true_value: float
    has_attribute: bool
    associate_id: int | None = None


@dataclass(frozen=True)
class AccuracyModel:
    """Probability of an exact proxy report and the noise scale otherwise."""

    p_accurate: float
    noise_sd: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_accurate <= 1.0:
            raise ValueError(f"p_accurate must lie in [0, 1], got {self.p_accurate}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be nonnegative, got {self.noise_sd}")


@dataclass(frozen=True)
class ProxyResponse:
    respondent_id: int
    target_id: int
    reported_value: float
    accuracy_score: float


@dataclass(frozen=True)
class Population:
    spec: PopulationSpec
    units: tuple[Unit, ...]
    pairing_shortfall: dict[str, int]

    @property
    def true_mean(self) -> float:
        return float(np.mean([u.true_value for u in self.units]))

    def respondents(self) -> list[Unit]:
        return [u for u in self.units if u.has_attribute]


@dataclass(frozen=True)
class EstimateReport:
    scheme: str
    estimate: float
    n_used: int
    true_population_mean: float
    error: float


def generate_population(spec: PopulationSpec) -> Population:
    """Draw a stratified population with attribute flags and 1:1 pairings.

    Within each stratum, attribute holders are paired with distinct
    non-holders in unit-id order; holders beyond the number of available
    non-holders stay unpaired and the per-stratum shortfall is recorded.
    """
    rng = make_rng(spec.seed)
    units: list[Unit] = []
    shortfall: dict[str, int] = {}
    uid = 0
    for stratum, prob in zip(spec.strata, spec.attribute_prob):
        values = rng.normal(stratum.value_mean, stratum.value_sd, stratum.size)
        flags = rng.random(stratum.size) < prob
        ids = range(uid, uid + stratum.size)
        uid += stratum.size
        holders = [i for i, f in zip(ids, flags) if f]
        non_holders = [i for i, f in zip(ids, flags) if not f]
        associate = dict(zip(holders, non_holders))
        shortfall[stratum.label] = max(0, len(holders) - len(non_holders))
        for i, value, flag in zip(ids, values, flags):
            units.append(
                Unit(
                    id=i,
                    stratum=stratum.label,
                    true_value=float(value),
                    has_attribute=bool(flag),
                    associate_id=associate.get(i),
                )
            )
    return Population(spec=spec, units=tuple(units), pairing_shortfall=shortfall)


def collect_proxy_responses(
    pop: Population, acc: AccuracyModel, seed: int
) -> list[ProxyResponse]:
    """One proxy report per paired respondent for its associated unit.

    A report is the target's exact value with probability ``p_accurate``,
    otherwise the value plus centered normal noise.  The accuracy score is
    1 for exact reports and decays exponentially in the absolute
    corruption (in noise-sd units) otherwise.
    """
    by_id = {u.id: u for u in pop.units}
    paired = [u for u in pop.units if u.has_attribute and u.associate_id is not None]
    n = len(paired)
    if n == 0:
        return []
    rng = make_rng(seed)
    exact = rng.random(n) < acc.p_accurate
    noise = rng.normal(0.0, acc.noise_sd, n) if acc.noise_sd > 0 else np.zeros(n)
    corruption = np.where(exact, 0.0, noise)
    with np.errstate(divide="ignore", invalid="ignore"):
        decayed = np.exp(-np.abs(corruption) / acc.noise_sd) if acc.noise_sd > 0 else np.ones(n)
    scores = np.where(corruption == 0.0, 1.0, decayed)
    out = []
    for u, c, s in zip(paired, corruption, scores):
        target = by_id[u.associate_id]
        out.append(
            ProxyResponse(
                respondent_id=u.id,
                target_id=target.id,
                reported_value=target.true_value + float(c),
                accuracy_score=float(s),
            )
        )
    return out


def filter_most_accurate(
    responses: Sequence[ProxyResponse], quantile: float
) -> list[ProxyResponse]:
    """Keep the top `quantile` share of responses by accuracy score.

    The cut is the (1 - quantile) empirical quantile of the scores; ties at
    the cut are kept, input order is preserved.
    """
    if not responses:
        raise ValueError("no responses to filter")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    scores = np.array([r.accuracy_score for r in responses])
    threshold = float(np.quantile(scores, 1.0 - quantile))
    return [r for r in responses if r.accuracy_score >= threshold]


def estimate_mean(
    pop: Population,
    responses: Sequence[ProxyResponse],
    scheme: str,
    srs_size: int = 0,
    seed: int = 0,
) -> EstimateReport:
    """Population-mean estimate under one of the three schemes.

    naive_attribute_only averages the respondents' own values; augmented
    post-stratifies the pooled respondent self-reports and proxy reports
    using population stratum shares (renormalized over covered strata);
    srs_oracle averages a seeded simple random sample of the whole
    population.
    """
    truth = pop.true_mean
    if scheme == "naive_attribute_only":
        values = [u.true_value for u in pop.units if u.has_attribute]
        if not values:
            raise ValueError("no respondents: naive estimate undefined")
        est = float(np.mean(values))
        return EstimateReport(scheme, est, len(values), truth, est - truth)

    if scheme == "augmented":
        by_id = {u.id: u for u in pop.units}
        per_stratum: dict[str, list[float]] = {s.label: [] for s in pop.spec.strata}
        for u in pop.units:
            if u.has_attribute:
                per_stratum[u.stratum].append(u.true_value)
        for r in responses:
            per_stratum[by_id[r.target_id].stratum].append(r.reported_value)
        total = pop.spec.total_size
        covered = [(s, per_stratum[s.label]) for s in pop.spec.strata if per_stratum[s.label]]
        if not covered:
            raise ValueError("no respondents or proxy reports: augmented estimate undefined")
        share_sum = sum(s.size / total for s, _ in covered)
        est = sum((s.size / total) * float(np.mean(vals)) for s, vals in covered) / share_sum
        n_used = sum(len(vals) for _, vals in covered)
        return EstimateReport(scheme, est, n_used, truth, est - truth)

    if scheme == "srs_oracle":
        n_pop = len(pop.units)
        if not 1 <= srs_size <= n_pop:
            raise ValueError(f"srs_size must lie in [1, {n_pop}], got {srs_size}")
        idx = make_rng(seed).choice(n_pop, size=int(srs_size), replace=False)
        est = float(np.mean([pop.units[i].true_value for i in idx]))
        return EstimateReport(scheme, est, int(srs_size), truth, est - truth)

    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@dataclass(frozen=True)
class SchemeComparison:
    """Replicated end-to-end comparison of the three estimation schemes."""

    replications: int
    seed: int
    mean_error: dict[str, float]
    rmse: dict[str, float]
    stderr_mean: dict[str, float]
    errors: dict[str, np.ndarray]

    columns: ClassVar[tuple[str, ...]] = ("scheme", "mean_error", "rmse", "replications", "seed")

    def records(self) -> list[dict]:
        return [
            {
                "scheme": scheme,
                "mean_error": self.mean_error[scheme],
                "rmse": self.rmse[scheme],
                "replications": self.replications,
                "seed": self.seed,
            }
            for scheme in SCHEMES
        ]


def check_replications(replications: int) -> int:
    """The replication count as an int; raises ValueError below the minimum of 10."""
    if replications < 10:
        raise ValueError(f"need at least 10 replications, got {replications}")
    return int(replications)


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
    draw from seeds derived of (seed, replication index).  When
    ``srs_size`` is not given, the benchmark sample matches the
    replication's respondent count.
    """
    replications = check_replications(replications)
    errors: dict[str, list[float]] = {s: [] for s in SCHEMES}
    for rep in range(replications):
        pop = generate_population(replace(spec, seed=derive_seed(seed, rep, 0)))
        responses = collect_proxy_responses(pop, acc, derive_seed(seed, rep, 1))
        kept = filter_most_accurate(responses, quantile) if responses else []
        n_resp = sum(1 for u in pop.units if u.has_attribute)
        size = srs_size if srs_size is not None else max(1, n_resp)
        for scheme in SCHEMES:
            report = estimate_mean(
                pop, kept, scheme, srs_size=size, seed=derive_seed(seed, rep, 2)
            )
            errors[scheme].append(report.error)
    arrays = {s: np.array(v) for s, v in errors.items()}
    return SchemeComparison(
        replications=replications,
        seed=int(seed),
        mean_error={s: float(np.mean(a)) for s, a in arrays.items()},
        rmse={s: float(np.sqrt(np.mean(a * a))) for s, a in arrays.items()},
        stderr_mean={s: float(np.std(a, ddof=1) / math.sqrt(len(a))) for s, a in arrays.items()},
        errors=arrays,
    )


def load_population_spec(path: str | Path) -> PopulationSpec:
    """Read a PopulationSpec from a config file.

    Expected layout::

        [population]
        seed = 1
        strata =
            A, 100, 0.0, 1.0, 0.9
            B, 100, 10.0, 1.0, 0.1

    Each stratum line is label, size, value mean, value sd, attribute
    probability.
    """
    cp = configparser.ConfigParser()
    read = cp.read(path, encoding="utf-8")
    if not read:
        raise ValueError(f"cannot read config file {path}")
    if "population" not in cp:
        raise ValueError(f"{path}: missing [population] section")
    try:
        return population_spec_from_section(dict(cp["population"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def population_spec_from_section(section: dict) -> PopulationSpec:
    """Parse the keys of a ``[population]`` INI section (see `load_population_spec`)."""
    unknown = set(section) - {"seed", "strata"}
    if unknown:
        raise ValueError(f"unknown population key(s): {', '.join(sorted(unknown))}")
    if "strata" not in section:
        raise ValueError("population.strata is required")
    strata = []
    probs = []
    for line in str(section["strata"]).strip().splitlines():
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise ValueError(
                f"stratum line needs label, size, mean, sd, attribute_prob: {line!r}"
            )
        label, size, mean, sd, prob = parts
        strata.append(Stratum(label, int(size), float(mean), float(sd)))
        probs.append(float(prob))
    seed = int(section.get("seed", 0))
    return PopulationSpec(strata=tuple(strata), attribute_prob=tuple(probs), seed=seed)


def population_spec_to_section(spec: PopulationSpec) -> dict[str, str]:
    """Inverse of `population_spec_from_section`: one stratum line per stratum."""
    lines = [", ".join(str(v) for v in row.values()) for row in population_record(spec)["strata"]]
    return {"seed": str(spec.seed), "strata": "\n" + "\n".join(lines)}


def population_record(spec: PopulationSpec) -> dict:
    """JSON-ready form of a spec: its seed and one column dict per stratum."""
    return {
        "seed": spec.seed,
        "strata": [
            {
                "label": s.label,
                "size": s.size,
                "value_mean": s.value_mean,
                "value_sd": s.value_sd,
                "attribute_prob": p,
            }
            for s, p in zip(spec.strata, spec.attribute_prob)
        ],
    }


def population_spec_from_record(record: dict) -> PopulationSpec:
    """Inverse of `population_record`."""
    rows = record["strata"]
    return PopulationSpec(
        strata=tuple(Stratum(r["label"], r["size"], r["value_mean"], r["value_sd"]) for r in rows),
        attribute_prob=tuple(r["attribute_prob"] for r in rows),
        seed=record["seed"],
    )
