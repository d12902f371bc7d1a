"""Command-line driver for affinity bounds, Monte Carlo checks and survey runs.

Subcommands: affinity, bound, r-measure, test, mc-sweep, survey.  Values
come from defaults, then an INI config file (--config), then command-line
flags, in increasing precedence.  Results are written atomically and every
results file gets a ``<name>.manifest.json`` recording the resolved
configuration, seed, library versions and wall time.  Every file layout
lives in this module: the rows of each results file, the --plot-data
projections, the INI sections and the manifest's config record.  The
library returns plain result objects and `reporting` renders records and
lists of records.

Monte Carlo subcommands derive the per-scenario stream from (seed, theta1),
and a test run is a singleton mc-sweep, so both report identical numbers
for the same inputs.

Exit codes: 0 success, 1 numerical failure, 2 configuration error (including
model parameters, hypotheses, replicate counts or survey settings the
library rejects, input files that cannot be read or parsed, and output
paths that name a directory or lie under a regular file).
The PXKIT_OUT_DIR environment variable supplies the output directory when
--out is omitted.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .affinity import activation_measure, expanded_bound, marginal_bound
from .affinity import affinity as compute_affinity
from .densities import load_tabulated_csv
from .models import (
    ExpandedModel,
    MarginalFamily,
    SimpleHypotheses,
    make_exponential_rate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
)
from .quadrature import QuadratureBudgetError, QuadratureConfig
from .reporting import FORMATS, manifest_path, render_table, write_atomic, write_manifest

if TYPE_CHECKING:
    from .survey import PopulationSpec

# The montecarlo and survey layers, and configparser, are imported only by
# the subcommands and config paths that use them, so that affinity, bound
# and r-measure start without loading them.

COMMANDS = ("affinity", "bound", "r-measure", "test", "mc-sweep", "survey")
# Subcommand -> the long-format x/y(/series) row --plot-data writes for each results row.
_PLOTS = {
    "mc-sweep": lambda r: {
        "theta1": r["theta1"], "error_sum": r["alpha_hat"] + r["beta_hat"], "bound": r["bound"]
    },
    "survey": lambda r: {"scheme": r["scheme"], "rmse": r["rmse"]},
}
PLOT_COMMANDS = tuple(_PLOTS)
SURVEY = ("survey",)
OUT_DIR_ENV = "PXKIT_OUT_DIR"


class ConfigError(ValueError):
    pass


def _require(config: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"field {name!r} is required for command {config.command!r}")


def _build(config, make, *names, args=None):
    """``make`` of the named config fields (or of ``args``); bad input in them is a ConfigError.

    Bad input is a value ``make`` rejects or a file it cannot read.
    """
    _require(config, *names)
    try:
        return make(*(args if args is not None else [getattr(config, n) for n in names]))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{', '.join(names)}: {exc}") from None


# Model name -> constructor and the config fields it takes ("tabulated" reads two CSVs).
_MODELS = {
    "normal": (make_normal_location, "sigma"),
    "exponential": (make_exponential_rate,),
    "two-stage-normal": (make_two_stage_normal, "n1", "n2", "sigma"),
    "variance-expansion": (make_normal_variance_expansion, "n"),
}
# The model types each command accepts; the others take both.
_ACCEPTS = {"affinity": MarginalFamily, "r-measure": ExpandedModel}


def float_list(text: str) -> tuple[float, ...]:
    """Floats separated by commas or semicolons, as in ``theta1_list``."""
    parts = [p.strip() for p in text.replace(";", ",").split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def population_spec_from_section(section: dict) -> PopulationSpec:
    """Parse the keys of a ``[population]`` INI section.

    Expected layout::

        [population]
        seed = 1
        strata =
            A, 100, 0.0, 1.0, 0.9
            B, 100, 10.0, 1.0, 0.1

    Each stratum line is label, size, value mean, value sd, attribute
    probability.  ``seed`` is the spec's own seed (default 0); `compare_schemes`
    does not read it.
    """
    from .survey import PopulationSpec, Stratum

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


def population_record(spec: PopulationSpec) -> dict:
    """JSON-ready form of a spec: its seed and per stratum `Stratum`'s fields and attribute_prob."""
    strata = [{**asdict(s), "attribute_prob": p} for s, p in zip(spec.strata, spec.attribute_prob)]
    return {"seed": spec.seed, "strata": strata}


def population_spec_from_record(record: dict) -> PopulationSpec:
    """Inverse of `population_record`."""
    from .survey import PopulationSpec, Stratum

    rows = [dict(r) for r in record["strata"]]
    probs = tuple(r.pop("attribute_prob") for r in rows)
    return PopulationSpec(tuple(Stratum(**r) for r in rows), probs, record["seed"])


def _option(section, default=MISSING, parse=str, help=None, **meta):
    """A config field: INI ``[section] key``, and ``--name`` on the ``flags`` subcommands.

    Optional ``meta``: ``key`` (default: the field name; None makes the field
    the whole section), ``flags`` (default: every subcommand), ``record`` (the
    (to, from) pair for the JSON manifest form; default: stored as is) and
    argparse ``choices``.
    ``parse`` reads INI or flag text; ``help`` is the flag's help.
    """
    return field(default=default, metadata=dict(meta, section=section, parse=parse, help=help))


_QUAD = QuadratureConfig()  # the integrator's default tolerances and budget


@dataclass
class ExperimentConfig:
    """One experiment; each field's metadata (see `_option`) is its whole schema."""

    command: str = _option("run", flags=())
    seed: int = _option("run", 0, int, "base seed for all derived streams")
    out: str | None = _option(
        "run", None, str, "output path (default: $PXKIT_OUT_DIR/<command>.<format>)"
    )
    format: str = _option("run", "json", str, "output format", choices=FORMATS)
    plot_data: str | None = _option(
        "run", None, str, "also write an x/y CSV projection", flags=PLOT_COMMANDS
    )
    model: str | None = _option(
        "model", None, str, "model family", key="kind", choices=[*_MODELS, "tabulated"]
    )
    sigma: float = _option("model", 1.0, float, "observation sd (normal, two-stage-normal)")
    n1: int = _option("model", 1, int, "observations behind t1 (two-stage-normal)")
    n2: int = _option("model", 1, int, "observations behind t2 (two-stage-normal)")
    n: int = _option("model", 2, int, "sample size (variance-expansion)")
    csv_f: str | None = _option("model", None, str, "grid,value CSV of the density f (tabulated)")
    csv_g: str | None = _option("model", None, str, "grid,value CSV of the density g (tabulated)")
    theta0: float | None = _option("hypotheses", None, float, "null parameter value")
    theta1: float | None = _option("hypotheses", None, float, "alternative parameter value")
    theta1_list: tuple[float, ...] | None = _option(
        "hypotheses", None, float_list, "comma-separated alternatives", record=(list, tuple)
    )
    abs_tol: float = _option("quadrature", _QUAD.abs_tol, float, "absolute quadrature tolerance")
    rel_tol: float = _option("quadrature", _QUAD.rel_tol, float, "relative quadrature tolerance")
    max_evaluations: int = _option(
        "quadrature", _QUAD.max_evaluations, int, "integrand evaluation budget"
    )
    replicates: int = _option("monte_carlo", 100_000, int, "Monte Carlo replicates per hypothesis")
    quantile: float = _option("survey", 1.0, float, "share of proxy reports kept", flags=SURVEY)
    p_accurate: float = _option("survey", 1.0, float, "share of exact proxy reports", flags=SURVEY)
    noise_sd: float = _option("survey", 0.0, float, "sd of inexact proxy reports", flags=SURVEY)
    replications: int = _option("survey", 1000, int, "survey replications", flags=SURVEY)
    srs_size: int | None = _option(
        "survey", None, int, "random-sample benchmark size (default: respondents)", flags=SURVEY
    )
    population: PopulationSpec | None = _option(
        "population", None, population_spec_from_section, key=None, flags=(),
        record=(population_record, population_spec_from_record),
    )


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_INI = {(f.metadata["section"], f.metadata.get("key", f.name)): f for f in _FIELDS.values()}
_SECTIONS = {section for section, _ in _INI}


def apply_config_file(config: ExperimentConfig, path: str | Path) -> ExperimentConfig:
    """``config`` updated from an INI file; a bad section, key or value is a ConfigError."""
    import configparser

    # Values are read literally, without %-interpolation.  No section header
    # can name "\n", so a [DEFAULT] section is an unknown section like any
    # other instead of keys copied into every section.
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        read = cp.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        # A field keyed None takes the whole section and checks its keys itself.
        whole = (section, None) in _INI
        for key, raw in [(None, dict(cp[section]))] if whole else cp[section].items():
            if (section, key) not in _INI:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            f = _INI[section, key]
            try:
                value = f.metadata["parse"](raw)
            except ValueError as exc:
                name = section if whole else f"{section}.{key}"
                raise ConfigError(f"{path}: {name}: {exc}") from None
            if f.name == "command" and value != config.command:
                raise ConfigError(
                    f"{path}: run.command {raw!r} does not match subcommand {config.command!r}"
                )
            setattr(config, f.name, value)
    return config


def config_record(config: ExperimentConfig) -> dict:
    """The config as JSON-ready values, in field order, for run manifests."""
    return {f.name: _recorded(f, getattr(config, f.name), 0) for f in fields(config)}


def config_from_record(record: dict) -> ExperimentConfig:
    """Rebuild a config from a manifest's config record (inverse of config_record)."""
    return ExperimentConfig(**{k: _recorded(_FIELDS[k], v, 1) for k, v in record.items()})


def _recorded(f, value, direction: int):
    """``value`` converted to (direction 0) or from (1) its manifest form."""
    record = f.metadata.get("record")
    return value if value is None or record is None else record[direction](value)


def _inputs(config: ExperimentConfig) -> SimpleNamespace:
    """Every library input object the command needs, built before any computation.

    The library constructors validate their arguments, so input they reject
    exits 2 as a configuration error, before numerical work could exit 1.
    """
    if config.command == "survey":
        from .survey import (
            AccuracyModel,
            check_population,
            check_quantile,
            check_replications,
            check_srs_size,
        )

        _build(config, check_population, "population")
        size = config.srs_size
        if size is not None:
            args = (size, config.population.total_size)
            size = _build(config, check_srs_size, "srs_size", args=args)
        return SimpleNamespace(
            accuracy=_build(config, AccuracyModel, "p_accurate", "noise_sd"),
            quantile=_build(config, check_quantile, "quantile"),
            replications=_build(config, check_replications, "replications"),
            srs_size=size,
        )
    _require(config, "model")
    quad = _build(config, QuadratureConfig, "abs_tol", "rel_tol", "max_evaluations")
    if config.command == "affinity" and config.model == "tabulated":
        densities = [_build(config, load_tabulated_csv, n) for n in ("csv_f", "csv_g")]
        return SimpleNamespace(quad=quad, densities=densities)
    model = _build(config, *_MODELS[config.model]) if config.model in _MODELS else None
    if not isinstance(model, _ACCEPTS.get(config.command, (MarginalFamily, ExpandedModel))):
        raise ConfigError(f"model {config.model!r} is not supported by {config.command!r}")
    sweeping = config.command == "mc-sweep"
    names = ("theta0", "theta1_list" if sweeping else "theta1")
    _require(config, *names)
    alternatives = config.theta1_list if sweeping else (config.theta1,)
    # Building the marginal densities at every hypothesis checks the thetas
    # against the family's parameter space (the exponential rate is positive).
    marginal = model.marginal if isinstance(model, ExpandedModel) else model
    for theta1 in alternatives:
        hyp = _build(config, SimpleHypotheses, *names, args=(config.theta0, theta1))
        densities = [
            _build(config, marginal.density_at, *names, args=(t,)) for t in (theta1, config.theta0)
        ]
    replicates = None
    if config.command in ("test", "mc-sweep"):
        from .montecarlo import check_replicates

        replicates = _build(config, check_replicates, "replicates")
    return SimpleNamespace(
        quad=quad, model=model, hyp=hyp, densities=densities, alternatives=alternatives,
        replicates=replicates,
    )


def _cmd_affinity(config: ExperimentConfig, inp: SimpleNamespace):
    res = compute_affinity(*inp.densities, inp.quad)
    return {
        "affinity": res.value,
        "raw_value": res.raw_value,
        "abs_error_estimate": res.abs_error_estimate,
        "evaluations": res.evaluations,
        "hellinger_sq": 2.0 * (1.0 - res.value),
    }


def _cmd_bound(config: ExperimentConfig, inp: SimpleNamespace):
    if isinstance(inp.model, MarginalFamily):
        res = marginal_bound(inp.model, inp.hyp, inp.quad)
        return {
            "bound": res.value,
            "abs_error_estimate": res.abs_error_estimate,
            "evaluations": res.evaluations,
        }
    mb = marginal_bound(inp.model.marginal, inp.hyp, inp.quad)
    eb = expanded_bound(inp.model, inp.hyp, inp.quad)
    return {
        "marginal_bound": mb.value,
        "marginal_error": mb.abs_error_estimate,
        "expanded_bound": eb.value,
        "expanded_error": eb.abs_error_estimate,
    }


def _cmd_r_measure(config: ExperimentConfig, inp: SimpleNamespace):
    comp = activation_measure(inp.model, inp.hyp, inp.quad)
    return {**asdict(comp), "hellinger_sq_gain": comp.hellinger_sq_gain}


def _sweep(config: ExperimentConfig, inp: SimpleNamespace):
    """The test kind ("phi" or "psi") and one mc-sweep row per alternative."""
    from .montecarlo import sweep

    table = sweep(
        inp.model, config.theta0, inp.alternatives, inp.replicates, config.seed, inp.quad
    )
    return table.kind, [
        {"theta1": float(theta1), "alpha_hat": c.estimate.alpha_hat,
         "beta_hat": c.estimate.beta_hat, "half_width_alpha": c.estimate.half_width_alpha,
         "half_width_beta": c.estimate.half_width_beta, "bound": c.bound, "slack": c.slack,
         "satisfied": c.satisfied}
        for theta1, c in zip(inp.alternatives, table.checks)
    ]


def _cmd_test(config: ExperimentConfig, inp: SimpleNamespace):
    """A one-row mc-sweep, so both report the same numbers for the same theta1.

    The record puts the run's replicates and seed between the row's estimate
    (its first five fields) and its bound check.
    """
    kind, [row] = _sweep(config, inp)
    items = list(row.items())
    return {"test": kind, "theta0": float(config.theta0), **dict(items[:5]),
            "replicates": inp.replicates, "seed": int(config.seed), **dict(items[5:])}


def _cmd_mc_sweep(config: ExperimentConfig, inp: SimpleNamespace):
    return _sweep(config, inp)[1]


def _cmd_survey(config: ExperimentConfig, inp: SimpleNamespace):
    """One row per scheme, in `survey.SCHEMES` order."""
    from .survey import SCHEMES, compare_schemes

    comp = compare_schemes(
        config.population,
        inp.accuracy,
        inp.quantile,
        inp.replications,
        config.seed,
        srs_size=inp.srs_size,
    )
    return [
        {"scheme": s, "mean_error": comp.mean_error[s], "rmse": comp.rmse[s],
         "replications": comp.replications, "seed": comp.seed}
        for s in SCHEMES
    ]


_RUNNERS = {
    "affinity": _cmd_affinity,
    "bound": _cmd_bound,
    "r-measure": _cmd_r_measure,
    "test": _cmd_test,
    "mc-sweep": _cmd_mc_sweep,
    "survey": _cmd_survey,
}


def _out_path(config: ExperimentConfig) -> Path:
    if config.out is not None:
        return Path(config.out)
    base = os.environ.get(OUT_DIR_ENV, ".")
    name = config.command.replace("-", "_") + "." + config.format
    return Path(base) / name


def _check_writable(out: Path, config: ExperimentConfig) -> None:
    """A ConfigError naming the field when a file of the run cannot be written.

    That is when the results file, its manifest or the plot file names a
    directory, or lies under a nearest existing ancestor that is not a
    directory, so that its parent cannot be created; or when the plot file
    is the results file or its manifest, which it would overwrite; or when
    any of them is a tabulated input (``csv_f``, ``csv_g``), which the
    manifest records and a replay must find unchanged.
    """
    results = [out, manifest_path(out)]
    paths = [("out", path) for path in results]
    if config.plot_data is not None:
        plot = Path(config.plot_data)
        if plot.resolve() in {path.resolve() for path in results}:
            raise ConfigError(f"plot_data: {plot} would overwrite the results file or its manifest")
        paths.append(("plot_data", plot))
    inputs = {Path(p).resolve(): n for n in ("csv_f", "csv_g") if (p := getattr(config, n))}
    for name, path in paths:
        if path.resolve() in inputs:
            raise ConfigError(f"{name}: {path} would overwrite the input {inputs[path.resolve()]}")
        if os.path.isdir(path):
            raise ConfigError(f"{name}: {path} is a directory")
        ancestor = next((p for p in path.parents if os.path.exists(p)), path.parent)
        if not os.path.isdir(ancestor):
            raise ConfigError(f"{name}: {ancestor} is not a directory")


def run(config: ExperimentConfig) -> int:
    """Execute one configured experiment; returns the process exit code."""
    if config.format not in FORMATS:
        raise ConfigError(f"field 'format' must be csv or json, got {config.format!r}")
    if config.plot_data is not None and config.command not in PLOT_COMMANDS:
        raise ConfigError(f"field 'plot_data' is not supported for {config.command!r}")
    out = _out_path(config)
    _check_writable(out, config)
    started = time.perf_counter()
    # A record (dict) or, for mc-sweep and survey, a list of row records.
    result = _RUNNERS[config.command](config, _inputs(config))
    text = render_table(result, config.format)
    write_atomic(out, text)
    wall = time.perf_counter() - started
    write_manifest(out, text, config_record(config), wall)
    if config.plot_data is not None:
        plot = [_PLOTS[config.command](row) for row in result]
        write_atomic(config.plot_data, render_table(plot, "csv"))
    print(f"wrote {out}")
    return 0


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The ``pxkit`` parser; only the subcommands in ``commands`` get their flags."""
    parser = argparse.ArgumentParser(
        prog="pxkit",
        description="Affinity bounds for simple-hypothesis tests under parameter "
        "expansion, with Monte Carlo checks and survey-augmentation simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        if command not in commands:
            continue
        p.add_argument("--config", help="INI config file; flags override its values")
        for f in _FIELDS.values():
            if command in f.metadata.get("flags", COMMANDS):
                p.add_argument(
                    "--" + f.name.replace("_", "-"),
                    dest=f.name,
                    type=f.metadata["parse"],
                    help=f.metadata["help"],
                    choices=f.metadata.get("choices"),
                )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig(command=args.command)
    if args.config:
        config = apply_config_file(config, args.config)
    for name in _FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    return config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option but -h, so a subcommand, when given,
    # is argv[0]; only its flags are built.
    named = argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS
    args = build_parser(named).parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureBudgetError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
