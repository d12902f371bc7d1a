"""Command-line driver for affinity bounds, Monte Carlo checks and survey runs.

Subcommands: affinity, bound, r-measure, test, mc-sweep, survey, each
named once in `_COMMANDS` with its runner, the model types it accepts, the
config fields it takes as flags and its --plot-data projection.  Each
runner builds and checks the library inputs it reads before any
computation, and `run` checks the run's files once, before the runner.
Values come from defaults, then an INI config file (--config), then
command-line flags, in increasing precedence.  A subcommand takes only the
flags it reads, so any other flag is a usage error; a config file may set
any field, since one file can describe an experiment that several
subcommands share.  Results are written atomically and every results file
gets a ``<name>.manifest.json`` recording the resolved configuration,
seed, library versions and wall time.  Every file layout
lives in this module: the rows of each results file, the --plot-data
projections, the INI sections and the manifest's config record.  The
library returns plain result objects and `reporting` renders records and
lists of records.

Monte Carlo subcommands derive the per-scenario stream from (seed, theta1),
and a test run is a singleton mc-sweep, so both report identical numbers
for the same inputs.

Exit codes: 0 success, 1 numerical failure, 2 configuration error (including
model parameters, hypotheses, replicate counts or survey settings the
library rejects, a seed outside [0, 2**64), flags the subcommand or the
chosen model does not read (such as --theta0 with the tabulated model,
which reads no hypotheses), input files that cannot be read or parsed,
and output paths that name a directory, lie under a regular file or would
overwrite an input file).
The PXKIT_OUT_DIR environment variable supplies the output directory when
--out is omitted.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from ._checks import check_seed
from .affinity import activation_measure, marginal_bound
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

OUT_DIR_ENV = "PXKIT_OUT_DIR"


class ConfigError(ValueError):
    pass


def _require(config: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"field {name!r} is required for command {config.command!r}")


def _build(config, make, *names, args=None):
    """``make`` of the named config fields (or of ``args``); bad input in them is a ConfigError.

    Bad input is a value ``make`` rejects (a number pxkit cannot represent
    included, which `_checks` rejects with ValueError) or a file it cannot
    read.  The error starts with the names of the fields, or only with the
    one that a range check's message names (``"<name> must ..."``, as
    `_checks` words it), so no field that is fine is named.
    """
    _require(config, *names)
    try:
        return make(*(args if args is not None else [getattr(config, n) for n in names]))
    except (ValueError, OSError) as exc:
        message = str(exc)
        named = [n for n in names if message.startswith(f"{n} must ")]
        raise ConfigError(f"{', '.join(named or names)}: {message}") from None


# Model name -> constructor and the config fields it reads.  "tabulated" has
# no model object: affinity loads its two densities from the CSVs itself, so
# it is the one model that reads no hypotheses.
_MODELS = {
    "normal": (make_normal_location, "sigma"),
    "exponential": (make_exponential_rate,),
    "two-stage-normal": (make_two_stage_normal, "n1", "n2", "sigma"),
    "variance-expansion": (make_normal_variance_expansion, "n"),
    "tabulated": (None, "csv_f", "csv_g"),
}


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
    """A config field: INI ``[section] key``, and ``--name`` on the subcommands listing it.

    Optional ``meta``: ``key`` (default: the field name; None makes the field
    the whole section), ``record`` (the (to, from) pair for the JSON manifest
    form; default: stored as is) and argparse ``choices``.  ``parse`` reads
    INI or flag text; ``help`` is the flag's help.  Which subcommands take
    the field as a flag is `_COMMANDS`' business.
    """
    return field(default=default, metadata=dict(meta, section=section, parse=parse, help=help))


_QUAD = QuadratureConfig()  # the integrator's default tolerances and budget


@dataclass
class ExperimentConfig:
    """One experiment; each field's metadata (see `_option`) is its whole schema."""

    command: str = _option("run")
    seed: int = _option("run", 0, int, "base seed for all derived streams, an integer in [0, 2**64)")
    out: str | None = _option(
        "run", None, str, "output path (default: $PXKIT_OUT_DIR/<command>.<format>)"
    )
    format: str = _option("run", "json", str, "output format", choices=FORMATS)
    plot_data: str | None = _option("run", None, str, "also write an x/y CSV projection")
    model: str | None = _option(
        "model", None, str, "model family", key="kind", choices=list(_MODELS)
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
    quantile: float = _option("survey", 1.0, float, "share of proxy reports kept")
    p_accurate: float = _option("survey", 1.0, float, "share of exact proxy reports")
    noise_sd: float = _option("survey", 0.0, float, "sd of inexact proxy reports")
    replications: int = _option("survey", 1000, int, "survey replications")
    srs_size: int | None = _option(
        "survey", None, int, "random-sample benchmark size (default: respondents)"
    )
    population: PopulationSpec | None = _option(
        "population", None, population_spec_from_section, key=None,
        record=(population_record, population_spec_from_record),
    )


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_HYPOTHESES = tuple(n for n, f in _FIELDS.items() if f.metadata["section"] == "hypotheses")
_MODEL_FIELDS = {name for _, *names in _MODELS.values() for name in names} | set(_HYPOTHESES)
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


# Each runner builds the library inputs it reads before any computation: the
# quadrature settings, then the model and hypotheses, then the rest.  The
# library constructors validate their arguments, so input they reject exits 2
# as a configuration error, before numerical work could exit 1.


def _quad(config: ExperimentConfig) -> QuadratureConfig:
    """The quadrature settings of a model subcommand, once it names a model."""
    _require(config, "model")
    return _build(config, QuadratureConfig, "abs_tol", "rel_tol", "max_evaluations")


def _hypotheses(config: ExperimentConfig, sweeping: bool = False):
    """The model, one `SimpleHypotheses` per alternative and the last one's densities.

    The alternatives are ``theta1_list`` when ``sweeping``, else ``theta1``;
    the densities are the marginal ones at its theta1 and at theta0.
    Building them at every hypothesis, each under its own field, checks the
    thetas against the family's parameter space (the exponential rate is
    positive).
    """
    make, *names = _MODELS.get(config.model, (None,))
    model = _build(config, make, *names) if make else None
    if not isinstance(model, _COMMANDS[config.command].accepts):
        raise ConfigError(f"model {config.model!r} is not supported by {config.command!r}")
    names = ("theta0", "theta1_list" if sweeping else "theta1")
    _require(config, *names)
    marginal = model.marginal if isinstance(model, ExpandedModel) else model
    hyps = []
    for theta1 in config.theta1_list if sweeping else (config.theta1,):
        hyps.append(_build(config, SimpleHypotheses, *names, args=(config.theta0, theta1)))
        densities = [
            _build(config, marginal.density_at, n, args=(t,))
            for n, t in ((names[1], theta1), (names[0], config.theta0))
        ]
    return model, hyps, densities


def _cmd_affinity(config: ExperimentConfig):
    quad = _quad(config)
    if config.model == "tabulated":
        densities = [_build(config, load_tabulated_csv, n) for n in ("csv_f", "csv_g")]
    else:
        densities = _hypotheses(config)[2]
    res = compute_affinity(*densities, quad)
    return {
        "affinity": res.value,
        "raw_value": res.raw_value,
        "abs_error_estimate": res.abs_error_estimate,
        "evaluations": res.evaluations,
        "hellinger_sq": 2.0 * (1.0 - res.value),
    }


def _cmd_bound(config: ExperimentConfig):
    quad = _quad(config)
    model, [hyp], _ = _hypotheses(config)
    if isinstance(model, MarginalFamily):
        res = marginal_bound(model, hyp, quad)
        return {
            "bound": res.value,
            "abs_error_estimate": res.abs_error_estimate,
            "evaluations": res.evaluations,
        }
    comp = activation_measure(model, hyp, quad)
    names = ("marginal_bound", "marginal_error", "expanded_bound", "expanded_error")
    return {name: getattr(comp, name) for name in names}


def _cmd_r_measure(config: ExperimentConfig):
    quad = _quad(config)
    model, [hyp], _ = _hypotheses(config)
    comp = activation_measure(model, hyp, quad)
    return {**asdict(comp), "hellinger_sq_gain": comp.hellinger_sq_gain}


def _sweep(config: ExperimentConfig, sweeping: bool = False):
    """The replicates, the test kind ("phi" or "psi") and one mc-sweep row per alternative."""
    from .montecarlo import check_replicates, sweep

    quad = _quad(config)
    model, hyps, _ = _hypotheses(config, sweeping)
    replicates = _build(config, check_replicates, "replicates")
    alternatives = [hyp.theta1 for hyp in hyps]
    table = sweep(model, config.theta0, alternatives, replicates, config.seed, quad)
    return replicates, table.kind, [
        {"theta1": float(theta1), "alpha_hat": c.estimate.alpha_hat,
         "beta_hat": c.estimate.beta_hat, "half_width_alpha": c.estimate.half_width_alpha,
         "half_width_beta": c.estimate.half_width_beta, "bound": c.bound, "slack": c.slack,
         "satisfied": c.satisfied}
        for theta1, c in zip(alternatives, table.checks)
    ]


def _cmd_test(config: ExperimentConfig):
    """A one-row mc-sweep, so both report the same numbers for the same theta1.

    The record puts the run's replicates and seed between the row's estimate
    (its first five fields) and its bound check.
    """
    replicates, kind, [row] = _sweep(config)
    items = list(row.items())
    return {"test": kind, "theta0": float(config.theta0), **dict(items[:5]),
            "replicates": replicates, "seed": int(config.seed), **dict(items[5:])}


def _cmd_mc_sweep(config: ExperimentConfig):
    return _sweep(config, sweeping=True)[2]


def _cmd_survey(config: ExperimentConfig):
    """One row per scheme, in `survey.SCHEMES` order."""
    from .survey import SCHEMES, AccuracyModel, check_population, check_quantile
    from .survey import check_replications, check_srs_size, compare_schemes

    _build(config, check_population, "population")
    size = config.srs_size
    if size is not None:
        args = (size, config.population.total_size)
        size = _build(config, check_srs_size, "srs_size", args=args)
    comp = compare_schemes(
        config.population,
        _build(config, AccuracyModel, "p_accurate", "noise_sd"),
        _build(config, check_quantile, "quantile"),
        _build(config, check_replications, "replications"),
        config.seed,
        srs_size=size,
    )
    return [
        {"scheme": s, "mean_error": comp.mean_error[s], "rmse": comp.rmse[s],
         "replications": comp.replications, "seed": comp.seed}
        for s in SCHEMES
    ]


# A subcommand: its runner, config -> a record (dict) or a list of row
# records; the model types it accepts; the config fields it takes as
# flags, space-separated; and its --plot-data projection, a results row ->
# the x/y(/series) row written for it, or None.
_Command = namedtuple("_Command", "run accepts flags plot", defaults=(None,))
# The flags every model subcommand but affinity takes; each adds its hypotheses.
_BOUND = "out format abs_tol rel_tol max_evaluations model sigma n1 n2 n theta0"
_ANY_MODEL = (MarginalFamily, ExpandedModel)
_COMMANDS = {
    "affinity": _Command(_cmd_affinity, MarginalFamily, "out format abs_tol rel_tol "
                         "max_evaluations model sigma csv_f csv_g theta0 theta1"),
    "bound": _Command(_cmd_bound, _ANY_MODEL, _BOUND + " theta1"),
    "r-measure": _Command(_cmd_r_measure, ExpandedModel, _BOUND + " theta1"),
    "test": _Command(_cmd_test, _ANY_MODEL, _BOUND + " theta1 seed replicates"),
    "mc-sweep": _Command(
        _cmd_mc_sweep, _ANY_MODEL, _BOUND + " theta1_list seed replicates plot_data",
        lambda r: {"theta1": r["theta1"], "error_sum": r["alpha_hat"] + r["beta_hat"],
                   "bound": r["bound"]},
    ),
    "survey": _Command(
        _cmd_survey, None,
        "out format seed quantile p_accurate noise_sd replications srs_size plot_data",
        lambda r: {"scheme": r["scheme"], "rmse": r["rmse"]},
    ),
}
COMMANDS = tuple(_COMMANDS)


def _out_path(config: ExperimentConfig) -> Path:
    if config.out is not None:
        return Path(config.out)
    base = os.environ.get(OUT_DIR_ENV, ".")
    name = config.command.replace("-", "_") + "." + config.format
    return Path(base) / name


def _check_writable(out: Path, config: ExperimentConfig, config_file=None) -> None:
    """A ConfigError naming the field when a file of the run cannot be written.

    That is when the results file, its manifest or the plot file names a
    directory, or lies under a nearest existing ancestor that is not a
    directory, so that its parent cannot be created; or when the plot file
    is the results file or its manifest, which it would overwrite; or when
    any of them is an input: a tabulated density (``csv_f``, ``csv_g``),
    which the manifest records and a replay must find unchanged, or the
    ``config_file`` the run was read from.
    """
    results = [out, manifest_path(out)]
    paths = [("out", path) for path in results]
    if config.plot_data is not None:
        plot = Path(config.plot_data)
        if plot.resolve() in {path.resolve() for path in results}:
            raise ConfigError(f"plot_data: {plot} would overwrite the results file or its manifest")
        paths.append(("plot_data", plot))
    named = {"csv_f": config.csv_f, "csv_g": config.csv_g, "config": config_file}
    inputs = {Path(p).resolve(): n for n, p in named.items() if p}
    for name, path in paths:
        if path.resolve() in inputs:
            raise ConfigError(f"{name}: {path} would overwrite the input {inputs[path.resolve()]}")
        if os.path.isdir(path):
            raise ConfigError(f"{name}: {path} is a directory")
        ancestor = next((p for p in path.parents if os.path.exists(p)), path.parent)
        if not os.path.isdir(ancestor):
            raise ConfigError(f"{name}: {ancestor} is not a directory")


def run(config: ExperimentConfig, config_file=None) -> int:
    """Execute one configured experiment; returns the process exit code.

    ``config_file`` is the INI file ``config`` was read from, if any: an
    input, which no file of the run may replace.
    """
    if config.format not in FORMATS:
        raise ConfigError(f"field 'format' must be csv or json, got {config.format!r}")
    _build(config, check_seed, "seed")
    command = _COMMANDS[config.command]
    if config.plot_data is not None and command.plot is None:
        raise ConfigError(f"field 'plot_data' is not supported for {config.command!r}")
    out = _out_path(config)
    _check_writable(out, config, config_file)
    started = time.perf_counter()
    result = command.run(config)
    text = render_table(result, config.format)
    write_atomic(out, text)
    wall = time.perf_counter() - started
    write_manifest(out, text, config_record(config), wall)
    if config.plot_data is not None:
        plot = [command.plot(row) for row in result]
        write_atomic(config.plot_data, render_table(plot, "csv"))
    print(f"wrote {out}")
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports arguments it does not take under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The ``pxkit`` parser; only the subcommands in ``commands`` get their flags."""
    parser = argparse.ArgumentParser(
        prog="pxkit",
        description="Affinity bounds for simple-hypothesis tests under parameter "
        "expansion, with Monte Carlo checks and survey-augmentation simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for command in COMMANDS:
        # No abbreviations: mc-sweep would take --theta1 for --theta1-list.
        p = sub.add_parser(command, allow_abbrev=False)
        if command not in commands:
            continue
        p.add_argument("--config", help="INI config file; flags override its values")
        for f in (_FIELDS[name] for name in _COMMANDS[command].flags.split()):
            p.add_argument(
                "--" + f.name.replace("_", "-"),
                dest=f.name,
                type=f.metadata["parse"],
                help=f.metadata["help"],
                choices=f.metadata.get("choices"),
            )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's values overridden by the flags given.

    A model or hypothesis field given as a flag that the chosen model does
    not read is a ConfigError; a config file may set any field.
    """
    config = ExperimentConfig(command=args.command)
    if args.config:
        config = apply_config_file(config, args.config)
    given = [name for name in _FIELDS if getattr(args, name, None) is not None]
    for name in given:
        setattr(config, name, getattr(args, name))
    if config.model in _MODELS:
        make, *read = _MODELS[config.model]
        if make:
            read += _HYPOTHESES
        unread = [n for n in given if n in _MODEL_FIELDS and n not in read]
        if unread:
            flags = ", ".join("--" + n.replace("_", "-") for n in unread)
            raise ConfigError(f"model {config.model!r} does not read {flags}")
    return config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option but -h, so a subcommand, when given,
    # is argv[0]; only its flags are built.
    named = argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS
    args = build_parser(named).parse_args(argv)
    try:
        return run(_config_from_args(args), args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureBudgetError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
