"""The configuration schema: flags per subcommand, INI keys per section, per-field round trips."""

import argparse
import configparser
import json
from dataclasses import fields

import pytest

from pxkit.cli import (
    ConfigError,
    ExperimentConfig,
    _config_from_args,
    apply_config_file,
    build_parser,
    config_from_record,
    config_record,
    main,
)
from pxkit.reporting import render_json
from pxkit.survey import PopulationSpec, Stratum

OUTPUT_FLAGS = {"-h", "--help", "--config", "--out", "--format"}
QUAD_FLAGS = {"--abs-tol", "--rel-tol", "--max-evaluations"}
BOUND_FLAGS = OUTPUT_FLAGS | QUAD_FLAGS | {
    "--model", "--sigma", "--n1", "--n2", "--n", "--theta0", "--theta1",
}
TEST_FLAGS = BOUND_FLAGS | {"--seed", "--replicates"}
FLAGS = {
    "affinity": OUTPUT_FLAGS | QUAD_FLAGS | {
        "--model", "--sigma", "--csv-f", "--csv-g", "--theta0", "--theta1",
    },
    "bound": BOUND_FLAGS,
    "r-measure": BOUND_FLAGS,
    "test": TEST_FLAGS,
    "mc-sweep": TEST_FLAGS - {"--theta1"} | {"--theta1-list", "--plot-data"},
    "survey": OUTPUT_FLAGS | {
        "--seed", "--plot-data", "--quantile", "--p-accurate", "--noise-sd", "--replications",
        "--srs-size",
    },
}
INI_KEYS = {
    "run": {"command", "seed", "out", "format", "plot_data"},
    "model": {"kind", "sigma", "n1", "n2", "n", "csv_f", "csv_g"},
    "hypotheses": {"theta0", "theta1", "theta1_list"},
    "quadrature": {"abs_tol", "rel_tol", "max_evaluations"},
    "monte_carlo": {"replicates"},
    "survey": {"quantile", "p_accurate", "noise_sd", "replications", "srs_size"},
    "population": {"seed", "strata"},
}

POPULATION = PopulationSpec(
    strata=(Stratum("A", 10, 0.5, 1.0), Stratum("B", 20, -1.0, 2.0)),
    attribute_prob=(0.25, 0.75),
    seed=3,
)

# A value differing from the default for every field.
NON_DEFAULT = {
    "command": "survey",
    "seed": 42,
    "out": "results.csv",
    "format": "csv",
    "plot_data": "plot.csv",
    "model": "two-stage-normal",
    "sigma": 1.5,
    "n1": 2,
    "n2": 3,
    "n": 5,
    "csv_f": "f.csv",
    "csv_g": "g.csv",
    "theta0": 0.25,
    "theta1": -0.75,
    "theta1_list": (0.5, 1.0, 2.0),
    "abs_tol": 1e-10,
    "rel_tol": 1e-6,
    "max_evaluations": 5000,
    "replicates": 5000,
    "quantile": 0.5,
    "p_accurate": 0.8,
    "noise_sd": 0.3,
    "replications": 20,
    "srs_size": 40,
    "population": POPULATION,
}

# Each NON_DEFAULT value as INI text, written out by hand.
NON_DEFAULT_INI = {
    "command": "[run]\ncommand = survey\n",
    "seed": "[run]\nseed = 42\n",
    "out": "[run]\nout = results.csv\n",
    "format": "[run]\nformat = csv\n",
    "plot_data": "[run]\nplot_data = plot.csv\n",
    "model": "[model]\nkind = two-stage-normal\n",
    "sigma": "[model]\nsigma = 1.5\n",
    "n1": "[model]\nn1 = 2\n",
    "n2": "[model]\nn2 = 3\n",
    "n": "[model]\nn = 5\n",
    "csv_f": "[model]\ncsv_f = f.csv\n",
    "csv_g": "[model]\ncsv_g = g.csv\n",
    "theta0": "[hypotheses]\ntheta0 = 0.25\n",
    "theta1": "[hypotheses]\ntheta1 = -0.75\n",
    "theta1_list": "[hypotheses]\ntheta1_list = 0.5, 1.0; 2\n",
    "abs_tol": "[quadrature]\nabs_tol = 1e-10\n",
    "rel_tol": "[quadrature]\nrel_tol = 1e-6\n",
    "max_evaluations": "[quadrature]\nmax_evaluations = 5000\n",
    "replicates": "[monte_carlo]\nreplicates = 5000\n",
    "quantile": "[survey]\nquantile = 0.5\n",
    "p_accurate": "[survey]\np_accurate = 0.8\n",
    "noise_sd": "[survey]\nnoise_sd = 0.3\n",
    "replications": "[survey]\nreplications = 20\n",
    "srs_size": "[survey]\nsrs_size = 40\n",
    "population": (
        "[population]\nseed = 3\nstrata =\n    A, 10, 0.5, 1.0, 0.25\n    B, 20, -1.0, 2.0, 0.75\n"
    ),
}


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flag_sets_per_subcommand():
    subs = _subparsers(build_parser())
    assert set(subs) == set(FLAGS)
    for command, sub in subs.items():
        flags = {s for a in sub._actions for s in a.option_strings}
        assert flags == FLAGS[command], command


# A command line that each subcommand runs; each case below adds one flag it does not read.
VALID = {
    "affinity": ["affinity", "--model", "exponential", "--theta0", "1", "--theta1", "2"],
    "bound": ["bound", "--model", "normal", "--theta0", "0", "--theta1", "1"],
    "test": ["test", "--model", "normal", "--theta0", "0", "--theta1", "1", "--replicates", "1000"],
    "mc-sweep": ["mc-sweep", "--model", "normal", "--theta0", "0", "--theta1-list", "1",
                 "--replicates", "1000"],
    "survey": ["survey", "--config", "survey.ini", "--replications", "10"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("affinity", "--seed=5"),
        ("affinity", "--replicates=3"),
        ("bound", "--csv-f=f.csv"),
        ("test", "--theta1-list=7"),
        # Not taken as an abbreviation of --theta1-list.
        ("mc-sweep", "--theta1=99"),
        ("survey", "--model=exponential"),
        ("survey", "--abs-tol=-1"),
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PXKIT_OUT_DIR", str(tmp_path))
    (tmp_path / "survey.ini").write_text(
        "[population]\nstrata =\n    A, 100, 0.0, 1.0, 0.9\n    B, 100, 10.0, 1.0, 0.1\n",
        encoding="utf-8",
    )
    with pytest.raises(SystemExit) as exc:
        main([*VALID[command], flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: pxkit {command} ")
    assert f"pxkit {command}: error: unrecognized arguments: {flag}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["survey.ini"]


# The model fields each model reads.
MODEL_FIELDS = {
    "normal": {"sigma"},
    "exponential": set(),
    "two-stage-normal": {"n1", "n2", "sigma"},
    "variance-expansion": {"n"},
    "tabulated": {"csv_f", "csv_g"},
}
UNREAD_MODEL_FIELDS = [
    (model, name)
    for model, read in MODEL_FIELDS.items()
    for name in sorted(set().union(*MODEL_FIELDS.values()) - read)
]


@pytest.mark.parametrize("model, name", UNREAD_MODEL_FIELDS)
def test_model_flag_the_model_does_not_read_exits_2(model, name, tmp_path, monkeypatch, capsys):
    # Only affinity takes the CSV flags; bound takes the others.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PXKIT_OUT_DIR", str(tmp_path))
    command = "affinity" if name.startswith("csv") else "bound"
    flag = "--" + name.replace("_", "-")
    value = "f.csv" if name.startswith("csv") else "2"
    argv = [command, "--model", model, "--theta0", "1", "--theta1", "2", flag, value]
    assert main(argv) == 2
    assert f"model {model!r} does not read {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_file_may_set_a_field_the_model_does_not_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.ini").write_text("[model]\nsigma = 5\nn = 3\n", encoding="utf-8")
    argv = ["bound", "--model", "exponential", "--theta0", "1", "--theta1", "2", "--out", "b.json"]
    assert main([*argv, "--config", "model.ini"]) == 0
    assert main([*argv[:-1], "plain.json"]) == 0
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_parser_of_one_subcommand_is_the_full_parsers(command):
    """`main` builds only the named subcommand's flags; its parser is unchanged by that."""
    full, one = _subparsers(build_parser()), _subparsers(build_parser((command,)))
    assert set(one) == set(full)
    assert one[command].format_help() == full[command].format_help()
    assert all(
        {s for a in sub._actions for s in a.option_strings} == {"-h", "--help"}
        for name, sub in one.items()
        if name != command
    )


def _apply_ini(tmp_path, text, command):
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return apply_config_file(ExperimentConfig(command=command), path)


def test_ini_key_sets_per_section(tmp_path):
    """One file holding every key of INI_KEYS sets every field to its NON_DEFAULT value."""
    cp = configparser.ConfigParser()
    for text in NON_DEFAULT_INI.values():
        cp.read_string(text)
    assert {s: set(cp[s]) for s in cp.sections()} == INI_KEYS
    with open(tmp_path / "all.ini", "w", encoding="utf-8") as fh:
        cp.write(fh)
    config = apply_config_file(ExperimentConfig(command="survey"), tmp_path / "all.ini")
    assert config == ExperimentConfig(**NON_DEFAULT)


@pytest.mark.parametrize("section", sorted(INI_KEYS))
def test_unknown_key_rejected_in_every_section(section, tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        _apply_ini(tmp_path, f"[{section}]\nbogus = 1\n", "affinity")


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="extra"):
        _apply_ini(tmp_path, "[extra]\nseed = 1\n", "affinity")


@pytest.mark.parametrize("out", ["res%1.json", "%(seed)s.json", "100%%.json"])
def test_values_are_read_without_interpolation(out, tmp_path):
    assert _apply_ini(tmp_path, f"[run]\nseed = 5\nout = {out}\n", "bound").out == out


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n", "[DEFAULT]\n"])
def test_default_section_is_an_unknown_section(text, tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        _apply_ini(tmp_path, text, "bound")


def test_non_default_values_cover_every_field():
    assert set(NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)}
    assert set(NON_DEFAULT_INI) == set(NON_DEFAULT)
    defaults = ExperimentConfig(command="affinity")
    for name, value in NON_DEFAULT.items():
        assert getattr(defaults, name) != value, name


def _flag_text(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return str(value)


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_every_field_round_trips(name, tmp_path):
    """A non-default value of each field survives the INI, manifest-record and flag paths."""
    value = NON_DEFAULT[name]
    config = ExperimentConfig(command=value if name == "command" else "survey")
    setattr(config, name, value)

    assert _apply_ini(tmp_path, NON_DEFAULT_INI[name], config.command) == config
    assert config_from_record(json.loads(render_json(config_record(config)))) == config

    flag = "--" + name.replace("_", "-")
    for command, sub in _subparsers(build_parser()).items():
        if flag in sub._option_string_actions:
            args = build_parser().parse_args([command, flag, _flag_text(value)])
            expected = ExperimentConfig(command=command)
            setattr(expected, name, value)
            assert _config_from_args(args) == expected, command
