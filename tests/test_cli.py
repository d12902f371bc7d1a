"""CLI subcommands end to end: outputs, manifests, config handling, exit codes."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pxkit

from pxkit.cli import (
    ConfigError,
    ExperimentConfig,
    apply_config_file,
    config_from_record,
    main,
    run,
)
from pxkit.reporting import FORMATS, render_table, write_atomic
from pxkit.survey import PopulationSpec, Stratum

SURVEY_INI = """
[run]
seed = 11

[survey]
quantile = 1.0
p_accurate = 1.0
noise_sd = 0.0
replications = 50

[population]
seed = 7
strata =
    A, 50, 0.0, 1.0, 0.9
    B, 50, 10.0, 1.0, 0.1
"""


def run_cli(*args):
    return main(list(args))


class TestSubcommands:
    def test_r_measure_json(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "r-measure", "--model", "two-stage-normal", "--n1", "1", "--n2", "1",
            "--sigma", "1", "--theta0", "0", "--theta1", "1", "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["marginal_bound"] == pytest.approx(0.8824969025845955, abs=1e-7)
        assert data["expanded_bound"] == pytest.approx(0.7788007830714049, abs=1e-7)
        assert data["r_measure"] == pytest.approx(0.10369611951319058, abs=1e-7)
        assert data["strict"] is True
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["config"]["model"] == "two-stage-normal"
        assert manifest["results_file"] == "r.json"
        assert "wall_time_s" in manifest and "versions" in manifest

    def test_affinity_and_bound(self, tmp_path):
        out = tmp_path / "a.json"
        assert run_cli(
            "affinity", "--model", "exponential", "--theta0", "1", "--theta1", "2",
            "--out", str(out),
        ) == 0
        data = json.loads(out.read_text())
        assert data["affinity"] == pytest.approx(0.9428090415820635, abs=1e-8)
        assert data["hellinger_sq"] == pytest.approx(2 * (1 - 0.9428090415820635), abs=1e-8)

        out2 = tmp_path / "b.json"
        assert run_cli(
            "bound", "--model", "normal", "--sigma", "1", "--theta0", "0",
            "--theta1", "1", "--out", str(out2),
        ) == 0
        assert json.loads(out2.read_text())["bound"] == pytest.approx(0.88249690, abs=1e-7)

    def test_affinity_tabulated(self, tmp_path):
        fa = tmp_path / "f.csv"
        fb = tmp_path / "g.csv"
        fa.write_text("0,1\n1,1\n", encoding="utf-8")
        fb.write_text("2,1\n3,1\n", encoding="utf-8")
        out = tmp_path / "a.json"
        assert run_cli(
            "affinity", "--model", "tabulated", "--csv-f", str(fa), "--csv-g", str(fb),
            "--out", str(out),
        ) == 0
        assert json.loads(out.read_text())["affinity"] == 0.0

    def test_sweep_csv_and_plot_data(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "plot.csv"
        code = run_cli(
            "mc-sweep", "--model", "normal", "--sigma", "1", "--theta0", "0",
            "--theta1-list", "0.5,1", "--replicates", "2000", "--seed", "3",
            "--format", "csv", "--out", str(out), "--plot-data", str(plot),
        )
        assert code == 0
        header, *rows = out.read_text().strip().splitlines()
        assert header == "theta1,alpha_hat,beta_hat,half_width_alpha,half_width_beta,bound,slack,satisfied"
        assert len(rows) == 2
        assert all(r.endswith(",true") for r in rows)
        assert plot.read_text().splitlines()[0] == "theta1,error_sum,bound"

    def test_survey_from_config(self, tmp_path):
        cfg = tmp_path / "survey.ini"
        cfg.write_text(SURVEY_INI, encoding="utf-8")
        out = tmp_path / "survey.csv"
        assert run_cli("survey", "--config", str(cfg), "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scheme,mean_error,rmse,replications,seed"
        assert len(lines) == 4

    def test_survey_with_large_finite_errors(self, tmp_path):
        # Stratum A's values reach about 1e300, so squared errors overflow a double.
        cfg = tmp_path / "survey.ini"
        text = SURVEY_INI.replace("A, 50, 0.0, 1.0", "A, 100, 0.0, 1e300").replace("B, 50", "B, 100")
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "survey.json"
        assert run_cli(
            "survey", "--config", str(cfg), "--replications", "10", "--seed", "1",
            "--out", str(out),
        ) == 0
        rows = json.loads(out.read_text())
        assert all(math.isfinite(r["rmse"]) and r["rmse"] > 1e280 for r in rows)

    def test_singleton_sweep_matches_test_run(self, tmp_path):
        sweep_out = tmp_path / "s.json"
        test_out = tmp_path / "t.json"
        common = ["--model", "normal", "--sigma", "1", "--theta0", "0",
                  "--replicates", "5000", "--seed", "17"]
        assert run_cli("mc-sweep", *common, "--theta1-list", "1.0", "--out", str(sweep_out)) == 0
        assert run_cli("test", *common, "--theta1", "1.0", "--out", str(test_out)) == 0
        row = json.loads(sweep_out.read_text())[0]
        single = json.loads(test_out.read_text())
        shared = ["theta1", "alpha_hat", "beta_hat", "half_width_alpha", "half_width_beta",
                  "bound", "slack", "satisfied"]
        assert list(row) == shared
        assert {name: single[name] for name in shared} == row

    def test_default_out_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PXKIT_OUT_DIR", str(tmp_path))
        assert run_cli("affinity", "--model", "normal", "--theta0", "0", "--theta1", "1") == 0
        assert (tmp_path / "affinity.json").exists()


class TestExitCodes:
    def test_missing_field_names_it(self, tmp_path, capsys):
        assert run_cli("test", "--model", "normal", "--theta1", "1") == 2
        assert "theta0" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\nkind = normal\nwat = 1\n", encoding="utf-8")
        assert run_cli("affinity", "--config", str(cfg), "--theta0", "0", "--theta1", "1") == 2
        assert "model.wat" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[wibble]\nx = 1\n", encoding="utf-8")
        assert run_cli("affinity", "--config", str(cfg), "--theta0", "0", "--theta1", "1") == 2
        assert "wibble" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\ncommand = survey\n", encoding="utf-8")
        assert run_cli("affinity", "--config", str(cfg), "--theta0", "0", "--theta1", "1") == 2

    def test_config_command_must_match_subcommand(self, tmp_path, capsys):
        """The mismatch alone exits 2: the same flags with a matching command run."""
        out = tmp_path / "b.json"
        args = ["--model", "normal", "--theta0", "0", "--theta1", "1", "--out", str(out)]
        for command, code in [("survey", 2), ("bound", 0)]:
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(f"[run]\ncommand = {command}\n", encoding="utf-8")
            assert run_cli("bound", "--config", str(cfg), *args) == code
            assert out.exists() == (code == 0)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "run.command" in err and "survey" in err

    def test_numerical_failure(self, tmp_path, capsys):
        code = run_cli(
            "affinity", "--model", "normal", "--theta0", "0", "--theta1", "1",
            "--abs-tol", "1e-15", "--rel-tol", "1e-16", "--max-evaluations", "240",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure" in err and "estimate" in err
        assert int(re.search(r"after (\d+) evaluations", err).group(1)) <= 240

    @pytest.mark.parametrize("sigma, theta1", [("1e308", "1"), ("1e307", "1e307")])
    def test_overflowing_weight_is_a_numerical_failure(self, sigma, theta1, tmp_path, capsys):
        # The substitution's weight overflows where the density is still
        # positive, so the integral is not finite; a numpy warning would be
        # raised here as an error.
        out = tmp_path / "r.json"
        code = run_cli("affinity", "--model", "normal", "--sigma", sigma, "--theta0", "0",
                       "--theta1", theta1, "--out", str(out))
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_nested_budget_failure_logs_no_slot_value(self, tmp_path, capsys):
        code = run_cli(
            "r-measure", "--model", "variance-expansion", "--n", "2",
            "--theta0", "0", "--theta1", "1", "--max-evaluations", "1000",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        err = capsys.readouterr().err
        # The marginal's 240 evaluations, then the one conditional integral runs out at 990.
        assert "after 1230 evaluations: estimate nan" in err
        assert "estimate 0.0" not in err
        assert not (tmp_path / "r.json").exists()

    # A seed outside [0, 2**64) is bad input (`_checks.check_seed`), from a
    # flag or an INI file alike, and exits 2 before any file is written.
    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**64 + 3])
    @pytest.mark.parametrize("command", ["test", "survey"])
    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_seed_outside_uint64_is_config_error(self, seed, command, source, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        text = SURVEY_INI if command == "survey" else "[run]\nseed = 11\n"
        cfg.write_text(text.replace("[run]\nseed = 11", f"[run]\nseed = {seed}"), encoding="utf-8")
        args = {
            "test": ["--model", "normal", "--theta0", "0", "--theta1", "1", "--replicates", "1000"],
            "survey": [],
        }[command]
        flag = [f"--seed={seed}"] if source == "flag" else []
        out = tmp_path / "x.json"
        assert run_cli(command, "--config", str(cfg), *args, *flag, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed: ")
        assert str(seed) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_are_accepted(self, seed, tmp_path):
        out = tmp_path / "t.json"
        args = ["--model", "normal", "--theta0", "0", "--theta1", "1", "--replicates", "1000"]
        assert run_cli("test", *args, f"--seed={seed}", "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["seed"] == seed

    def test_theta0_equal_theta1(self, capsys):
        assert run_cli("bound", "--model", "normal", "--theta0", "1", "--theta1", "1") == 2

    @pytest.mark.parametrize(
        "args, field",
        [
            (["bound", "--model", "normal", "--sigma", "-1", "--theta0", "0", "--theta1", "1"],
             "sigma"),
            (["bound", "--model", "exponential", "--theta0", "-1", "--theta1", "1"], "theta0"),
            (["r-measure", "--model", "two-stage-normal", "--n1", "0", "--theta0", "0",
              "--theta1", "1"], "n1"),
            (["r-measure", "--model", "variance-expansion", "--n", "1", "--theta0", "0",
              "--theta1", "1"], "n"),
            (["test", "--model", "normal", "--theta0", "0", "--theta1", "1", "--replicates", "50"],
             "replicates"),
            (["mc-sweep", "--model", "normal", "--theta0", "0", "--theta1-list", "0,1",
              "--replicates", "1000"], "theta1_list"),
            (["survey"], "replications"),
            # No respondent can be paired, so no report ever reaches the filter.
            (["survey", "--config", "{tmp}/unpaired.ini", "--quantile", "5"], "quantile"),
            (["survey", "--config", "{tmp}/ok.ini", "--quantile", "5"], "quantile"),
            (["survey", "--config", "{tmp}/ok.ini", "--srs-size", "500"], "srs_size"),
            (["affinity", "--model", "tabulated", "--csv-f", "{tmp}/missing.csv",
              "--csv-g", "{tmp}/missing.csv"], "csv_f"),
            (["bound", "--config", "{tmp}/no_header.ini", "--theta0", "0", "--theta1", "1"],
             "config"),
            (["bound", "--config", "{tmp}/stray_line.ini", "--theta0", "0", "--theta1", "1"],
             "config"),
            (["bound", "--config", "{tmp}/not_utf8.ini", "--theta0", "0", "--theta1", "1"],
             "config"),
            # No unit can hold the attribute, so no replication has a respondent.
            (["survey", "--config", "{tmp}/no_attribute.ini"], "population"),
            # A plot path under a regular file, and one naming a directory.
            (["mc-sweep", "--model", "normal", "--theta0", "0", "--theta1-list", "0.5,1",
              "--replicates", "1000", "--plot-data", "{tmp}/ok.ini/p.csv"], "plot_data"),
            (["survey", "--config", "{tmp}/ok.ini", "--plot-data", "{tmp}"], "plot_data"),
            # A plot path that would overwrite the results file, or its manifest.
            (["survey", "--config", "{tmp}/ok.ini", "--plot-data", "{tmp}/x.json"], "plot_data"),
            (["mc-sweep", "--model", "normal", "--theta0", "0", "--theta1-list", "0.5,1",
              "--replicates", "1000", "--plot-data", "{tmp}/x.json.manifest.json"], "plot_data"),
            # A pandas to_csv() file keeps its index as a third column.
            (["affinity", "--model", "tabulated", "--csv-f", "{tmp}/indexed.csv",
              "--csv-g", "{tmp}/plain.csv"], "csv_f"),
            # 1/rate overflows, so the density's center and scale hints are infinite.
            (["affinity", "--model", "exponential", "--theta0", "5e-309", "--theta1", "1e-308"],
             "theta0"),
        ],
    )
    def test_input_rejected_by_library_is_config_error(self, args, field, tmp_path, capsys):
        cfg = tmp_path / "survey.ini"
        cfg.write_text(SURVEY_INI.replace("replications = 50", "replications = 5"), encoding="utf-8")
        extra = ["--config", str(cfg)] if args == ["survey"] else []
        inis = {
            "ok": SURVEY_INI,
            "unpaired": SURVEY_INI.replace("0.9", "1.0").replace("0.1", "1.0"),
            "no_attribute": SURVEY_INI.replace("0.9", "0.0").replace("0.1", "0.0"),
            "no_header": "kind = normal\n",
            "stray_line": "[model]\nkind = normal\nstray line\n",
            "not_utf8": "[model]\nkind = normal\n# caf\u00e9\n",
        }
        for name, text in inis.items():
            # Latin-1 leaves the other files as they are and makes not_utf8 invalid UTF-8.
            (tmp_path / f"{name}.ini").write_bytes(text.encode("latin-1"))
        plain = "grid,value\n0.0,0.0\n1.0,2.0\n2.0,0.0\n"
        (tmp_path / "plain.csv").write_text(plain, encoding="utf-8")
        indexed = ",grid,value\n0,0.0,0.0\n1,1.0,2.0\n2,2.0,0.0\n"
        (tmp_path / "indexed.csv").write_text(indexed, encoding="utf-8")
        args = [a.format(tmp=tmp_path) for a in args]
        assert run_cli(*args, *extra, "--out", str(tmp_path / "x.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        named = err.split(": ")[1].split(", ")
        assert field in named
        assert not (tmp_path / "x.json").exists()


    @pytest.mark.parametrize("out, input_name", [("f.csv", "csv_f"), ("x", "csv_g")])
    def test_out_naming_a_tabulated_input_is_config_error(self, out, input_name, tmp_path, capsys):
        """The results file, or its manifest, would replace an input CSV."""
        csv = {"csv_f": tmp_path / "f.csv", "csv_g": tmp_path / "x.manifest.json"}
        for i, path in enumerate(csv.values()):
            path.write_text(f"grid,value\n0,1\n1,{i + 1}\n", encoding="utf-8")
        before = {path: path.read_bytes() for path in csv.values()}
        args = ["affinity", "--model", "tabulated", "--csv-f", str(csv["csv_f"]),
                "--csv-g", str(csv["csv_g"]), "--out", str(tmp_path / out)]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and input_name in err
        assert {path: path.read_bytes() for path in csv.values()} == before
        assert sorted(tmp_path.iterdir()) == sorted(csv.values())

    @pytest.mark.parametrize("flag, field", [("--out", "out"), ("--plot-data", "plot_data")])
    def test_output_naming_the_config_file_is_config_error(self, flag, field, tmp_path, capsys):
        """The results file, or the plot file, would replace the --config INI."""
        cfg = tmp_path / "pop.ini"
        cfg.write_text(SURVEY_INI, encoding="utf-8")
        before = cfg.read_bytes()
        out = [] if flag == "--out" else ["--out", str(tmp_path / "x.json")]
        args = ["survey", "--config", str(cfg), "--replications", "10", *out, flag, str(cfg)]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and "input config" in err
        assert cfg.read_bytes() == before
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "out", ["{tmp}", "{tmp}/afile/s.json", "{tmp}/afile/sub/s.json", "{tmp}/t.json"]
    )
    def test_unwritable_out_is_config_error(self, out, tmp_path, capsys):
        """A directory, a path under a regular file, or one whose manifest path is a
        directory (the test above sets its own --out)."""
        (tmp_path / "afile").write_text("a regular file\n", encoding="utf-8")
        (tmp_path / "t.json.manifest.json").mkdir()
        before = sorted(tmp_path.rglob("*"))
        args = ["mc-sweep", "--model", "normal", "--theta0", "0", "--theta1-list", "0.5,1",
                "--replicates", "1000", "--out", out.format(tmp=tmp_path)]
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.startswith("config error: out: ")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "args, field",
        [
            (["bound", "--model", "normal", "--sigma", "inf", "--theta0", "0", "--theta1", "1"],
             "sigma"),
            (["r-measure", "--model", "two-stage-normal", "--sigma", "inf", "--theta0", "0",
              "--theta1", "1"], "sigma"),
            (["r-measure", "--model", "two-stage-normal", "--abs-tol", "inf", "--theta0", "0",
              "--theta1", "1"], "abs_tol"),
            (["bound", "--model", "normal", "--rel-tol", "inf", "--theta0", "0", "--theta1", "1"],
             "rel_tol"),
            (["survey", "--config", "{tmp}/ok.ini", "--noise-sd", "nan", "--p-accurate", "0.5"],
             "noise_sd"),
            (["survey", "--config", "{tmp}/nan_mean.ini"], "value_mean"),
            (["survey", "--config", "{tmp}/nan_sd.ini"], "value_sd"),
        ],
    )
    def test_non_finite_input_rejected_before_computing(
        self, args, field, tmp_path, capsys, monkeypatch
    ):
        def computation(*args, **kwargs):
            raise AssertionError("computation started on rejected input")

        monkeypatch.setattr(importlib.import_module("pxkit.affinity"), "integrate", computation)
        monkeypatch.setattr(importlib.import_module("pxkit.survey"), "compare_schemes", computation)
        inis = {
            "ok": SURVEY_INI,
            "nan_mean": SURVEY_INI.replace("A, 50, 0.0, 1.0", "A, 50, nan, 1.0"),
            "nan_sd": SURVEY_INI.replace("A, 50, 0.0, 1.0", "A, 50, 0.0, nan"),
        }
        for name, text in inis.items():
            (tmp_path / f"{name}.ini").write_text(text, encoding="utf-8")
        args = [a.format(tmp=tmp_path) for a in args]
        assert run_cli(*args, "--out", str(tmp_path / "x.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["bound", "--model", "normal", "--theta0=0", "--theta1=1", "--rel-tol=-1"],
             "rel_tol must lie in (0, inf), got -1.0"),
            (["bound", "--model", "normal", "--theta0=nan", "--theta1=1"],
             "theta0 must lie in (-inf, inf), got nan"),
            (["test", "--model", "exponential", "--theta0=0", "--theta1=1", "--replicates", "1000"],
             "rate must lie in (0, inf), got 0.0"),
            (["survey", "--config", "{tmp}/prob.ini"],
             "stratum 'A': attribute_prob must lie in [0, 1], got 1.5"),
            # The whole line: the prefix names only the field the message names.
            (["bound", "--model", "normal", "--theta0=0", "--theta1=1", "--rel-tol=-1"],
             "config error: rel_tol: rel_tol must lie in (0, inf), got -1.0"),
            # A count too large for float arithmetic is bad input, not a traceback.
            (["r-measure", "--model", "variance-expansion", "--n", "1" + "0" * 400,
              "--theta0", "0", "--theta1", "1"],
             "config error: n: int too large to convert to float"),
            (["r-measure", "--model", "two-stage-normal", "--n1", "1" + "0" * 400,
              "--theta0", "0", "--theta1", "1"],
             "config error: n1, n2, sigma: int too large to convert to float"),
        ],
    )
    def test_out_of_range_value_is_named_with_its_value(self, args, message, tmp_path, capsys):
        ini = SURVEY_INI.replace("A, 50, 0.0, 1.0, 0.9", "A, 50, 0.0, 1.0, 1.5")
        (tmp_path / "prob.ini").write_text(ini, encoding="utf-8")
        args = [a.format(tmp=tmp_path) for a in args]
        assert run_cli(*args, "--out", str(tmp_path / "x.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.rstrip().endswith(message), err


class TestConfigRoundTrip:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text(
            "[run]\ncommand = mc-sweep\nseed = 42\nformat = csv\n\n"
            "[model]\nkind = two-stage-normal\nsigma = 1.5\nn1 = 2\nn2 = 3\n\n"
            "[hypotheses]\ntheta0 = 0.25\ntheta1_list = 0.5, 1.0, 2.0\n\n"
            "[quadrature]\nabs_tol = 1e-10\n\n"
            "[monte_carlo]\nreplicates = 5000\n\n"
            "[population]\nseed = 3\n"
            "strata =\n    A, 10, 0.5, 1.0, 0.25\n    B, 20, -1.0, 2.0, 0.75\n",
            encoding="utf-8",
        )
        config = ExperimentConfig(
            command="mc-sweep",
            seed=42,
            format="csv",
            model="two-stage-normal",
            sigma=1.5,
            n1=2,
            n2=3,
            theta0=0.25,
            theta1_list=(0.5, 1.0, 2.0),
            abs_tol=1e-10,
            replicates=5000,
            population=PopulationSpec(
                strata=(Stratum("A", 10, 0.5, 1.0), Stratum("B", 20, -1.0, 2.0)),
                attribute_prob=(0.25, 0.75),
                seed=3,
            ),
        )
        assert apply_config_file(ExperimentConfig(command="mc-sweep"), path) == config

    def test_parse_rejects_text_without_section_header(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("kind = x\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="section header"):
            apply_config_file(ExperimentConfig(command="bound"), path)

    def test_byte_order_mark_is_not_part_of_the_first_header(self, tmp_path):
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf[run]\ncommand = bound\nseed = 42\n")
        assert apply_config_file(ExperimentConfig(command="bound"), path).seed == 42

    def test_manifest_reproduces_results_bit_exactly(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "mc-sweep", "--model", "normal", "--sigma", "1", "--theta0", "0",
            "--theta1-list", "0.5,1", "--replicates", "2000", "--seed", "3",
            "--format", "csv", "--out", str(out),
        ) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        replayed = config_from_record(manifest["config"])
        replayed.out = str(tmp_path / "replay.csv")
        assert run(replayed) == 0
        assert (tmp_path / "replay.csv").read_bytes() == out.read_bytes()

    def test_expanded_bound_command(self, tmp_path):
        out = tmp_path / "b.json"
        assert run_cli(
            "bound", "--model", "variance-expansion", "--n", "4", "--theta0", "0",
            "--theta1", "1", "--out", str(out),
        ) == 0
        data = json.loads(out.read_text())
        assert data["expanded_bound"] == pytest.approx(data["marginal_bound"], abs=1e-8)


class TestDeterminism:
    def test_rerun_is_bit_identical(self, tmp_path):
        args = [
            "mc-sweep", "--model", "normal", "--sigma", "1", "--theta0", "0",
            "--theta1-list", "0.5,1", "--replicates", "2000", "--seed", "3",
            "--format", "csv",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("affinity", "--model", "normal", "--theta0", "0", "--theta1", "1",
                "--out", str(out))
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


class TestAtomicity:
    def test_failed_replace_leaves_no_target(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"

        def boom(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_atomic(target, "data")
        assert not target.exists()
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_existing_file_survives_failed_rewrite(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        write_atomic(target, "original")

        def boom(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_atomic(target, "replacement")
        assert target.read_text() == "original"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_files_get_the_mode_open_gives_under_the_umask(self, tmp_path, umask):
        out = tmp_path / "r.json"
        old = os.umask(umask)
        try:
            assert run_cli("affinity", "--model", "normal", "--theta0", "0", "--theta1", "1",
                           "--out", str(out)) == 0
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(old)
        expected = (tmp_path / "plain").stat().st_mode
        assert expected & 0o777 == 0o666 & ~umask
        assert out.stat().st_mode == expected
        assert (tmp_path / "r.json.manifest.json").stat().st_mode == expected


class TestRendering:
    RECORD = {"strict": True, "replicates": 3, "value": 0.1, "scheme": "srs_oracle"}

    def test_record_and_table_share_one_scalar_rule(self):
        row = "true,3,0.10000000000000001,srs_oracle"
        assert render_table(self.RECORD, "csv") == f"strict,replicates,value,scheme\n{row}\n"
        assert render_table([self.RECORD] * 2, "csv").splitlines()[1:] == [row, row]
        text = render_table(self.RECORD, "json")
        assert '"strict": true' in text and '"value": 0.10000000000000001' in text
        assert json.loads(text) == self.RECORD
        assert json.loads(render_table([self.RECORD], "json")) == [self.RECORD]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_numpy_integer_is_not_serialized(self, fmt):
        with pytest.raises(TypeError):
            render_table({"replicates": np.int64(3)}, fmt)


# Each subcommand's arguments, and the modules it must not load: the layers it
# does not run (and configparser, which only INI config paths use), and scipy,
# which is not a runtime dependency.
_NORMAL = ["--model", "normal", "--theta0", "0"]
_IMPORT_GRAPH = {
    "affinity": ([*_NORMAL, "--theta1", "1"], ("pxkit.montecarlo", "pxkit.survey", "configparser")),
    "bound": ([*_NORMAL, "--theta1", "1"], ("pxkit.montecarlo", "pxkit.survey", "configparser")),
    "r-measure": (
        ["--model", "two-stage-normal", "--theta0", "0", "--theta1", "1"],
        ("pxkit.montecarlo", "pxkit.survey", "configparser"),
    ),
    "test": ([*_NORMAL, "--theta1", "1", "--replicates", "1000"], ("pxkit.survey",)),
    "mc-sweep": (
        [*_NORMAL, "--theta1-list", "0.5,1", "--replicates", "1000", "--plot-data", "{tmp}/p.csv"],
        ("pxkit.survey",),
    ),
    "survey": (
        ["--config", "{tmp}/survey.ini", "--replications", "10", "--plot-data", "{tmp}/p.csv"],
        ("pxkit.montecarlo",),
    ),
}


@pytest.mark.parametrize("command", list(_IMPORT_GRAPH))
def test_cli_run_imports_only_its_layers(command, tmp_path):
    args, not_loaded = _IMPORT_GRAPH[command]
    (tmp_path / "survey.ini").write_text(SURVEY_INI, encoding="utf-8")
    argv = [command, *[a.format(tmp=tmp_path) for a in args], "--out", str(tmp_path / "r.json")]
    src = str(Path(pxkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pxkit\n"
        "from pxkit.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "loaded = sorted(m for m in set(sys.modules) - before\n"
        f"                if m in {not_loaded!r} or m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Inputs whose densities overflow to inf inside logpdf where the density is 0
# anyway, by id: the subcommand, its arguments and the results they give.
_OVERFLOW = {
    "bound": (
        "bound",
        ["--model", "normal", "--sigma", "1e-300", "--theta0", "0", "--theta1", "1"],
        {"bound": 0, "abs_error_estimate": 0},
    ),
    "test": (
        "test",
        ["--model", "normal", "--sigma", "1e-300", "--theta0", "0", "--theta1", "1",
         "--replicates", "1000"],
        {"alpha_hat": 0, "beta_hat": 0, "bound": 0, "satisfied": True},
    ),
    "affinity": (
        "affinity",
        ["--model", "exponential", "--theta0", "1e-300", "--theta1", "1e300"],
        {"affinity": 0, "raw_value": 0, "abs_error_estimate": 0, "hellinger_sq": 2},
    ),
    # (x - mean) / sd itself overflows here, not only its square.
    "affinity-normal": (
        "affinity",
        ["--model", "normal", "--sigma", "1e-10", "--theta0", "0", "--theta1", "1e300"],
        {"affinity": 0, "hellinger_sq": 2},
    ),
    "r-measure": (
        "r-measure",
        ["--model", "two-stage-normal", "--sigma", "1e-10", "--theta0", "0", "--theta1", "1e300"],
        {"marginal_bound": 0, "expanded_bound": 0, "strict": False},
    ),
    # The infinite-range substitution itself overflows at nodes near t = +-1.
    "bound-huge-theta": (
        "bound",
        ["--model", "normal", "--theta0", "0", "--theta1", "1e308"],
        {"bound": 0, "abs_error_estimate": 0, "evaluations": 240},
    ),
    "affinity-huge-theta": (
        "affinity",
        ["--model", "normal", "--theta0", "0", "--theta1", "1e308"],
        {"affinity": 0, "hellinger_sq": 2},
    ),
}


@pytest.mark.parametrize("case", list(_OVERFLOW))
def test_harmless_overflow_prints_no_warning(case, tmp_path):
    command, args, expected = _OVERFLOW[case]
    out = tmp_path / "r.json"
    src = str(Path(pxkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pxkit.cli", command, *args, "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    data = json.loads(out.read_text())
    assert {key: data[key] for key in expected} == expected
