"""The README's quick tour and command-line examples run as written.

The output files are pinned byte for byte by `tests/test_cli_digests.py`,
and the survey CSV also by `tests/test_survey_digests.py`.
"""

import re
import shlex
from pathlib import Path

import pytest

from pxkit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# A line "expression   # 0.88249690... (note)" claims the value's leading digits;
# "expression   # ~0" claims a value that is zero up to quadrature error.
CLAIM = re.compile(r"^(?P<expr>\S.*?)\s+#\s+(?P<approx>~)?(?P<value>-?\d+(?:\.\d+)?)(?P<cut>\.\.\.)?")


def section_block(heading: str, language: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```", section, flags=re.S | re.M).group(1)


def test_quick_tour_runs_and_matches_its_comments():
    code = section_block("Library quick tour", "python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    claims = [m for m in map(CLAIM.match, code.splitlines()) if m]
    assert len(claims) == 3
    for claim in claims:
        got = eval(claim["expr"], namespace)
        shown = claim["value"]
        digits = len(shown.split(".")[1]) if "." in shown else 0
        if claim["cut"]:
            # Truncated digits: the value lies in [shown, shown + one unit of the last digit).
            assert float(shown) <= got < float(shown) + 10.0**-digits, claim["expr"]
        else:
            assert claim["approx"], claim["expr"]
            assert got == pytest.approx(float(shown), abs=1e-8), claim["expr"]


def test_command_line_examples_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PXKIT_OUT_DIR", str(tmp_path))
    (tmp_path / "survey.ini").write_text(section_block("Command line", "ini"), encoding="utf-8")
    text = section_block("Command line", "bash").replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines() if line.startswith("pxkit ")]
    assert [argv[1] for argv in commands] == [
        "affinity", "bound", "r-measure", "test", "mc-sweep", "survey"
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    written = {p.name for p in tmp_path.iterdir()}
    for name in ("affinity.json", "bound.json", "r_measure.json", "test.json", "sweep.csv", "survey.csv"):
        assert {name, f"{name}.manifest.json"} <= written
