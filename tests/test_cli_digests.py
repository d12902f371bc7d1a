"""Bit-identity pins for the files the CLI writes.

Each run below is one of the README's six commands (the survey reads the
README's INI), or an mc-sweep or survey run that writes its table as JSON
and its ``--plot-data`` CSV.  The sha256 digests are of the written bytes.
Any change to a file's columns, their order, the number rendering or the
values behind them moves at least one of them.  Each manifest must record
the digest of its results file.

The affinity, bound and r_measure files and the bound column of the test
and sweep files come from quadrature, whose last bits follow the platform's
libm; a libm that rounds differently may move those pins with no change to
pxkit.  The Monte Carlo and survey values are platform-independent.
"""

import hashlib
import json

import pytest

from pxkit.cli import main

README_INI = """
[survey]
quantile = 1.0
p_accurate = 1.0
noise_sd = 0.0
replications = 1000

[population]
seed = 7
strata =
    A, 100, 0.0, 1.0, 0.9
    B, 100, 10.0, 1.0, 0.1
"""
TWO_STAGE = ["--model", "two-stage-normal", "--n1", "1", "--n2", "1", "--sigma", "1"]
SWEEP = [
    "mc-sweep", "--model", "normal", "--sigma", "1", "--theta0", "0", "--theta1-list", "0.5,1,2",
    "--replicates", "100000", "--seed", "42",
]
SURVEY = ["survey", "--config", "survey.ini"]

# Run id -> (argv, {file it writes: sha256}); results files without --out
# land in $PXKIT_OUT_DIR, which is the working directory here.
RUNS = {
    "affinity": (
        ["affinity", "--model", "exponential", "--theta0", "1", "--theta1", "2"],
        {"affinity.json": "a0b0a6ab538b0dd53a04534d791c0ee50702ac59a2e7dc9e6892390764823fbd"},
    ),
    "bound": (
        ["bound", "--model", "normal", "--sigma", "1", "--theta0", "0", "--theta1", "1"],
        {"bound.json": "0c6a8c500773dad1efc53ca9f3824413335e8108c9aaf6475b432259a8907b36"},
    ),
    "r-measure": (
        ["r-measure", *TWO_STAGE, "--theta0", "0", "--theta1", "1"],
        {"r_measure.json": "ceba993eae583a8e6676cca2395b0119a216090c2df26a03504c653344da970e"},
    ),
    "test": (
        ["test", *TWO_STAGE, "--theta0", "0", "--theta1", "1", "--replicates", "100000",
         "--seed", "42"],
        {"test.json": "d0c5e146bbe90222e8235e0ebbf967ceaa087101e12f315189cc3e671f72f6b8"},
    ),
    "mc-sweep": (
        [*SWEEP, "--format", "csv", "--out", "sweep.csv"],
        {"sweep.csv": "e8643706fbea62b0e123cfbcfdfb17996f3a45aae77e8c539512c4a5b3963f98"},
    ),
    "survey": (
        [*SURVEY, "--format", "csv", "--out", "survey.csv"],
        {"survey.csv": "f18a33f8fb0bfe6053aedf65087d3b6599b593b857a41c599fd99039884f15df"},
    ),
    "mc-sweep-json-plot": (
        [*SWEEP, "--out", "sweep.json", "--plot-data", "sweep_plot.csv"],
        {
            "sweep.json": "4490f8455289404275e61b297a911b480c835a722b89cdb75a8ad75e83ed98d1",
            "sweep_plot.csv": "0909d7088c26bc98db43fbc1119d4dce3b78d8f0dbef29936484e05b69c8ace2",
        },
    ),
    "survey-json-plot": (
        [*SURVEY, "--out", "survey.json", "--plot-data", "survey_plot.csv"],
        {
            "survey.json": "d43c23791c56442321d6d614a07df3349b928544746778110080644dc8090c77",
            "survey_plot.csv": "2772be3d4f9348a2877d687296be9e7169ce075489f19a0102b31d15b4242a24",
        },
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", list(RUNS))
def test_written_files_are_pinned(run, tmp_path, monkeypatch):
    argv, digests = RUNS[run]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PXKIT_OUT_DIR", str(tmp_path))
    (tmp_path / "survey.ini").write_text(README_INI, encoding="utf-8")
    assert main(argv) == 0
    results = next(name for name in digests if not name.endswith("_plot.csv"))
    written = {p.name for p in tmp_path.iterdir()} - {"survey.ini"}
    assert written == {*digests, f"{results}.manifest.json"}
    assert {name: _sha((tmp_path / name).read_bytes()) for name in digests} == digests
    manifest = json.loads((tmp_path / f"{results}.manifest.json").read_text(encoding="utf-8"))
    assert manifest["results_file"] == results
    assert manifest["results_sha256"] == digests[results]
