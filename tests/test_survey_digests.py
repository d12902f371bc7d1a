"""Bit-identity pins for the survey pipeline.

The sha256 digests below were taken from the row-per-unit implementation
of `pxkit.survey`.  Any change to the storage layout, the RNG draws or
their order, or the floating-point reductions of the estimators moves at
least one of them.
"""

import hashlib

import pytest

from pxkit import AccuracyModel, PopulationSpec, Stratum, compare_schemes
from pxkit.cli import main
from pxkit.survey import SCHEMES

README_SPEC = PopulationSpec(
    strata=(Stratum("A", 100, 0.0, 1.0), Stratum("B", 100, 10.0, 1.0)),
    attribute_prob=(0.9, 0.1),
    seed=7,
)
# Stratum A almost always runs out of non-holders to pair with; B has no
# attribute holders at all, so it is covered by neither self nor proxy reports.
SHORTFALL_SPEC = PopulationSpec(
    strata=(Stratum("A", 20, -1.0, 0.5), Stratum("B", 30, 4.0, 2.0), Stratum("C", 50, 2.0, 1.0)),
    attribute_prob=(0.95, 0.0, 0.4),
    seed=3,
)
# Three strata, each covered in almost every replication.  Their shares
# 24/186, 87/186 and 75/186 sum to 1 - 2**-53 as a left fold but to 1 in a
# compensated sum, so these bits fix the order of the augmented mean's sums.
THREE_STRATA_SPEC = PopulationSpec(
    strata=(Stratum("A", 24, -2.0, 1.0), Stratum("B", 87, 3.0, 0.5), Stratum("C", 75, 7.0, 2.0)),
    attribute_prob=(0.5, 0.4, 0.3),
    seed=11,
)
CASES = {
    "readme": (README_SPEC, AccuracyModel(1.0, 0.0), 1.0, None),
    "noisy": (README_SPEC, AccuracyModel(0.7, 1.0), 0.5, None),
    "shortfall": (SHORTFALL_SPEC, AccuracyModel(0.5, 2.0), 0.8, 30),
    "three_strata": (THREE_STRATA_SPEC, AccuracyModel(0.6, 1.5), 0.7, None),
}
REPLICATIONS = 100

DIGESTS = {
    ("readme", 1): {
        "naive_attribute_only": "efd66f1d26ca9e697c447fb166229036104de25086013a59e6fd8bb50420cc2f",
        "augmented": "05dfbccf801a1e88926185c6acdd251b60ac07a5c0966a3dddae8dd9f8d4fe2b",
        "srs_oracle": "4819a6f20cf16d7aa8b3ea31cda5a6f88828b936cc9015d4270aa95572e21eba",
    },
    ("readme", 2): {
        "naive_attribute_only": "77158e686f65109ac4a698727a0abd64aa51c1438bc91b0d3ec46b9dc755b199",
        "augmented": "f503b4c8d7dbd7363af0e9330cb403b3037988f9a6abd747a704e472b815a32e",
        "srs_oracle": "0af481a89ca7a310fcca45e44f19a9355633243488af018dbd0e488309416c10",
    },
    ("noisy", 1): {
        "naive_attribute_only": "efd66f1d26ca9e697c447fb166229036104de25086013a59e6fd8bb50420cc2f",
        "augmented": "9f582a51accfeb2082b752de895a585d8f9f31c85489b9b512fcb11a8b312c01",
        "srs_oracle": "4819a6f20cf16d7aa8b3ea31cda5a6f88828b936cc9015d4270aa95572e21eba",
    },
    ("noisy", 2): {
        "naive_attribute_only": "77158e686f65109ac4a698727a0abd64aa51c1438bc91b0d3ec46b9dc755b199",
        "augmented": "74138073c7094169b4a5c98c558f64b9aa5b866f9d1fb3169f7b83d72fffc382",
        "srs_oracle": "0af481a89ca7a310fcca45e44f19a9355633243488af018dbd0e488309416c10",
    },
    ("shortfall", 1): {
        "naive_attribute_only": "5c263e13275aef3d452cea064cc78255e86067a98337f4e622676202ff0b494f",
        "augmented": "24ee7b7581a68d05db014b3132f4c08138bfecdecbb6c6275d65dd8545c251fd",
        "srs_oracle": "64c9c95dec8e6a45044ae270b8edafa4a37d9a98464ae67cbf2cf2ad46081459",
    },
    ("shortfall", 2): {
        "naive_attribute_only": "4dae6258927f7c67bc4ae2c830eded89bfcf190718d1eeb4de4da360c805669a",
        "augmented": "c5c50f651687f8ffb492fe71e034f7061dea068bce8c6655b02ddc98dba1c934",
        "srs_oracle": "0037773485bb8fb1ea6dfd1ae38df2940b9d19af9b561a68564fbb92a356ea8d",
    },
    ("three_strata", 1): {
        "naive_attribute_only": "8b9ae5ff623f2240098031e2858bad133daa513c8d81e019842eed2134ef1ee3",
        "augmented": "9d8849cb7821282d8ea159d797c73777ed61620d31601517e2958df16a3ad0a5",
        "srs_oracle": "c87489d751722165cf172442018a7219158e1a5460be3ff6ccc49970a747c634",
    },
    ("three_strata", 2): {
        "naive_attribute_only": "ee18318c0c29aa83414f41ff8d12e286e9a7cca732b2e0327c4ab7d40ef65ac3",
        "augmented": "c484ba2bccd5cf1011f6f6ef3d4278d49f88a97b4bf869edf73169c1f05178da",
        "srs_oracle": "80cb93fe95a2df7ee69b12376c2f843c10fbd79be488f3ba1032209ea5647e86",
    },
}

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
README_CSV_SHA256 = "f18a33f8fb0bfe6053aedf65087d3b6599b593b857a41c599fd99039884f15df"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_compare_schemes_errors_are_pinned(case, seed):
    spec, acc, quantile, srs_size = CASES[case]
    comp = compare_schemes(spec, acc, quantile, REPLICATIONS, seed, srs_size=srs_size)
    got = {s: _sha(comp.errors[s].tobytes()) for s in SCHEMES}
    assert got == DIGESTS[case, seed]


def test_readme_survey_csv_is_pinned(tmp_path):
    cfg = tmp_path / "survey.ini"
    cfg.write_text(README_INI, encoding="utf-8")
    out = tmp_path / "survey.csv"
    assert main(["survey", "--config", str(cfg), "--seed", "0", "--format", "csv", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == README_CSV_SHA256
