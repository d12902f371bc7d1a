"""The one integer-count rule, at every library input that is a count or a seed."""

import importlib
import math
import re

import pytest

from pxkit import (
    AccuracyModel,
    PopulationSpec,
    QuadratureConfig,
    SimpleHypotheses,
    Stratum,
    compare_schemes,
    estimate_phi_errors,
    estimate_psi_errors,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    normal_density,
    product_affinity_iid,
    row_seed,
    sweep,
)
from pxkit._checks import check_seed
from pxkit.densities import make_rng
from pxkit.montecarlo import check_replicates
from pxkit.survey import check_replications, check_srs_size

F, G = normal_density(0, 1), normal_density(1, 1)

# Each count input: the field its message names, a call with the count, and the
# smallest valid count.
COUNTS = {
    "QuadratureConfig": ("max_evaluations", lambda v: QuadratureConfig(max_evaluations=v), 240),
    "check_replicates": ("replicates", check_replicates, 100),
    "check_replications": ("replications", check_replications, 10),
    "check_srs_size": ("srs_size", lambda v: check_srs_size(v, 10), 1),
    "Stratum": ("stratum 'A': size", lambda v: Stratum("A", v, 0.0, 1.0), 1),
    "two_stage_n1": ("n1", lambda v: make_two_stage_normal(v, 1, 1.0), 1),
    "two_stage_n2": ("n2", lambda v: make_two_stage_normal(1, v, 1.0), 1),
    "variance_expansion": ("n", make_normal_variance_expansion, 2),
    "product_affinity_iid": ("n", lambda v: product_affinity_iid(F, G, v), 1),
    "check_seed": ("seed", check_seed, 0),
}


@pytest.mark.parametrize("bad", ["inf", "nan", "2.5", "below_minimum"])
@pytest.mark.parametrize("site", list(COUNTS))
def test_bad_count_is_value_error_naming_the_field(site, bad):
    field, call, minimum = COUNTS[site]
    value = {"inf": math.inf, "nan": math.nan, "2.5": 2.5, "below_minimum": minimum - 1}[bad]
    with pytest.raises(ValueError, match="^" + re.escape(field) + " must be an integer"):
        call(value)


@pytest.mark.parametrize("site", ["check_replicates", "check_replications", "check_srs_size", "check_seed"])
def test_integral_float_count_is_returned_as_int(site):
    _, call, minimum = COUNTS[site]
    got = call(float(minimum))
    assert got == minimum and type(got) is int


SPEC = PopulationSpec((Stratum("A", 100, 0.0, 1.0), Stratum("B", 100, 10.0, 1.0)), (0.9, 0.1), 7)
HYP = SimpleHypotheses(0.0, 1.0)

# Each library function that takes a seed, called with the seed alone.
SEEDED = {
    "compare_schemes": lambda s: compare_schemes(SPEC, AccuracyModel(0.8, 1.0), 1.0, 10, s),
    "estimate_phi_errors": lambda s: estimate_phi_errors(make_normal_location(1.0), HYP, 1000, s),
    "estimate_psi_errors": lambda s: estimate_psi_errors(make_two_stage_normal(1, 1, 1.0), HYP, 1000, s),
    "sweep": lambda s: sweep(make_normal_location(1.0), 0.0, [1.0], 1000, s),
    "row_seed": lambda s: row_seed(s, 1.0),
    "make_rng": make_rng,
}


# Integers hash modulo 2**64 (`seeding`), so -1 and 2**64 + 1 would be the
# streams of 2**64 - 1 and 1 under another name; 1.5 has no streams at all.
@pytest.mark.parametrize("seed", [-1, 2**64 + 1, 1.5])
@pytest.mark.parametrize("site", list(SEEDED))
def test_seed_outside_uint64_is_value_error(site, seed):
    with pytest.raises(ValueError, match="^seed must be an integer"):
        SEEDED[site](seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("site", list(SEEDED))
def test_seed_range_ends_are_accepted(site, seed):
    SEEDED[site](seed)


@pytest.mark.parametrize(
    "site", ["compare_schemes", "estimate_phi_errors", "estimate_psi_errors", "sweep", "row_seed"]
)
def test_integral_float_seed_is_the_integer(site):
    got, want = SEEDED[site](3.0), SEEDED[site](3)
    if site not in ("sweep", "row_seed"):
        assert type(got.seed) is int
    if site == "compare_schemes":
        got, want = ({s: e.tobytes() for s, e in c.errors.items()} for c in (got, want))
    assert got == want


def test_sweep_checks_the_seed_before_any_integral(monkeypatch):
    affinity = importlib.import_module("pxkit.affinity")
    monkeypatch.setattr(affinity, "integrate", lambda *args, **kwargs: pytest.fail("integrated"))
    with pytest.raises(ValueError, match="^seed must be an integer"):
        sweep(make_normal_location(1.0), 0.0, [1.0], 1000, -1)
