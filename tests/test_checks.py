"""The one integer-count rule, at every library input that is a count."""

import math
import re

import pytest

from pxkit import (
    QuadratureConfig,
    Stratum,
    make_normal_variance_expansion,
    make_two_stage_normal,
    normal_density,
    product_affinity_iid,
)
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
}


@pytest.mark.parametrize("bad", ["inf", "nan", "2.5", "below_minimum"])
@pytest.mark.parametrize("site", list(COUNTS))
def test_bad_count_is_value_error_naming_the_field(site, bad):
    field, call, minimum = COUNTS[site]
    value = {"inf": math.inf, "nan": math.nan, "2.5": 2.5, "below_minimum": minimum - 1}[bad]
    with pytest.raises(ValueError, match="^" + re.escape(field) + " must be an integer"):
        call(value)


@pytest.mark.parametrize("site", ["check_replicates", "check_replications", "check_srs_size"])
def test_integral_float_count_is_returned_as_int(site):
    _, call, minimum = COUNTS[site]
    got = call(float(minimum))
    assert got == minimum and type(got) is int
