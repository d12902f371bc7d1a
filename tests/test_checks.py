"""The numeric-parameter rules (real intervals, integer counts, seeds), at every library input they check."""

import importlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pxkit import (
    AccuracyModel,
    ErrorProbEstimate,
    PopulationSpec,
    QuadratureConfig,
    SimpleHypotheses,
    Stratum,
    check_bound,
    compare_schemes,
    estimate_phi_errors,
    estimate_psi_errors,
    exponential_density,
    gamma_density,
    integrate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    normal_density,
    product_affinity_iid,
    row_seed,
    sweep,
)
from pxkit._checks import check_count, check_real, check_seed
from pxkit.densities import Interval, ScalarDensity, make_rng
from pxkit.montecarlo import check_replicates
from pxkit.survey import check_quantile, check_replications, check_srs_size

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


@pytest.mark.parametrize("bad", ["inf", "nan", "2.5", "below_minimum", "10**400"])
@pytest.mark.parametrize("site", list(COUNTS))
def test_bad_count_is_value_error_naming_the_field(site, bad):
    field, call, minimum = COUNTS[site]
    values = {"inf": math.inf, "nan": math.nan, "2.5": 2.5, "below_minimum": minimum - 1, "10**400": 10**400}
    value = values[bad]
    with pytest.raises(ValueError, match="^" + re.escape(field) + " must be an integer"):
        call(value)


def test_default_count_ceiling_is_the_int64_maximum():
    assert check_count("k", 2**63 - 1, 0) == 2**63 - 1
    with pytest.raises(ValueError) as exc:
        check_count("k", 2**63, 0)
    assert str(exc.value) == "k must be an integer in [0, 9223372036854775807], got 9223372036854775808"


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


def _reject_if(failed: bool) -> None:
    if failed:
        raise ValueError


# Each real-valued input the interval rule checks: the name its message gives,
# a call of the site with the value and every other argument valid, and the
# site's range test as it was written before the rule, kept here as the
# reference: its comparisons or math.isfinite / math.isnan, then the float()
# re-cast where the site made one.
ONE = Stratum("A", 1, 0.0, 1.0)
ESTIMATE = ErrorProbEstimate(0.1, 0.1, 1000, 0, 0.01, 0.01)
REAL_SITES = {
    "Interval.lower": ("lower", lambda v: Interval(v, math.inf),
                       lambda v: _reject_if(math.isnan(v) or math.isnan(math.inf))),
    "Interval.upper": ("upper", lambda v: Interval(-math.inf, v),
                       lambda v: _reject_if(math.isnan(-math.inf) or math.isnan(v))),
    "ScalarDensity.center": ("center", lambda v: ScalarDensity(F.support, F.logpdf, F.sample, center=v),
                             lambda v: _reject_if(not (math.isfinite(v) and math.isfinite(1.0)))),
    "ScalarDensity.scale": ("scale", lambda v: ScalarDensity(F.support, F.logpdf, F.sample, scale=v),
                            lambda v: _reject_if(not (math.isfinite(0.0) and math.isfinite(v)))),
    "normal_density.mean": ("mean", lambda v: normal_density(v, 1.0),
                            lambda v: (_reject_if(not math.isfinite(v)), float(v))),
    "normal_density.sd": ("sd", lambda v: normal_density(0.0, v),
                          lambda v: (_reject_if(not 0 < v < math.inf), float(v))),
    "exponential_density.rate": ("rate", exponential_density,
                                 lambda v: (_reject_if(not 0 < v < math.inf), float(v))),
    "gamma_density.shape": ("shape", lambda v: gamma_density(v, 1.0),
                            lambda v: (_reject_if(not (0 < v < math.inf and 0 < 1.0 < math.inf)), float(v))),
    "gamma_density.scale": ("scale", lambda v: gamma_density(2.0, v),
                            lambda v: (_reject_if(not (0 < 2.0 < math.inf and 0 < v < math.inf)), float(v))),
    "SimpleHypotheses.theta0": ("theta0", lambda v: SimpleHypotheses(v, 0.25),
                                lambda v: _reject_if(not (math.isfinite(v) and math.isfinite(0.25)))),
    "SimpleHypotheses.theta1": ("theta1", lambda v: SimpleHypotheses(0.25, v),
                                lambda v: _reject_if(not (math.isfinite(0.25) and math.isfinite(v)))),
    "make_normal_location.sigma": ("sigma", make_normal_location,
                                   lambda v: _reject_if(not 0 < v < math.inf)),
    "make_two_stage_normal.sigma": ("sigma", lambda v: make_two_stage_normal(1, 1, v),
                                    lambda v: _reject_if(not 0 < v < math.inf)),
    "QuadratureConfig.abs_tol": ("abs_tol", lambda v: QuadratureConfig(abs_tol=v),
                                 lambda v: _reject_if(not (0 < v < math.inf and 0 < 1e-7 < math.inf))),
    "QuadratureConfig.rel_tol": ("rel_tol", lambda v: QuadratureConfig(rel_tol=v),
                                 lambda v: _reject_if(not (0 < 1e-9 < math.inf and 0 < v < math.inf))),
    "integrate.center": ("center", lambda v: integrate(np.cos, 0.0, 1.0, center=v),
                         lambda v: _reject_if(not (math.isfinite(v) and math.isfinite(1.0)))),
    "integrate.scale": ("scale", lambda v: integrate(np.cos, 0.0, 1.0, scale=v),
                        lambda v: _reject_if(not (math.isfinite(0.0) and math.isfinite(v)))),
    "Stratum.value_mean": ("stratum 'A': value_mean", lambda v: Stratum("A", 1, v, 1.0),
                           lambda v: _reject_if(not math.isfinite(v))),
    "Stratum.value_sd": ("stratum 'A': value_sd", lambda v: Stratum("A", 1, 0.0, v),
                         lambda v: _reject_if(not 0 <= v < math.inf)),
    "PopulationSpec.attribute_prob": ("stratum 'A': attribute_prob", lambda v: PopulationSpec((ONE,), (v,), 0),
                                      lambda v: _reject_if(any(not 0.0 <= p <= 1.0 for p in (v,)))),
    "AccuracyModel.p_accurate": ("p_accurate", lambda v: AccuracyModel(v, 1.0),
                                 lambda v: _reject_if(not 0.0 <= v <= 1.0)),
    "AccuracyModel.noise_sd": ("noise_sd", lambda v: AccuracyModel(0.5, v),
                               lambda v: _reject_if(not 0 <= v < math.inf)),
    "check_quantile": ("quantile", check_quantile,
                       lambda v: (_reject_if(not 0.0 < v <= 1.0), float(v))),
    "check_bound": ("bound", lambda v: check_bound(ESTIMATE, v),
                    lambda v: _reject_if(not 0.0 <= v <= 1.0)),
}

# These sites compared an int with inf but did not convert it, so an int (or a
# Fraction) beyond the float range passed.  Of the five, only the tolerances
# were usable: the others raised OverflowError at their first use.  The rule
# converts every value it passes, so every site now rejects a value without a
# float as bad input, a ValueError, where the old sites raised OverflowError
# or accepted it.
ACCEPTED_BEFORE = {
    "QuadratureConfig.abs_tol",
    "QuadratureConfig.rel_tol",
    "make_normal_location.sigma",
    "Stratum.value_sd",
    "AccuracyModel.noise_sd",
}

# The gamma shape's interval gained an upper end after the rule: the largest
# shape whose math.lgamma is finite (`densities._MAX_GAMMA_SHAPE`).  The old
# site let a larger shape through to an OverflowError, from lgamma or from
# float; the rule now rejects it as bad input, a ValueError stating the
# interval.
NARROWED = {"gamma_density.shape"}

REAL_INPUTS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7e308, -1, 0.5, 1, 2, True,
    np.float32(0.5), np.float32(np.inf), np.float64(2.0), np.float64(np.nan), np.int64(2), np.int64(-1),
    Fraction(1, 2), 10**400, -(10**400), "2",
]
_MODULES = ["pxkit.densities", "pxkit.models", "pxkit.quadrature", "pxkit.survey", "pxkit.montecarlo"]


def _outcome(call, v):
    try:
        call(v)
    except Exception as exc:  # noqa: BLE001 - the exception type is the verdict
        return exc
    return None


def _unchecked(skipped: str):
    """check_real with the check of ``skipped`` left out: that value goes on as the old site took it."""

    def check(name, value, *interval, **ends):
        if name != skipped:
            return check_real(name, value, *interval, **ends)
        try:
            return float(value)  # the old re-casting sites had made it already
        except (TypeError, OverflowError):
            return value  # the others went on with the raw value

    return check


def _assert_same_verdict(site, v):
    name, call, old = REAL_SITES[site]
    got = _outcome(call, v)
    # The old site: its range test, then the rest of the site as it is.
    rejected = _outcome(old, v)
    want = rejected
    if rejected is None:
        with pytest.MonkeyPatch.context() as mp:
            for module in _MODULES:
                mp.setattr(importlib.import_module(module), "check_real", _unchecked(name))
            want = _outcome(call, v)
    want_type = None if want is None else type(want)
    v_overflows = isinstance(_outcome(float, v), OverflowError)
    narrowed = site in NARROWED and want_type is OverflowError
    if narrowed or v_overflows and (want_type is OverflowError or site in ACCEPTED_BEFORE and want is None):
        want_type = ValueError
    assert (None if got is None else type(got)) is want_type, (site, v, got, want)
    if isinstance(rejected, ValueError) or isinstance(got, ValueError) and (v_overflows or narrowed):
        # The old range test rejected it, the value has no float, or it lies
        # past a narrowed end: the rule's message names the input and shows
        # its value.
        assert str(got).startswith(f"{name} must lie in "), str(got)
        assert str(got).endswith(f", got {v!r}"), str(got)
    if v_overflows and not isinstance(rejected, ValueError) and not narrowed:
        # It passed the range test but has no float.
        assert str(got) == f"{name} must lie in the float range, got {v!r}", str(got)


@pytest.mark.parametrize("v", REAL_INPUTS, ids=repr)
@pytest.mark.parametrize("site", list(REAL_SITES))
def test_real_rule_keeps_every_verdict(site, v):
    _assert_same_verdict(site, v)


@given(
    site=st.sampled_from(list(REAL_SITES)),
    v=st.one_of(st.floats(), st.integers(), st.fractions(), st.booleans(), st.text(max_size=3)),
)
def test_real_rule_keeps_every_verdict_on_any_number(site, v):
    _assert_same_verdict(site, v)


@pytest.mark.parametrize(
    "site, v, want",
    [
        ("normal_density.mean", 10**400, ValueError),
        ("exponential_density.rate", "2", TypeError),
        ("normal_density.mean", True, None),
        ("QuadratureConfig.abs_tol", 10**400, ValueError),  # accepted before: ACCEPTED_BEFORE
    ],
)
def test_real_rule_edge_cases(site, v, want):
    got = _outcome(REAL_SITES[site][1], v)
    assert (None if got is None else type(got)) is want


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.5, 0, 1, "[]"), "p must lie in [0, 1], got 1.5"),
        ((math.nan,), "p must lie in (-inf, inf), got nan"),
        ((0, 0, 1, "(]"), "p must lie in (0, 1], got 0"),
        ((1, 0, 1, "[)"), "p must lie in [0, 1), got 1"),
        ((np.float64(-1.0), 0), "p must lie in (0, inf), got np.float64(-1.0)"),
    ],
)
def test_real_rule_message_names_the_interval_and_value(args, message):
    with pytest.raises(ValueError) as exc:
        check_real("p", *args)
    assert str(exc.value) == message


@pytest.mark.parametrize("v", [10**400, -(10**400), Fraction(10**400, 3)])
def test_real_rule_names_a_value_beyond_the_float_range(v):
    with pytest.raises(ValueError) as exc:
        check_real("p", v)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"p must lie in the float range, got {v!r}"


@pytest.mark.parametrize(
    "args", [(0.0, 0, 1, "[]"), (1.0, 0, 1, "[]"), (1, 0, 1, "(]"), (0, 0, 1, "[)"), (True,), (Fraction(1, 2),)]
)
def test_real_rule_returns_a_float(args):
    got = check_real("p", *args)
    assert got == args[0] and type(got) is float
