"""Affinity bounds for simple-hypothesis tests under parameter expansion.

The package computes Hellinger affinities of scalar densities by adaptive
quadrature, the affinity upper bounds on the error-probability sum of
square-root likelihood-ratio tests, and the reduction of that bound
obtained by expanding a model so a second summary statistic becomes
informative.  Seeded Monte Carlo simulation verifies the bounds
empirically, and a survey-augmentation simulator shows how proxy reports
from a non-representative respondent pool recover representative
population information.

``import pxkit`` loads the quadrature, density, model and affinity layers.
The ``montecarlo`` and ``survey`` layers (and ``kraft`` and ``seeding``,
which only they use) load on first access to one of their names, so each
CLI subcommand loads only the layers it runs.
"""

from importlib import import_module as _import_module

from .affinity import (
    AffinityResult,
    BoundComparison,
    activation_measure,
    affinity,
    conditional_affinity,
    expanded_bound,
    hellinger_sq,
    marginal_bound,
    product_affinity_iid,
)
from .densities import (
    Interval,
    ScalarDensity,
    exponential_density,
    gamma_density,
    load_tabulated_csv,
    normal_density,
    tabulated_density,
)
from .models import (
    ConditionalFamily,
    ExpandedModel,
    MarginalFamily,
    SimpleHypotheses,
    joint_logpdf,
    make_exponential_rate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
)
from .quadrature import QuadratureBudgetError, QuadratureConfig, QuadResult, integrate

# Public name -> the submodule it is loaded from on first access; a
# submodule's own name maps to itself.
_LAZY = {
    "kraft": "kraft",
    "montecarlo": "montecarlo",
    **dict.fromkeys(
        (
            "BoundCheck",
            "ErrorProbEstimate",
            "SweepTable",
            "check_bound",
            "estimate_phi_errors",
            "estimate_psi_errors",
            "row_seed",
            "sweep",
        ),
        "montecarlo",
    ),
    "seeding": "seeding",
    "derive_seed": "seeding",
    "survey": "survey",
    **dict.fromkeys(
        (
            "AccuracyModel",
            "PopulationSpec",
            "SchemeComparison",
            "Stratum",
            "compare_schemes",
        ),
        "survey",
    ),
}

# Every public name bound above (the submodules the eager imports bind too)
# and every lazy one.
__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
