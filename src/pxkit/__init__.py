"""Affinity bounds for simple-hypothesis tests under parameter expansion.

The package computes Hellinger affinities of scalar densities by adaptive
quadrature, the affinity upper bounds on the error-probability sum of
square-root likelihood-ratio tests, and the reduction of that bound
obtained by expanding a model so a second summary statistic becomes
informative.  Seeded Monte Carlo simulation verifies the bounds
empirically, and a survey-augmentation simulator shows how proxy reports
from a non-representative respondent pool recover representative
population information.
"""

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
    total_mass,
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
from .kraft import Decision, phi_decide, psi_decide
from .models import (
    ConditionalFamily,
    ExpandedModel,
    MarginalFamily,
    ParamPoint,
    PreservationReport,
    SimpleHypotheses,
    joint_density,
    joint_logpdf,
    make_exponential_rate,
    make_normal_location,
    make_normal_variance_expansion,
    make_two_stage_normal,
    verify_preservation,
)
from .montecarlo import (
    BoundCheck,
    ErrorProbEstimate,
    SweepRow,
    SweepTable,
    check_bound,
    estimate_phi_errors,
    estimate_psi_errors,
    row_seed,
    sweep,
)
from .quadrature import QuadratureBudgetError, QuadratureConfig, QuadResult, integrate
from .seeding import derive_seed
from .survey import (
    AccuracyModel,
    EstimateReport,
    Population,
    PopulationSpec,
    SchemeComparison,
    Stratum,
    collect_proxy_responses,
    compare_schemes,
    estimate_mean,
    filter_most_accurate,
    generate_population,
    load_population_spec,
)

__version__ = "0.1.0"
