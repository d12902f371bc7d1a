"""The package namespace: every public name, with montecarlo and survey loaded on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import pxkit

# The public names of `import pxkit`: the library's functions and classes and
# the submodules bound as package attributes (``affinity`` is the function).
PUBLIC = [
    "AccuracyModel", "AffinityResult", "BoundCheck", "BoundComparison", "ConditionalFamily",
    "ErrorProbEstimate", "ExpandedModel", "Interval", "MarginalFamily", "PopulationSpec",
    "QuadResult", "QuadratureBudgetError", "QuadratureConfig", "ScalarDensity",
    "SchemeComparison", "SimpleHypotheses", "Stratum", "SweepTable", "activation_measure",
    "affinity", "check_bound", "compare_schemes", "conditional_affinity", "densities",
    "derive_seed", "estimate_phi_errors", "estimate_psi_errors", "expanded_bound",
    "exponential_density", "gamma_density", "hellinger_sq", "integrate", "joint_logpdf",
    "kraft", "load_tabulated_csv", "make_exponential_rate", "make_normal_location",
    "make_normal_variance_expansion", "make_two_stage_normal", "marginal_bound", "models",
    "montecarlo", "normal_density", "product_affinity_iid", "quadrature", "row_seed",
    "seeding", "survey", "sweep", "tabulated_density",
]
SUBMODULES = {"densities", "kraft", "models", "montecarlo", "quadrature", "seeding", "survey"}


def test_all_is_the_public_set():
    assert pxkit.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(pxkit))


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_the_submodules_object(name):
    value = getattr(pxkit, name)
    if name in SUBMODULES:
        assert value is sys.modules[f"pxkit.{name}"]
    else:
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_name():
    namespace = {}
    exec("from pxkit import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(pxkit, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pxkit.no_such_name
    assert not hasattr(pxkit, "Unit")


def test_bare_import_loads_montecarlo_and_survey_on_first_use():
    src = str(Path(pxkit.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import pxkit\n"
        "assert 'pxkit.montecarlo' not in sys.modules and 'pxkit.survey' not in sys.modules\n"
        "assert pxkit.survey.compare_schemes is sys.modules['pxkit.survey'].compare_schemes\n"
        "assert pxkit.montecarlo.sweep is sys.modules['pxkit.montecarlo'].sweep\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_numpy_random():
    # numpy loads numpy.random on first attribute access; importing it costs
    # about a tenth of `import pxkit.cli`, which every CLI call pays.
    src = str(Path(pxkit.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import pxkit.cli\n"
        "assert 'numpy.random' not in sys.modules, [m for m in sys.modules if 'random' in m]\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_seeding():
    # Only the montecarlo and survey layers derive seeds; affinity, bound and
    # r-measure load neither, so `import pxkit.cli` must not load seeding either.
    src = str(Path(pxkit.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import pxkit.cli\n"
        "assert 'pxkit.seeding' not in sys.modules\n"
        "import pxkit\n"
        "assert pxkit.derive_seed is sys.modules['pxkit.seeding'].derive_seed\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
