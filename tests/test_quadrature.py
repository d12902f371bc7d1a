"""Adaptive integrator accuracy, transforms, budget handling, determinism."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint

from pxkit import QuadratureBudgetError, QuadratureConfig, integrate
from pxkit.quadrature import _HALF_LINE, _WG, _WHOLE_LINE, _WK, _XK, _panels

_EPS = np.finfo(float).eps


def _panel(fn, a, b):
    """One qk15 panel per integrand call: the reference ``_panels`` must equal bit for bit."""
    half = 0.5 * (float(b) - float(a))
    mid = 0.5 * (float(a) + float(b))
    fx = np.asarray(fn(mid + half * _XK), dtype=float)
    resk = float(_WK @ fx)
    resg = float(_WG @ fx[np.arange(1, 15, 2)])  # the Gauss nodes' positions in _XK
    resabs = float(_WK @ np.abs(fx))
    reskh = 0.5 * resk
    resasc = float(_WK @ np.abs(fx - reskh))
    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > np.finfo(float).tiny / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return value, err


def _reference_transform(fn, lower, upper, center, scale):
    """Map (lower, upper) to a finite interval, computing every node's substitution per pass."""
    lo_inf = math.isinf(lower)
    hi_inf = math.isinf(upper)
    if not lo_inf and not hi_inf:
        return lower, upper, fn
    s = scale if scale > 0 else 1.0

    if lo_inf and hi_inf:
        a, b = -1.0, 1.0

        def substitute(t):
            onemt2 = 1.0 - t * t
            return center + s * t / onemt2, s * (1.0 + t * t) / (onemt2 * onemt2)

    else:
        a, b = 0.0, 1.0
        anchor, sign = (lower, 1.0) if hi_inf else (upper, -1.0)

        def substitute(t):
            onemt = 1.0 - t
            return anchor + sign * s * t / onemt, s / (onemt * onemt)

    def g(t):
        with np.errstate(over="ignore", invalid="ignore"):
            x, w = substitute(np.asarray(t, dtype=float))
        fx = np.asarray(fn(x), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(fx == 0.0, 0.0, fx * w)

    return a, b, g


def _reference_integrate(fn, lower, upper, cfg, center, scale):
    """The integrator with no precomputed first pass, one ``_panel`` call per panel."""
    a, b, g = _reference_transform(fn, lower, upper, center, scale)
    edges = np.linspace(a, b, 17).tolist()
    heap = []
    total = 0.0
    err_total = 0.0
    for seq, (left, right) in enumerate(zip(edges, edges[1:])):
        v, e = _panel(g, left, right)
        total += v
        err_total += e
        heapq.heappush(heap, (-e, seq, left, right, v, e))
    seq = len(heap)
    evals = 240
    splits = 0
    while err_total > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if evals + 30 > cfg.max_evaluations:
            raise QuadratureBudgetError(total, err_total, evals)
        _, _, left, right, v, e = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        (v1, e1), (v2, e2) = _panel(g, left, mid), _panel(g, mid, right)
        evals += 30
        total += v1 + v2 - v
        err_total += e1 + e2 - e
        heapq.heappush(heap, (-e1, seq, left, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, right, v2, e2))
        seq += 1
        splits += 1
        if splits % 64 == 0:
            total = math.fsum(item[4] for item in heap)
            err_total = math.fsum(item[5] for item in heap)
    return total, err_total, evals


def test_rule_weights_sum_to_interval_length():
    assert math.fsum(_WK) == pytest.approx(2.0, abs=1e-14)
    assert math.fsum(_WG) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 13, 20])
def test_polynomial_exactness(degree):
    # K15 integrates polynomials up to degree 22 exactly; compare on [0, 1].
    [(value, _)] = _panels(lambda x: (degree + 1) * x**degree, [0.0], [1.0])
    assert value == pytest.approx(1.0, abs=1e-13)


_SHAPES = {
    "bump": lambda x, p: np.exp(-x * x) * np.cos(p * x),
    "kink": lambda x, p: np.sqrt(np.abs(x - p)),
    "cubic": lambda x, p: 1.0 + p * x - x**3,
    "constant": lambda x, p: np.full_like(x, p),
}


@st.composite
def _batches(draw):
    k = draw(st.sampled_from([1, 2, 16]))
    lefts = draw(st.lists(st.floats(-20.0, 20.0), min_size=k, max_size=k))
    widths = draw(st.lists(st.floats(1e-3, 4.0), min_size=k, max_size=k))
    return lefts, [a + w for a, w in zip(lefts, widths)]


_EDGES = np.linspace(-1.0, 1.0, 17).tolist()


# The qk15 error heuristic applies when resasc and the Kronrod-Gauss gap are
# both nonzero (first example), is skipped for a constant whose resasc is 0
# (second) or whose gap is 0 (third), and the 50*eps*resabs floor is skipped
# when resabs is below tiny/(50*eps) (fourth) or the integrand is 0 (fifth).
@given(
    shape=st.sampled_from(sorted(_SHAPES)),
    p=st.floats(-5.0, 5.0),
    amp=st.one_of(st.sampled_from([0.0, 1e-300, 1.0]), st.floats(-1e6, 1e6)),
    batch=_batches(),
)
@example(shape="bump", p=3.0, amp=1.0, batch=([0.0], [1.0]))
@example(shape="constant", p=1.0, amp=1.0, batch=([0.0], [1.0]))
@example(shape="constant", p=3.0, amp=1.0, batch=([0.0, -1.0], [1.0, 0.5]))
@example(shape="bump", p=3.0, amp=1e-300, batch=([0.0], [1.0]))
@example(shape="kink", p=0.3, amp=0.0, batch=(_EDGES[:-1], _EDGES[1:]))
@example(shape="kink", p=0.3, amp=1.0, batch=(_EDGES[:-1], _EDGES[1:]))
def test_batched_panels_equal_one_panel_calls(shape, p, amp, batch):
    fn = lambda x: amp * _SHAPES[shape](x, p)
    lefts, rights = batch
    assert _panels(fn, lefts, rights) == [_panel(fn, a, b) for a, b in zip(lefts, rights)]


@pytest.mark.parametrize("lower, upper", [(0.0, 2.0), (-math.inf, math.inf), (0.0, math.inf),
                                          (-math.inf, 0.0)])
def test_one_integrand_call_per_pass(lower, upper):
    # The kink at 0.3 forces bisections on every interval kind.
    sizes = []

    def fn(x):
        sizes.append(len(x))
        return np.exp(-np.abs(x - 0.3))

    res = integrate(fn, lower, upper, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12))
    bisections = (res.evaluations - 240) // 30
    assert bisections > 0
    assert sizes == [240] + [30] * bisections


def test_known_definite_integrals():
    res = integrate(np.sin, 0.0, math.pi)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    res = integrate(lambda x: np.exp(-x), 0.0, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    res = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -math.inf, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_half_infinite_left():
    res = integrate(lambda x: np.exp(x), -math.inf, 0.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_sqrt_kink_against_scipy():
    fn = lambda x: np.sqrt(np.maximum(1.0 - np.abs(x - 1.0), 0.0))
    res = integrate(fn, 0.0, 2.0, QuadratureConfig(abs_tol=1e-10))
    expected, _ = sciint.quad(lambda x: math.sqrt(max(1.0 - abs(x - 1.0), 0.0)), 0, 2)
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_far_center_needs_hints():
    # A narrow bump far from the origin is found through the (center, scale) hints.
    fn = lambda x: np.exp(-0.5 * ((x - 300.0) / 0.5) ** 2) / (0.5 * math.sqrt(2 * math.pi))
    res = integrate(fn, -math.inf, math.inf, center=300.0, scale=0.5)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_error_estimate_brackets_truth():
    res = integrate(lambda x: np.exp(-x * x), 0.0, 2.0)
    truth, _ = sciint.quad(lambda x: math.exp(-x * x), 0, 2)
    assert abs(res.value - truth) <= max(res.abs_error, 1e-12)


def test_budget_error_carries_best_estimate():
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=300)
    with pytest.raises(QuadratureBudgetError) as err:
        integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, cfg)
    assert err.value.evaluations <= 300
    assert err.value.value == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert err.value.abs_error > 0


def test_determinism():
    fn = lambda x: np.exp(-x * x) * np.cos(3 * x)
    a = integrate(fn, -math.inf, math.inf)
    b = integrate(fn, -math.inf, math.inf)
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1)
    with pytest.raises(ValueError):
        QuadratureConfig(max_evaluations=10)


def test_smallest_budget_is_the_first_pass():
    # The 16 initial panels always run, so a smaller budget could only be overspent.
    with pytest.raises(ValueError, match="integer >= 240"):
        QuadratureConfig(max_evaluations=239)
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_evaluations=240)
    with pytest.raises(QuadratureBudgetError) as err:
        integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, cfg)
    assert err.value.evaluations == 240


@pytest.mark.parametrize("budget", [150.5, 100.25, 300.5, math.inf])
def test_non_integral_budget_rejected(budget):
    with pytest.raises(ValueError, match="max_evaluations must be an integer"):
        QuadratureConfig(max_evaluations=budget)


def test_nan_budget_rejected():
    # A NaN budget would compare false against every evaluation count and never stop.
    with pytest.raises(ValueError, match="max_evaluations"):
        QuadratureConfig(max_evaluations=math.nan)


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_tolerance_rejected(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must lie in \(0, inf\), got {value!r}$"):
        QuadratureConfig(**{field: value})


def test_bad_interval():
    # NaN compares false, so requiring lower < upper rejects it too.
    for lower, upper in [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan),
                         (math.nan, math.nan), (math.inf, math.inf)]:
        with pytest.raises(ValueError, match="bad integration interval"):
            integrate(np.sin, lower, upper)


@pytest.mark.parametrize("hints", [{"center": math.inf}, {"center": -math.inf},
                                   {"center": math.nan}, {"scale": math.inf},
                                   {"scale": math.nan}])
def test_hints_must_be_finite(hints):
    [(name, value)] = hints.items()
    with pytest.raises(ValueError, match=rf"^{name} must lie in \(-inf, inf\), got {value!r}$"):
        integrate(lambda x: np.exp(-x * x), -math.inf, math.inf, **hints)


def test_precomputed_first_pass_is_read_only():
    for first in (_WHOLE_LINE, _HALF_LINE):
        assert len(first.edges) == 17 and len(first.half) == 16
        for arr in first.factors:
            assert arr.shape == (240,) and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


@pytest.mark.parametrize("lower, upper", [(0.0, 2.0), (-math.inf, math.inf), (0.0, math.inf),
                                          (-math.inf, 0.0)])
def test_integrand_may_write_its_argument(lower, upper):
    # The shared first-pass arrays never reach the integrand itself.
    def fn(x):
        x *= x
        return np.exp(-x)

    want = integrate(lambda x: np.exp(-x * x), lower, upper)
    assert integrate(fn, lower, upper) == want
    assert integrate(fn, lower, upper) == want


_BITS_SHAPES = {
    "bump": lambda u: np.exp(-0.5 * u * u),
    "kink": lambda u: np.exp(-np.abs(u)),
    "cauchy": lambda u: 1.0 / (1.0 + u * u),
    "signed": lambda u: (1.0 - u * u) * np.exp(-0.5 * u * u),
    # -0.0 left of the peak and NaN far right of it.
    "holes": lambda u: np.where(u < -0.5, -0.0, np.where(u > 2.5, np.nan, np.exp(-0.5 * u * u))),
}


@st.composite
def _problems(draw):
    """An interval, finite hints, and an integrand whose mass lies where the hints point."""
    kind = draw(st.sampled_from(["finite", "whole", "right", "left"]))
    a = draw(st.floats(-1e3, 1e3))
    center = draw(st.floats(-1e3, 1e3))
    scale = draw(st.one_of(st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e),
                           st.sampled_from([0.0, -1.0])))
    if kind == "finite":
        spread = 10.0 ** draw(st.floats(-3.0, 3.0))
        interval, ref = (a, a + spread), a
    else:
        spread = scale if scale > 0 else 1.0
        interval = {"whole": (-math.inf, math.inf), "right": (a, math.inf),
                    "left": (-math.inf, a)}[kind]
        ref = center if kind == "whole" else a
    # Off the hints the first pass reads 0 everywhere and converges at once.
    loc = ref + draw(st.floats(-3.0, 3.0)) * spread
    width = spread * 10.0 ** draw(st.floats(-1.0, 1.0))
    shape = _BITS_SHAPES[draw(st.sampled_from(sorted(_BITS_SHAPES)))]
    return interval, center, scale, lambda x: shape((x - loc) / width)


def _bits(value, abs_error, evaluations):
    return float(value).hex(), float(abs_error).hex(), evaluations


def _outcome(run):
    """The result's bits, or a budget failure's, and the bits of every node the integrand saw."""
    nodes = []
    try:
        out = _bits(*run(nodes))
    except QuadratureBudgetError as exc:
        out = ("budget", *_bits(exc.value, exc.abs_error, exc.evaluations))
    return out, np.concatenate(nodes).tobytes()


# The first pass of an infinite interval reads its t-nodes and their factors
# from module constants; every result, budget failure included, and every
# integrand node must keep the bits of computing them per call.  Small
# tolerances and budgets force bisections and QuadratureBudgetError.
@settings(max_examples=150, deadline=None)
@given(
    problem=_problems(),
    abs_tol=st.floats(-14.0, -3.0).map(lambda e: 10.0 ** e),
    rel_tol=st.floats(-14.0, -3.0).map(lambda e: 10.0 ** e),
    budget=st.sampled_from([240, 300, 600, 3000]),
)
@example(problem=((-math.inf, math.inf), 0.0, 1.0, lambda x: np.exp(-np.abs(x - 0.3))),
         abs_tol=1e-12, rel_tol=1e-12, budget=3000)
@example(problem=((0.0, math.inf), 0.5, 2.0, lambda x: np.exp(-np.abs(x - 0.3))),
         abs_tol=1e-12, rel_tol=1e-12, budget=300)
@example(problem=((-math.inf, 2.0), -1.0, 0.0, lambda x: 1.0 / (1.0 + (x + 1.0) ** 2)),
         abs_tol=1e-10, rel_tol=1e-10, budget=3000)
@example(problem=((-2.0, 3.0), 0.0, 1.0, lambda x: np.exp(-0.5 * (x - 0.7) ** 2)),
         abs_tol=1e-14, rel_tol=1e-14, budget=600)
def test_integrate_is_bit_identical_to_the_reference(problem, abs_tol, rel_tol, budget):
    (lower, upper), center, scale, fn = problem
    cfg = QuadratureConfig(abs_tol=abs_tol, rel_tol=rel_tol, max_evaluations=budget)

    def recording(nodes):
        def f(x):
            nodes.append(np.array(x, dtype=float))
            return fn(x)

        return f

    want = _outcome(lambda nodes: _reference_integrate(recording(nodes), lower, upper, cfg,
                                                       center, scale))

    def run(nodes):
        res = integrate(recording(nodes), lower, upper, cfg, center=center, scale=scale)
        return res.value, res.abs_error, res.evaluations

    assert _outcome(run) == want
