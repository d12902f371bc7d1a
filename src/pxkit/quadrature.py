"""Adaptive Gauss-Kronrod quadrature with infinite-interval transforms.

Each panel is evaluated with a 15-point Kronrod rule; the embedded 7-point
Gauss rule supplies the error estimate.  The panel with the largest error
estimate is bisected until the summed error meets the tolerance or the
evaluation budget runs out.  The integrand is called once per pass, on the
15*k nodes of all k panels of that pass at once (k = 16 for the first pass,
then 2 per bisection), so it must be elementwise: its value at a point may
not depend on the other points of the array.

Infinite intervals are mapped onto finite ones with rational substitutions
before any panel is created:

    (-inf, inf):  x = c + s*t/(1-t^2),  t in (-1, 1)
    (a,    inf):  x = a + s*t/(1-t),    t in (0, 1)
    (-inf,   b):  x = b - s*t/(1-t),    t in (0, 1)

where (c, s) are location/scale hints supplied by the caller so the mass of
the integrand lands at moderate t.  Subdivision order is deterministic, so
results are bit-identical across runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import check_count

# 15-point Kronrod nodes on [-1, 1] (ascending) with Kronrod weights; the
# odd-indexed nodes form the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

_EPS = float(np.finfo(float).eps)
_TINY_RESABS = float(np.finfo(float).tiny) / (50.0 * _EPS)
_INITIAL_PANELS = 16  # equal panels the interval is cut into before adaptive bisection
# The first pass over the initial panels always runs, so no smaller budget can hold.
MIN_EVALUATIONS = _INITIAL_PANELS * 15


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and evaluation budget for the adaptive integrator."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_evaluations: int = 1_000_000

    def __post_init__(self) -> None:
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        budget = check_count("max_evaluations", self.max_evaluations, MIN_EVALUATIONS)
        object.__setattr__(self, "max_evaluations", budget)


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error: float
    evaluations: int


class QuadratureBudgetError(RuntimeError):
    """Budget exhausted before the tolerance was met.

    Carries the best estimate obtained so far and its error bound.
    """

    def __init__(self, value: float, abs_error: float, evaluations: int):
        super().__init__(
            f"quadrature budget exhausted after {evaluations} evaluations: "
            f"estimate {value!r} +/- {abs_error:.3e}"
        )
        self.value = value
        self.abs_error = abs_error
        self.evaluations = evaluations


def _panels(fn: Callable, lefts, rights) -> list[tuple[float, float]]:
    """Kronrod value and error estimate of f on each [lefts[i], rights[i]] (QUADPACK qk15).

    ``fn`` is called once, on the 15 nodes of every panel.  The rows are
    reduced with ``np.vecdot``, and the error heuristic runs on Python
    floats, so each panel's result is bit-identical to a one-panel call.
    """
    half = 0.5 * np.subtract(rights, lefts, dtype=float)
    mid = 0.5 * np.add(lefts, rights, dtype=float)
    fx = np.asarray(fn((mid[:, None] + half[:, None] * _XK).ravel()), dtype=float).reshape(-1, 15)
    resk = np.vecdot(fx, _WK)
    resg = np.vecdot(np.ascontiguousarray(fx[:, _GAUSS_IDX]), _WG)
    resabs = np.vecdot(np.abs(fx), _WK)
    resasc = np.vecdot(np.abs(fx - 0.5 * resk[:, None]), _WK)
    out = []
    for k, g, rabs, rasc, h in zip(*(v.tolist() for v in (resk, resg, resabs, resasc, half))):
        rabs *= abs(h)
        rasc *= abs(h)
        err = abs((k - g) * h)
        if rasc != 0.0 and err != 0.0:
            err = rasc * min(1.0, (200.0 * err / rasc) ** 1.5)
        if rabs > _TINY_RESABS:
            err = max(50.0 * _EPS * rabs, err)
        out.append((k * h, err))
    return out


def _transform(fn: Callable, lower: float, upper: float, center: float, scale: float):
    """Map (lower, upper) to a finite interval; return (a, b, wrapped integrand)."""
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

    # Near t = +-1 the substitution may overflow to an infinite node and
    # weight; where the integrand is 0, np.where drops the nan of 0 * inf.
    def g(t):
        with np.errstate(over="ignore", invalid="ignore"):
            x, w = substitute(np.asarray(t, dtype=float))
        fx = np.asarray(fn(x), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(fx == 0.0, 0.0, fx * w)

    return a, b, g


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    cfg: QuadratureConfig | None = None,
    *,
    center: float = 0.0,
    scale: float = 1.0,
) -> QuadResult:
    """Integrate a vectorized function over (lower, upper).

    ``fn`` is called with a 1-D array of 15*k points at once (240 on the
    first pass, 30 per bisection) and must return an array of the same
    shape whose entries each depend only on their own point.

    Converges when the summed panel error is below
    max(cfg.abs_tol, cfg.rel_tol * |integral|).  There is no per-call
    override: an iterated integral passes each level a config that holds
    its share of the tolerance and of the evaluation budget.
    Raises QuadratureBudgetError when max_evaluations is hit first.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if lower >= upper:
        raise ValueError(f"bad integration interval ({lower}, {upper})")

    a, b, g = _transform(fn, lower, upper, center, scale)

    edges = np.linspace(a, b, _INITIAL_PANELS + 1).tolist()
    first = _panels(g, edges[:-1], edges[1:])
    heap: list = []
    total = 0.0
    err_total = 0.0
    for seq, (left, right, (v, e)) in enumerate(zip(edges, edges[1:], first)):
        total += v
        err_total += e
        heapq.heappush(heap, (-e, seq, left, right, v, e))
    seq = len(heap)
    evals = MIN_EVALUATIONS

    splits = 0
    while err_total > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if evals + 30 > cfg.max_evaluations:
            raise QuadratureBudgetError(total, err_total, evals)
        neg_e, _, left, right, v, e = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        (v1, e1), (v2, e2) = _panels(g, (left, mid), (mid, right))
        evals += 30
        total += v1 + v2 - v
        err_total += e1 + e2 - e
        heapq.heappush(heap, (-e1, seq, left, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, right, v2, e2))
        seq += 1
        splits += 1
        if splits % 64 == 0:
            # Recompute sums to shed accumulated floating-point drift.
            total = math.fsum(item[4] for item in heap)
            err_total = math.fsum(item[5] for item in heap)

    return QuadResult(value=float(total), abs_error=float(err_total), evaluations=evals)
