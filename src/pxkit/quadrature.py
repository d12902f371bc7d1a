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
the integrand lands at moderate t; both must be finite.  The first pass of
an infinite interval always cuts (-1, 1) or (0, 1) into the same 16 panels,
so its 240 t-nodes and their t-only factors (1-t^2, 1+t^2, (1-t^2)^2, or
1-t and (1-t)^2) are computed once at import; a call computes only the
terms in (c, s), in the same order, so the bits equal computing every
factor per call.  Finite intervals and bisection passes compute their
nodes per pass.  A first pass that meets the tolerance is returned before
any bisection state exists; otherwise the panel heap and the bisection pass
are built once, before the bisection loop.  Subdivision order is
deterministic, so results are bit-identical across runs.  One
``np.errstate`` covers all passes of a call, so overflow and invalid
operations print no numpy warning; a non-finite integrand value shows in
the result instead.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._checks import check_count, check_real

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
_ROUNDOFF = 50.0 * _EPS  # the smallest error a panel may report, relative to its |f| integral
_TINY_RESABS = float(np.finfo(float).tiny) / _ROUNDOFF
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
        check_real("abs_tol", self.abs_tol, 0)
        check_real("rel_tol", self.rel_tol, 0)
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


def _nodes(lefts, rights):
    """The 15 Kronrod nodes of every [lefts[i], rights[i]], flat, and the panel half-widths."""
    half = 0.5 * np.subtract(rights, lefts, dtype=float)
    mid = 0.5 * np.add(lefts, rights, dtype=float)
    return (mid[:, None] + half[:, None] * _XK).ravel(), half


def _estimates(fx, half) -> list[tuple[float, float]]:
    """Kronrod value and error estimate of each panel from its 15 values ``fx`` (QUADPACK qk15).

    The rows are reduced with ``np.vecdot``, and the error heuristic runs on
    Python floats, so each panel's result is bit-identical to a one-panel call.
    The Gauss values are copied to a contiguous array first: ``vecdot`` over
    the strided view sums in another order and changes the bits.
    """
    fx = np.asarray(fx, dtype=float).reshape(-1, 15)
    resk = np.vecdot(fx, _WK)
    resg = np.vecdot(fx[:, 1::2].copy(), _WG)
    resabs = np.vecdot(np.abs(fx), _WK)
    resasc = np.vecdot(np.abs(fx - 0.5 * resk[:, None]), _WK)
    out = []
    for k, g, rabs, rasc, h in zip(resk.tolist(), resg.tolist(), resabs.tolist(),
                                   resasc.tolist(), half):
        abs_h = abs(h)
        rabs *= abs_h
        rasc *= abs_h
        err = abs((k - g) * h)
        # The two tests below are rasc * min(1.0, scaled) and
        # max(floor, err) without the builtin calls, NaN included.
        if rasc != 0.0 and err != 0.0:
            scaled = (200.0 * err / rasc) ** 1.5
            err = rasc * scaled if scaled < 1.0 else rasc
        if rabs > _TINY_RESABS:
            floor = _ROUNDOFF * rabs
            if not err > floor:
                err = floor
        out.append((k * h, err))
    return out


def _panels(fn: Callable, lefts, rights) -> list[tuple[float, float]]:
    """Kronrod value and error estimate of f on each [lefts[i], rights[i]].

    ``fn`` is called once, on the 15 nodes of every panel.
    """
    t, half = _nodes(lefts, rights)
    return _estimates(fn(t), half.tolist())


class _FirstPass(NamedTuple):
    """The 16 equal first-pass panels of an interval in t and the factors of its map.

    ``factors`` are the t-only arrays of the substitution on the 240 nodes;
    ``factors_of`` computes them at any nodes, for the bisection passes.
    """

    edges: tuple[float, ...]
    half: tuple[float, ...]
    factors: tuple[np.ndarray, ...]
    factors_of: Callable


def _first_pass(a: float, b: float, factors_of: Callable) -> _FirstPass:
    edges = np.linspace(a, b, _INITIAL_PANELS + 1).tolist()
    t, half = _nodes(edges[:-1], edges[1:])
    return _FirstPass(tuple(edges), tuple(half.tolist()), factors_of(t), factors_of)


def _whole_line_factors(t):
    onemt2 = 1.0 - t * t
    return t, onemt2, 1.0 + t * t, onemt2 * onemt2


def _half_line_factors(t):
    onemt = 1.0 - t
    return t, onemt, onemt * onemt


# The first pass of an infinite interval never depends on the call: its
# panels cut (-1, 1) or (0, 1), so its nodes and their factors are built once
# and shared, read-only.  A finite interval's nodes are the integrand's
# argument, so they are built per call and stay writable.
_WHOLE_LINE = _first_pass(-1.0, 1.0, _whole_line_factors)
_HALF_LINE = _first_pass(0.0, 1.0, _half_line_factors)
for _arr in _WHOLE_LINE.factors + _HALF_LINE.factors:
    _arr.flags.writeable = False
del _arr
_DEFAULT_CONFIG = QuadratureConfig()


def _transform(fn: Callable, lower: float, upper: float, center: float, scale: float):
    """The first pass over (lower, upper) in t, and the integrand of t's factors."""
    lo_inf = math.isinf(lower)
    hi_inf = math.isinf(upper)
    if not lo_inf and not hi_inf:
        return _first_pass(lower, upper, lambda t: (t,)), fn
    s = scale if scale > 0 else 1.0

    if lo_inf and hi_inf:
        first = _WHOLE_LINE

        def substitute(t, onemt2, onept2, den):
            return center + s * t / onemt2, s * onept2 / den

    else:
        first = _HALF_LINE
        anchor, sign = (lower, 1.0) if hi_inf else (upper, -1.0)

        def substitute(t, onemt, den):
            return anchor + sign * s * t / onemt, s / den

    # Near t = +-1 the substitution may overflow to an infinite node and
    # weight; where the integrand is 0, np.where drops the nan of 0 * inf.
    def g(*factors):
        x, w = substitute(*factors)
        fx = np.asarray(fn(x), dtype=float)
        return np.where(fx == 0.0, 0.0, fx * w)

    return first, g


def _unconverged(total: float, err_total: float, cfg: QuadratureConfig) -> bool:
    """The one stopping rule: bisect while the summed error exceeds the tolerance.

    A NaN error fails the comparison, so it stops the bisection.
    """
    return err_total > max(cfg.abs_tol, cfg.rel_tol * abs(total))


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
    override: a caller that needs another tolerance, such as the
    conditional integral of `affinity.expanded_bound`, passes its own config.
    Raises QuadratureBudgetError when max_evaluations is hit first, and
    ValueError unless lower < upper and both hints are finite (a scale
    <= 0 means 1).
    """
    if not lower < upper:
        raise ValueError(f"bad integration interval ({lower}, {upper})")
    check_real("center", center)
    check_real("scale", scale)
    cfg = _DEFAULT_CONFIG if cfg is None else cfg

    first, g = _transform(fn, lower, upper, center, scale)
    # One errstate for every pass: the substitution overflows near t = +-1,
    # and a pass that holds inf makes inf - inf in its estimates.
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = _estimates(g(*first.factors), first.half)
        total = 0.0
        err_total = 0.0
        for v, e in estimates:
            total += v
            err_total += e
        evals = MIN_EVALUATIONS
        if _unconverged(total, err_total, cfg):
            edges = first.edges
            heap = [(-e, seq, left, right, v, e) for seq, (left, right, (v, e))
                    in enumerate(zip(edges, edges[1:], estimates))]
            heapq.heapify(heap)
            seq = len(heap)

            def bisection_pass(t):
                return g(*first.factors_of(t))

            splits = 0
            while _unconverged(total, err_total, cfg):
                if evals + 30 > cfg.max_evaluations:
                    raise QuadratureBudgetError(total, err_total, evals)
                neg_e, _, left, right, v, e = heapq.heappop(heap)
                mid = 0.5 * (left + right)
                (v1, e1), (v2, e2) = _panels(bisection_pass, (left, mid), (mid, right))
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
