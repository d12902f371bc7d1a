"""Closed-form affinities on a fixed grid: the cells whose error estimate misses.

A cell fails when |raw - exact| exceeds the reported ``abs_error_estimate``.
The set of failing cells must equal `KNOWN_VIOLATIONS`: a change that fixes
a cell takes it out of the set, and a change that breaks one fails here, so
the set can only shrink.  The target is an empty set.

The cells, with their closed forms:
- exponential, rate 1 against 10^0 ... 10^12 in half decades:
  2 sqrt(l0 l1) / (l0 + l1);
- N(0, 1) against N(sep, s), s = 10^0 ... 10^-8 in half decades,
  sep in {0, 1, 3, 10}: sqrt(2 s0 s1 / (s0^2 + s1^2)) exp(-sep^2 / (4 (s0^2 + s1^2)));
- gamma with a shared shape k in {1/2, 1, 3/2, 3}, scale 1 against
  10^0 ... 10^6 in half decades: (2 sqrt(t0 t1) / (t0 + t1))^k;
- the variance expansion through `expanded_bound`, n = 2 ... 8,
  rel_tol in {1e-7, 1e-3}, theta 0 against delta in {0.5, 1, 2}:
  exp(-n delta^2 / 8);
- the two-stage normal model through `expanded_bound`, (n1, n2) in
  {(1, 1), (1, 4), (4, 1), (3, 2)}, sigma in {0.5, 1, 2}, rel_tol in
  {1e-7, 1e-3}, theta 0 against delta in {0.5, 1, 2}:
  exp(-delta^2 (n1 + n2) / (8 sigma^2)).
"""

import math

from pxkit import (
    QuadratureConfig,
    SimpleHypotheses,
    affinity,
    expanded_bound,
    exponential_density,
    gamma_density,
    make_normal_variance_expansion,
    make_two_stage_normal,
    normal_density,
)


def half_decades(count, sign=1):
    """``count`` powers of ten in half decades from 10^0, as (label, value) pairs."""
    return [(f"10^{(sign * k) / 2:g}", 10.0 ** ((sign * k) / 2)) for k in range(count)]


def _exponential_cells():
    for name, rate in half_decades(25):
        exact = 2 * math.sqrt(rate) / (1 + rate)
        yield f"exponential 1 vs {name}", exact, lambda rate=rate: affinity(
            exponential_density(1.0), exponential_density(rate)
        )


def _normal_cells():
    for sep in (0, 1, 3, 10):
        for name, s in half_decades(17, sign=-1):
            exact = math.sqrt(2 * s / (1 + s * s)) * math.exp(-(sep**2) / (4 * (1 + s * s)))
            yield f"normal sep {sep} sd {name}", exact, lambda sep=sep, s=s: affinity(
                normal_density(0.0, 1.0), normal_density(float(sep), s)
            )


def _gamma_cells():
    for shape in (0.5, 1.0, 1.5, 3.0):
        for name, scale in half_decades(13):
            exact = (2 * math.sqrt(scale) / (1 + scale)) ** shape
            yield f"gamma k {shape:g} 1 vs {name}", exact, lambda shape=shape, scale=scale: affinity(
                gamma_density(shape, 1.0), gamma_density(shape, scale)
            )


def _variance_cells():
    for n in range(2, 9):
        for rel_tol in (1e-7, 1e-3):
            for delta in (0.5, 1.0, 2.0):
                exact = math.exp(-n * delta * delta / 8)
                yield f"variance n {n} rel_tol {rel_tol:g} delta {delta:g}", exact, (
                    lambda n=n, rel_tol=rel_tol, delta=delta: expanded_bound(
                        make_normal_variance_expansion(n),
                        SimpleHypotheses(0.0, delta),
                        QuadratureConfig(rel_tol=rel_tol),
                    )
                )


def _two_stage_cells():
    for n1, n2 in ((1, 1), (1, 4), (4, 1), (3, 2)):
        for sigma in (0.5, 1.0, 2.0):
            for rel_tol in (1e-7, 1e-3):
                for delta in (0.5, 1.0, 2.0):
                    exact = math.exp(-delta * delta * (n1 + n2) / (8 * sigma * sigma))
                    name = f"two-stage n1 {n1} n2 {n2} sigma {sigma:g} rel_tol {rel_tol:g} delta {delta:g}"
                    yield name, exact, (
                        lambda n1=n1, n2=n2, sigma=sigma, rel_tol=rel_tol, delta=delta: expanded_bound(
                            make_two_stage_normal(n1, n2, sigma),
                            SimpleHypotheses(0.0, delta),
                            QuadratureConfig(rel_tol=rel_tol),
                        )
                    )


CELLS = [
    *_exponential_cells(), *_normal_cells(), *_gamma_cells(), *_variance_cells(), *_two_stage_cells()
]

# 75 cells when the grid was added.  In the exponential, normal and gamma
# cells the integrator's location and scale hints miss the narrower density;
# the variance cells at n = 2 and 4 report too small an error.
KNOWN_VIOLATIONS = {
    "exponential 1 vs 10^5.5", "exponential 1 vs 10^6", "exponential 1 vs 10^6.5",
    "exponential 1 vs 10^7", "exponential 1 vs 10^7.5", "exponential 1 vs 10^8",
    "exponential 1 vs 10^8.5", "exponential 1 vs 10^9", "exponential 1 vs 10^9.5",
    "exponential 1 vs 10^10", "exponential 1 vs 10^10.5", "exponential 1 vs 10^11",
    "exponential 1 vs 10^11.5", "exponential 1 vs 10^12",
    "normal sep 0 sd 10^-4.5", "normal sep 0 sd 10^-5", "normal sep 0 sd 10^-5.5",
    "normal sep 0 sd 10^-6", "normal sep 0 sd 10^-6.5", "normal sep 0 sd 10^-7",
    "normal sep 0 sd 10^-7.5", "normal sep 0 sd 10^-8",
    "normal sep 1 sd 10^-3.5", "normal sep 1 sd 10^-4", "normal sep 1 sd 10^-4.5",
    "normal sep 1 sd 10^-5", "normal sep 1 sd 10^-5.5", "normal sep 1 sd 10^-6",
    "normal sep 1 sd 10^-6.5", "normal sep 1 sd 10^-7", "normal sep 1 sd 10^-7.5",
    "normal sep 1 sd 10^-8",
    "normal sep 3 sd 10^-2.5", "normal sep 3 sd 10^-3", "normal sep 3 sd 10^-3.5",
    "normal sep 3 sd 10^-4", "normal sep 3 sd 10^-4.5", "normal sep 3 sd 10^-5",
    "normal sep 3 sd 10^-5.5", "normal sep 3 sd 10^-6", "normal sep 3 sd 10^-6.5",
    "normal sep 3 sd 10^-7", "normal sep 3 sd 10^-7.5", "normal sep 3 sd 10^-8",
    "normal sep 10 sd 10^-2", "normal sep 10 sd 10^-2.5", "normal sep 10 sd 10^-3",
    "normal sep 10 sd 10^-3.5", "normal sep 10 sd 10^-4", "normal sep 10 sd 10^-4.5",
    "normal sep 10 sd 10^-5", "normal sep 10 sd 10^-5.5", "normal sep 10 sd 10^-6",
    "normal sep 10 sd 10^-6.5", "normal sep 10 sd 10^-7", "normal sep 10 sd 10^-7.5",
    "normal sep 10 sd 10^-8",
    "gamma k 0.5 1 vs 10^5.5", "gamma k 0.5 1 vs 10^6",
    "gamma k 1 1 vs 10^5.5", "gamma k 1 1 vs 10^6",
    "gamma k 1.5 1 vs 10^5", "gamma k 1.5 1 vs 10^5.5", "gamma k 1.5 1 vs 10^6",
    "gamma k 3 1 vs 10^5", "gamma k 3 1 vs 10^5.5", "gamma k 3 1 vs 10^6",
    "variance n 2 rel_tol 1e-07 delta 1", "variance n 2 rel_tol 1e-07 delta 2",
    "variance n 2 rel_tol 0.001 delta 0.5", "variance n 2 rel_tol 0.001 delta 1",
    "variance n 2 rel_tol 0.001 delta 2", "variance n 4 rel_tol 0.001 delta 0.5",
    "variance n 4 rel_tol 0.001 delta 1", "variance n 4 rel_tol 0.001 delta 2",
}


def test_grid_has_its_cells():
    names = [name for name, _, _ in CELLS]
    assert len(names) == len(set(names)) == 259
    assert KNOWN_VIOLATIONS <= set(names)


def test_failing_cells_are_the_known_violations():
    failing = set()
    for name, exact, compute in CELLS:
        res = compute()
        if not abs(res.raw_value - exact) <= res.abs_error_estimate:
            failing.add(name)
    assert sorted(failing - KNOWN_VIOLATIONS) == [], "cells that now fail"
    assert sorted(KNOWN_VIOLATIONS - failing) == [], "cells that now pass: remove them from KNOWN_VIOLATIONS"
