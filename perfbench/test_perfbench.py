"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
from scipy import integrate, optimize, stats  # noqa: E402

import run  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402


def _quad_bc(f, g, lo, hi):
    return integrate.quad(lambda x: math.sqrt(f(x) * g(x)), lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


@pytest.mark.parametrize("name", ["bounds", "mc", "survey", "cli"])
def test_generators_are_deterministic_for_a_seed(name, tmp_path):
    cycle = W.WORKLOADS[name].cycle
    first = [(op.cls, op.kind, op.inputs) for op in cycle(11, 2, tmp_path)]
    again = [(op.cls, op.kind, op.inputs) for op in cycle(11, 2, tmp_path)]
    other = [(op.cls, op.kind, op.inputs) for op in cycle(12, 2, tmp_path)]
    assert first == again
    assert first != other


def test_cycle_composition_is_fixed():
    for seed in (1, 2, 3):
        ops = W.bounds_cycle(seed, 1)
        assert sum(op.cls == "fast" for op in ops) == W.BOUNDS_AFFINITY_PER_CYCLE
        kinds = sorted(op.kind for op in ops if op.cls == "slow")
        assert kinds.count("two-stage") >= 4 and "variance-2" in kinds and "variance-8" in kinds
        assert sum(k.endswith("@1e-12") for k in kinds) == 1


@pytest.mark.parametrize("delta,sd", [(1.0, 1.0), (0.3, 2.0), (3.0, 0.7)])
def test_normal_closed_form(delta, sd):
    f = stats.norm(0.0, sd).pdf
    g = stats.norm(delta, sd).pdf
    assert W.normal_bc(delta, sd) == pytest.approx(_quad_bc(f, g, -np.inf, np.inf), abs=1e-10)


@pytest.mark.parametrize("l0,l1", [(1.0, 2.0), (0.5, 3.0), (4.0, 1.1)])
def test_exponential_closed_form(l0, l1):
    f = stats.expon(scale=1 / l0).pdf
    g = stats.expon(scale=1 / l1).pdf
    assert W.exponential_bc(l0, l1) == pytest.approx(_quad_bc(f, g, 0, np.inf), abs=1e-10)


@pytest.mark.parametrize("k,s0,s1", [(1.0, 1.0, 2.0), (2.5, 0.5, 1.5), (5.0, 1.0, 1.1)])
def test_gamma_closed_form(k, s0, s1):
    f = stats.gamma(k, scale=s0).pdf
    g = stats.gamma(k, scale=s1).pdf
    assert W.gamma_bc(k, s0, s1) == pytest.approx(_quad_bc(f, g, 0, np.inf), abs=1e-9)


def test_two_stage_and_variance_closed_forms():
    # Two-stage: the joint affinity is the product of the two independent stages.
    n1, n2, sigma, delta = 2, 3, 1.5, 0.8
    product = W.normal_bc(delta, sigma / math.sqrt(n1)) * W.normal_bc(delta, sigma / math.sqrt(n2))
    assert W.normal_bc(delta, sigma / math.sqrt(n1 + n2)) == pytest.approx(product, rel=1e-14)
    # Variance model: the theta-free conditional contributes a factor of 1.
    n = 3
    f = stats.norm(0.0, 1 / math.sqrt(n)).pdf
    g = stats.norm(1.2, 1 / math.sqrt(n)).pdf
    assert W.normal_bc(1.2, 1 / math.sqrt(n)) == pytest.approx(_quad_bc(f, g, -np.inf, np.inf), abs=1e-10)


@pytest.mark.parametrize("delta,sd", [(1.0, 1.0), (-0.5, 2.0)])
def test_normal_error_probabilities(delta, sd):
    d0, d1 = stats.norm(0.0, sd), stats.norm(delta, sd)
    mid = delta / 2
    if delta > 0:  # rejects above the midpoint
        expected = (d0.sf(mid), d1.cdf(mid))
    else:
        expected = (d0.cdf(mid), d1.sf(mid))
    assert W.normal_errors(delta, sd) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("l0,l1", [(1.0, 2.0), (2.0, 0.7)])
def test_exponential_error_probabilities(l0, l1):
    d0, d1 = stats.expon(scale=1 / l0), stats.expon(scale=1 / l1)
    c = optimize.brentq(lambda t: d1.logpdf(t) - d0.logpdf(t), 1e-9, 50)
    if l1 > l0:  # rejects below c
        expected = (d0.cdf(c), d1.sf(c))
    else:
        expected = (d0.sf(c), d1.cdf(c))
    assert W.exponential_errors(l0, l1) == pytest.approx(expected, rel=1e-10)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 4.0, 0, 0),  # child a
        (1, 3.0, 6.0, 0, 0),  # child b, overlapping a
        (2, 2.0, 3.0, 1, 0),  # grandchild under a
        (2, 9.0, 12.0, 0, 0),  # child running past the root's end
    ]
    assert T.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    tracer = T.Tracer()
    for name in ("root", "mid", "leaf"):
        tracer._nid(name)
    tracer.spans = spans
    s = T.summarize(tracer)
    assert s["calls"] == {"root": 1, "mid": 2, "leaf": 2}
    assert s["busy_s"]["mid"] == pytest.approx(5.0)
    assert s["busy_s"]["leaf"] == pytest.approx(4.0)
    assert s["self_s"]["root"] == pytest.approx(4.0)


def test_wrapped_calls_nest_and_restore():
    tracer = T.Tracer()
    original = W.A.conditional_affinity
    T.install(tracer)
    try:
        assert W.A.conditional_affinity is not original
        em = W.M.make_two_stage_normal(1, 1, 1.0)
        W.A.conditional_affinity(em, W.M.SimpleHypotheses(0.0, 1.0), 0.3)
    finally:
        tracer.restore()
    assert W.A.conditional_affinity is original
    names = [tracer.names[nid] for nid, *_ in tracer.spans]
    assert names[0] == "affinity.conditional_affinity"
    assert "quadrature.integrate" in names and "densities.logpdf" in names
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(tracer.spans))
    assert tracer.counters["quadrature.evaluations"] > 0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(12))) == (None, None, 12)
    value, pct, n = run.tail(list(range(100)))
    assert (pct, n) == (90.0, 100)
    assert sum(x > value for x in range(100)) >= 10


def _run_cycle(name, ctx, traced=False):
    ops = W.WORKLOADS[name].cycle(3, 0, ctx)
    checks = []
    tracer = T.Tracer()
    if traced:
        T.install(tracer)
    try:
        for op in ops:
            out = (op.inproc or op.call)() if traced else op.call()
            checks.append(op.check(out))
    finally:
        tracer.restore()
    return checks


@pytest.mark.parametrize("name", ["mc", "survey", "cli", "bounds"])
def test_smoke_cycle_passes_output_checks(name, tmp_path, monkeypatch):
    monkeypatch.setenv("PXKIT_OUT_DIR", str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))
    checks = _run_cycle(name, tmp_path)
    assert all(c.ok for c in checks)
    pooled = {}
    for c in checks:
        for key, errors in c.pooled.items():
            pooled.setdefault(key, []).append(errors)
    assert all(W.pooled_ok(pooled).values())
    if name == "bounds":
        # Variance n=2 at separation 1 reports an error below its true error.
        assert sum(c.violations for c in checks) >= 1
    if name in ("mc", "cli"):
        traced = _run_cycle(name, tmp_path, traced=True)
        assert W.digest(c.numbers for c in traced) == W.digest(c.numbers for c in checks)
