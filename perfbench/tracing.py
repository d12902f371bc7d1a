"""Timing wrappers around public pxkit functions, spans, and per-layer metrics.

A traced run replaces module attributes with wrappers that record one span
per call: name, start, end, parent span and request id.  Each wrapper is
installed on the attribute the caller resolves at call time (for example
``pxkit.affinity.integrate``, which ``affinity`` and ``expanded_bound``
look up in their own module), so nothing inside ``src/`` changes.  Spans
are kept in memory and written out when the run ends; ``restore`` puts the
original functions back.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import time
from collections import Counter, defaultdict

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder with counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name_id, start, end, parent_index, request); parent -1 is a root.
        self.spans: list = []
        self.counters: Counter = Counter()
        self.request_counters: defaultdict = defaultdict(Counter)
        self.request = 0
        self._stack: list[int] = []
        self._patched: list = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_return=None, on_error=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``on_return(args, kwargs, result)`` and ``on_error(exc)`` update
        counters; the wrapper returns the result or re-raises unchanged.
        """
        nid = self._nid(name)
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = _perf()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.request)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module_name: str, attr: str, name: str, **hooks) -> None:
        """Replace ``module.attr`` with a span-recording wrapper, if it exists."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,request\n")
            for i, (nid, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{start!r},{end!r},{parent},{req}\n")


def _merged_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans) -> list[float]:
    """Per-span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - _merged_length(kids))
    return out


def summarize(tracer: Tracer) -> dict:
    """Call count, self time and busy time (union of intervals) per span name."""
    selfs = self_times(tracer.spans)
    calls = Counter()
    self_s = Counter()
    intervals = defaultdict(list)
    for (nid, start, end, _, _), st in zip(tracer.spans, selfs):
        name = tracer.names[nid]
        calls[name] += 1
        self_s[name] += st
        intervals[name].append((start, end))
    busy = {name: _merged_length(iv) for name, iv in intervals.items()}
    return {"calls": calls, "self_s": self_s, "busy_s": busy}


def _count(tracer, key, amount=1):
    tracer.counters[key] += amount
    tracer.request_counters[tracer.request][key] += amount


def install(tracer: Tracer) -> None:
    """Wrap the public pxkit functions each layer's callers resolve."""
    t = tracer

    def quad_done(args, kwargs, res):
        _count(t, "quadrature.evaluations", res.evaluations)

    def quad_failed(exc):
        if type(exc).__name__ == "QuadratureBudgetError":
            _count(t, "quadrature.budget_errors")
            _count(t, "quadrature.evaluations", exc.evaluations)

    t.patch("pxkit.affinity", "integrate", "quadrature.integrate", on_return=quad_done, on_error=quad_failed)

    def nested_evals(args, kwargs, res):
        _count(t, "affinity.expanded_bound.evaluations", res.evaluations)

    t.patch("pxkit.affinity", "expanded_bound", "affinity.expanded_bound", on_return=nested_evals)
    for attr in ("affinity", "conditional_affinity", "marginal_bound", "activation_measure"):
        t.patch("pxkit.affinity", attr, f"affinity.{attr}")

    def wrap_density(args, kwargs, d):
        _count(t, "densities.constructions")

    # Density factories: wrapped where models builds them and where the
    # benchmark builds them directly.  The returned density's sample and
    # logpdf callables are wrapped too, so their time is attributed.
    for module in ("pxkit.models", "pxkit.densities"):
        for attr in ("normal_density", "gamma_density", "exponential_density"):
            _patch_factory(t, module, attr, wrap_density)
    for module in ("pxkit.densities", "pxkit.survey"):
        t.patch(module, "make_rng", "densities.make_rng")

    t.patch("pxkit.montecarlo", "joint_logpdf", "models.joint_logpdf")
    for attr in ("phi_decide", "psi_decide"):
        t.patch("pxkit.kraft", attr, "kraft.decide")

    def draws(args, kwargs, est):
        _count(t, "montecarlo.draws", 2 * est.replicates)

    for attr in ("estimate_phi_errors", "estimate_psi_errors"):
        t.patch("pxkit.montecarlo", attr, f"montecarlo.{attr}", on_return=draws)
    for module in ("pxkit.montecarlo", "pxkit.survey", "pxkit.seeding"):
        t.patch(module, "derive_seed", "seeding.derive_seed")

    def units(args, kwargs, pop):
        _count(t, "survey.units", len(pop.units))

    t.patch("pxkit.survey", "generate_population", "survey.generate_population", on_return=units)
    for attr in ("collect_proxy_responses", "filter_most_accurate", "estimate_mean", "compare_schemes"):
        t.patch("pxkit.survey", attr, f"survey.{attr}")

    def written(args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        _count(t, "reporting.bytes_written", len(text.encode("utf-8")))

    for attr in ("render_record", "render_table"):
        t.patch("pxkit.cli", attr, "reporting.render")
    # cli writes results through its own reference to write_atomic and the
    # manifest through write_manifest, which calls reporting.write_atomic.
    t.patch("pxkit.cli", "write_atomic", "reporting.write", on_return=written)
    t.patch("pxkit.cli", "write_manifest", "reporting.write")
    t.patch("pxkit.reporting", "write_atomic", "reporting.write", on_return=written)
    t.patch("pxkit.cli", "run", "cli.run")


def _patch_factory(t: Tracer, module_name: str, attr: str, on_build) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return

    def build(*args, **kwargs):
        d = original(*args, **kwargs)
        on_build(args, kwargs, d)
        return dataclasses.replace(
            d,
            logpdf=t.wrap("densities.logpdf", d.logpdf),
            sample=t.wrap("densities.sample", d.sample),
        )

    t._patched.append((module, attr, original))
    setattr(module, attr, t.wrap("densities.construct", build))


PER_LAYER = (
    ("quadrature.integrate.calls", "count"),
    ("quadrature.evaluations", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.integrate.self_s", "s"),
    ("quadrature.us_per_panel", "us"),
    ("quadrature.budget_errors", "count"),
    ("quadrature.evals.affinity_n01_n11", "count"),
    ("quadrature.evals.two_stage_111", "count"),
    ("quadrature.evals.variance_n2", "count"),
    ("affinity.affinity.calls", "count"),
    ("affinity.affinity.self_s", "s"),
    ("affinity.expanded_bound.busy_s", "s"),
    ("affinity.expanded_bound.self_s", "s"),
    ("affinity.inner_integrals", "count"),
    ("affinity.err_ratio_max", "ratio"),
    ("densities.constructions", "count"),
    ("densities.sample.busy_s", "s"),
    ("densities.logpdf.busy_s", "s"),
    ("densities.make_rng.calls", "count"),
    ("models.joint_logpdf.calls", "count"),
    ("models.joint_logpdf.self_s", "s"),
    ("kraft.decide.calls", "count"),
    ("montecarlo.estimate_phi_errors.self_s", "s"),
    ("montecarlo.estimate_psi_errors.self_s", "s"),
    ("montecarlo.draws", "count"),
    ("seeding.derive_seed.calls", "count"),
    ("seeding.derive_seed.busy_s", "s"),
    ("survey.generate_population.self_s", "s"),
    ("survey.collect_proxy_responses.self_s", "s"),
    ("survey.filter_most_accurate.self_s", "s"),
    ("survey.estimate_mean.self_s", "s"),
    ("survey.units", "count"),
    ("reporting.render.busy_s", "s"),
    ("reporting.write.busy_s", "s"),
    ("reporting.bytes_written", "bytes"),
    ("cli.interpreter_start_s", "s"),
    ("cli.import_pxkit_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every per-layer metric from the spans and counters; ``extra`` fills the rest.

    A layer the workload does not exercise reports 0.
    """
    s = summarize(tracer)
    calls, self_s, busy = s["calls"], s["self_s"], s["busy_s"]
    c = tracer.counters
    evals = c["quadrature.evaluations"]
    panels = evals / 15.0
    values = {
        "quadrature.integrate.calls": calls["quadrature.integrate"],
        "quadrature.evaluations": evals,
        "quadrature.panels": panels,
        "quadrature.integrate.self_s": self_s["quadrature.integrate"],
        "quadrature.us_per_panel": 1e6 * self_s["quadrature.integrate"] / panels if panels else 0.0,
        "quadrature.budget_errors": c["quadrature.budget_errors"],
        "affinity.affinity.calls": calls["affinity.affinity"],
        "affinity.affinity.self_s": self_s["affinity.affinity"],
        "affinity.expanded_bound.busy_s": busy.get("affinity.expanded_bound", 0.0),
        "affinity.expanded_bound.self_s": self_s["affinity.expanded_bound"],
        "affinity.inner_integrals": (
            calls["affinity.conditional_affinity"] / calls["affinity.expanded_bound"]
            if calls["affinity.expanded_bound"] else 0.0
        ),
        "densities.constructions": c["densities.constructions"],
        "densities.sample.busy_s": busy.get("densities.sample", 0.0),
        "densities.logpdf.busy_s": busy.get("densities.logpdf", 0.0),
        "densities.make_rng.calls": calls["densities.make_rng"],
        "models.joint_logpdf.calls": calls["models.joint_logpdf"],
        "models.joint_logpdf.self_s": self_s["models.joint_logpdf"],
        "kraft.decide.calls": calls["kraft.decide"],
        "montecarlo.estimate_phi_errors.self_s": self_s["montecarlo.estimate_phi_errors"],
        "montecarlo.estimate_psi_errors.self_s": self_s["montecarlo.estimate_psi_errors"],
        "montecarlo.draws": c["montecarlo.draws"],
        "seeding.derive_seed.calls": calls["seeding.derive_seed"],
        "seeding.derive_seed.busy_s": busy.get("seeding.derive_seed", 0.0),
        "survey.generate_population.self_s": self_s["survey.generate_population"],
        "survey.collect_proxy_responses.self_s": self_s["survey.collect_proxy_responses"],
        "survey.filter_most_accurate.self_s": self_s["survey.filter_most_accurate"],
        "survey.estimate_mean.self_s": self_s["survey.estimate_mean"],
        "survey.units": c["survey.units"],
        "reporting.render.busy_s": busy.get("reporting.render", 0.0),
        "reporting.write.busy_s": busy.get("reporting.write", 0.0),
        "reporting.bytes_written": c["reporting.bytes_written"],
        "cli.run.self_s": self_s["cli.run"],
        "trace.spans": len(tracer.spans),
    }
    values.update(extra)
    out = {}
    for name, unit in PER_LAYER:
        v = float(values.get(name, 0.0))
        out[name] = {"value": v if math.isfinite(v) else 0.0, "unit": unit}
    return out
