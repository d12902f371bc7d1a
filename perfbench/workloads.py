"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come in cycles.  Cycle ``c`` of
seed ``s`` is drawn from ``numpy.random.default_rng([s, index, c])`` and
has a fixed composition (the same request kinds in the same numbers), so
medians stay comparable between seeds while the parameters vary.  pxkit
receives only the generated inputs.

Each operation belongs to one of two latency classes, ``fast`` and
``slow`` (see the table in README.md).

Operations call pxkit through module attributes looked up at call time
(``A.affinity`` rather than a name bound at import), so the wrappers a
traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import pxkit  # noqa: F401  (loads every submodule)

A = importlib.import_module("pxkit.affinity")
D = importlib.import_module("pxkit.densities")
M = importlib.import_module("pxkit.models")
MC = importlib.import_module("pxkit.montecarlo")
S = importlib.import_module("pxkit.survey")
Q = importlib.import_module("pxkit.quadrature")
CLI = importlib.import_module("pxkit.cli")

ACCEPT_TOL = 1e-7  # closed-form tolerance of the acceptance suite
MC_SIGMAS = 5.0  # Monte Carlo margin, in binomial standard deviations
SURVEY_SES = 5.0  # survey margin, in standard errors of the pooled mean
TIGHT = Q.QuadratureConfig(1e-12, 1e-12)


@dataclass
class Checked:
    """Outcome of one output check.

    ``numbers`` enter the results digest.  ``violations`` counts reported
    error estimates that fail to bound the true error, and strict verdicts
    where the exact reduction is 0.  ``pooled`` holds per-replication
    errors whose mean must be 0 within ``SURVEY_SES`` standard errors once
    all calls of a run are pooled.
    """

    ok: bool
    numbers: tuple
    violations: int = 0
    err_ratio: float = 0.0
    pooled: dict = field(default_factory=dict)


@dataclass
class Op:
    cls: str  # "fast" or "slow"
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Checked]
    work: int = 0  # draws (mc) or population units (survey) done by the call
    per: int = 1  # the latency sample is call time / per
    inproc: Callable[[], Any] | None = None  # in-process form for traced runs
    inputs: tuple = ()  # the generated parameters, for reports and tests


def cycle_rng(seed: int, index: int, c: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), index, c])


def log_uniform(rng, lo, hi) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Closed-form Bhattacharyya coefficients.

def normal_bc(delta: float, sd: float) -> float:
    return math.exp(-delta * delta / (8.0 * sd * sd))


def exponential_bc(l0: float, l1: float) -> float:
    return 2.0 * math.sqrt(l0 * l1) / (l0 + l1)


def gamma_bc(k: float, s0: float, s1: float) -> float:
    return (2.0 * math.sqrt(s0 * s1) / (s0 + s1)) ** k


# Exact error probabilities (alpha, beta) of the square-root test.

def normal_errors(delta: float, sd: float) -> tuple[float, float]:
    p = phi(-abs(delta) / (2.0 * sd))
    return p, p


def exponential_errors(l0: float, l1: float) -> tuple[float, float]:
    c = math.log(l1 / l0) / (l1 - l0)  # the test rejects on one side of c
    if l1 > l0:
        return -math.expm1(-l0 * c), math.exp(-l1 * c)
    return math.exp(-l0 * c), -math.expm1(-l1 * c)


def _ratio(err: float, est: float) -> float:
    return err / max(est, 1e-300)


def _close(x, y) -> bool:
    return abs(x - y) <= ACCEPT_TOL


def _mc_close(p_hat: float, p: float, n: int) -> bool:
    """Is an estimated probability within MC_SIGMAS binomial sds of the exact one?"""
    return abs(p_hat - p) <= MC_SIGMAS * math.sqrt(p * (1 - p) / n) + 1.0 / n


# bounds

def _affinity_op(call, exact: float, kind: str, inputs: tuple) -> Op:
    def check(res):
        err = abs(res.raw_value - exact)
        return Checked(
            ok=err <= ACCEPT_TOL,
            numbers=(res.raw_value, res.abs_error_estimate, res.evaluations),
            violations=int(err > res.abs_error_estimate),
            err_ratio=_ratio(err, res.abs_error_estimate),
        )

    return Op("fast", kind, call, check, inputs=inputs)


def _activation_op(em_factory, hyp, cfg, m_exact: float, e_exact: float, kind: str, inputs) -> Op:
    r_is_zero = kind.startswith("variance")

    def check(comp):
        em = abs(comp.marginal_bound - m_exact)
        ee = abs(comp.expanded_bound - e_exact)
        violations = (
            int(em > comp.marginal_error)
            + int(ee > comp.expanded_error)
            + int(comp.strict and r_is_zero)
        )
        return Checked(
            ok=em <= ACCEPT_TOL and ee <= ACCEPT_TOL,
            numbers=(
                comp.marginal_bound, comp.expanded_bound, comp.r_measure,
                comp.strict, comp.marginal_error, comp.expanded_error,
            ),
            violations=violations,
            err_ratio=max(_ratio(em, comp.marginal_error), _ratio(ee, comp.expanded_error)),
        )

    return Op(
        "slow", kind, lambda: A.activation_measure(em_factory(), hyp, cfg), check, inputs=inputs
    )


def bounds_affinity_request(rng, kind: str, cfg) -> Op:
    label = kind + ("@1e-12" if cfg is not None else "")
    if kind == "normal":
        sd = rng.uniform(0.5, 3.0)
        theta0 = rng.uniform(-2.0, 2.0)
        delta = sd * rng.uniform(0.2, 4.0)
        hyp = M.SimpleHypotheses(theta0, theta0 + delta)
        return _affinity_op(
            lambda: A.marginal_bound(M.make_normal_location(sd), hyp, cfg), normal_bc(delta, sd), label,
            (sd, theta0, delta),
        )
    if kind == "exponential":
        l0 = log_uniform(rng, 0.2, 5.0)
        ratio = log_uniform(rng, 1.1, 10.0)
        l1 = l0 * ratio if rng.random() < 0.5 else l0 / ratio
        hyp = M.SimpleHypotheses(l0, l1)
        return _affinity_op(
            lambda: A.marginal_bound(M.make_exponential_rate(), hyp, cfg), exponential_bc(l0, l1), label,
            (l0, l1),
        )
    shape = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 5.0]))
    s0 = log_uniform(rng, 0.5, 2.0)
    s1 = s0 * log_uniform(rng, 1.1, 4.0)
    return _affinity_op(
        lambda: A.affinity(D.gamma_density(shape, s0), D.gamma_density(shape, s1), cfg),
        gamma_bc(shape, s0, s1),
        label,
        (shape, s0, s1),
    )


def bounds_activation_request(rng, kind: str, cfg, canonical: bool = False) -> Op:
    label = kind + ("@1e-12" if cfg is not None else "")
    theta0 = 0.0 if canonical else rng.uniform(-1.0, 1.0)
    if kind == "two-stage":
        if canonical:
            n1, n2, sigma, delta = 1, 1, 1.0, 1.0
        else:
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            sigma = rng.uniform(0.5, 1.5)
            delta = sigma * rng.uniform(0.5, 2.5)
        return _activation_op(
            lambda: M.make_two_stage_normal(n1, n2, sigma),
            M.SimpleHypotheses(theta0, theta0 + delta),
            cfg,
            normal_bc(delta, sigma / math.sqrt(n1)),
            normal_bc(delta, sigma / math.sqrt(n1 + n2)),
            label,
            (n1, n2, sigma, theta0, delta),
        )
    n = int(kind.split("-")[1])
    # Below a separation of 1, variance n=2 at 1e-12 exhausts the default
    # evaluation budget; the timed mix keeps to separations where every
    # request completes.
    delta = 1.0 if canonical else rng.uniform(1.0, 2.5)
    exact = normal_bc(delta, 1.0 / math.sqrt(n))
    return _activation_op(
        lambda: M.make_normal_variance_expansion(n),
        M.SimpleHypotheses(theta0, theta0 + delta),
        cfg,
        exact,
        exact,
        label,
        (n, theta0, delta),
    )


BOUNDS_AFFINITY_PER_CYCLE = 80
BOUNDS_TIGHT_EVERY = 10  # one 1-D request in ten uses QuadratureConfig(1e-12, 1e-12)


def bounds_cycle(seed: int, c: int, ctx=None) -> list[Op]:
    """80 one-dimensional requests and 8 activation_measure requests.

    The activation slots are four two-stage models, variance n=8, variance
    n=3 or 4, variance n=2 and one two-stage or variance n=3, 4 or 8
    request at tolerance 1e-12.  Cycle 0 starts with the canonical
    requests: affinity of N(0,1) and N(1,1), two-stage (1,1,1) and
    variance n=2 at separation 1.
    """
    rng = cycle_rng(seed, 0, c)
    fast = [
        bounds_affinity_request(
            rng,
            ("normal", "exponential", "gamma")[i % 3],
            TIGHT if i % BOUNDS_TIGHT_EVERY == BOUNDS_TIGHT_EVERY - 1 else None,
        )
        for i in range(BOUNDS_AFFINITY_PER_CYCLE)
    ]
    kinds = ["two-stage"] * 4 + ["variance-8", f"variance-{int(rng.choice([3, 4]))}", "variance-2"]
    slow = [bounds_activation_request(rng, k, None) for k in kinds]
    # Variance n=2 at 1e-12 alone would take as long as the rest of the
    # cycle; its default-tolerance request is in every cycle.
    tight_kind = str(rng.choice(["two-stage", "variance-3", "variance-4", "variance-8"]))
    slow.append(bounds_activation_request(rng, tight_kind, TIGHT))
    ops = fast + slow
    ops = [ops[i] for i in rng.permutation(len(ops))]
    if c == 0:
        canonical = [
            _affinity_op(
                lambda: A.affinity(D.normal_density(0.0, 1.0), D.normal_density(1.0, 1.0)),
                normal_bc(1.0, 1.0),
                "normal",
                (1.0, 0.0, 1.0),
            ),
            bounds_activation_request(rng, "two-stage", None, canonical=True),
            bounds_activation_request(rng, "variance-2", None, canonical=True),
        ]
        ops = canonical + ops
    return ops


def bounds_warm_up(ctx=None) -> None:
    A.affinity(D.normal_density(0.0, 1.0), D.normal_density(1.0, 1.0))
    A.marginal_bound(M.make_exponential_rate(), M.SimpleHypotheses(1.0, 2.0))
    A.affinity(D.gamma_density(2.0, 1.0), D.gamma_density(2.0, 2.0))


# mc

MC_LARGE = 1_000_000
MC_SMALL = 10_000
MC_SMALL_ROUNDS = 20
# Ordered by cost, phi < psi two-stage < psi variance, so the median call of
# a round is the two-stage one and sits mid-block rather than at an edge.
MC_KINDS = ("phi-normal", "phi-exponential", "psi-two-stage", "psi-variance", "psi-variance")


def mc_request(rng, kind: str, replicates: int) -> Op:
    seed = int(rng.integers(2**62))
    if kind == "phi-normal":
        sd = rng.uniform(0.5, 2.0)
        theta0 = rng.uniform(-1.0, 1.0)
        delta = sd * rng.uniform(0.3, 2.5) * (1 if rng.random() < 0.5 else -1)
        model, estimate = (lambda: M.make_normal_location(sd)), "estimate_phi_errors"
        alpha, beta = normal_errors(delta, sd)
        bound = normal_bc(delta, sd)
        hyp = M.SimpleHypotheses(theta0, theta0 + delta)
    elif kind == "phi-exponential":
        l0 = log_uniform(rng, 0.5, 2.0)
        ratio = log_uniform(rng, 1.2, 4.0)
        l1 = l0 * ratio if rng.random() < 0.5 else l0 / ratio
        model, estimate = (lambda: M.make_exponential_rate()), "estimate_phi_errors"
        alpha, beta = exponential_errors(l0, l1)
        bound = exponential_bc(l0, l1)
        hyp = M.SimpleHypotheses(l0, l1)
    elif kind == "psi-two-stage":
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sigma = rng.uniform(0.5, 2.0)
        theta0 = rng.uniform(-1.0, 1.0)
        delta = sigma * rng.uniform(0.3, 1.5)
        model = lambda: M.make_two_stage_normal(n1, n2, sigma)  # noqa: E731
        estimate = "estimate_psi_errors"
        alpha, beta = normal_errors(delta, sigma / math.sqrt(n1 + n2))
        bound = normal_bc(delta, sigma / math.sqrt(n1 + n2))
        hyp = M.SimpleHypotheses(theta0, theta0 + delta)
    else:
        n = int(rng.choice([2, 3, 4, 8]))
        theta0 = rng.uniform(-1.0, 1.0)
        delta = rng.uniform(0.3, 2.0)
        model = lambda: M.make_normal_variance_expansion(n)  # noqa: E731
        estimate = "estimate_psi_errors"
        alpha, beta = normal_errors(delta, 1.0 / math.sqrt(n))
        bound = normal_bc(delta, 1.0 / math.sqrt(n))
        hyp = M.SimpleHypotheses(theta0, theta0 + delta)

    def call():
        est = getattr(MC, estimate)(model(), hyp, replicates, seed)
        return est, MC.check_bound(est, bound)

    def check(out):
        est, chk = out
        return Checked(
            ok=chk.satisfied
            and _mc_close(est.alpha_hat, alpha, replicates)
            and _mc_close(est.beta_hat, beta, replicates),
            numbers=(est.alpha_hat, est.beta_hat, est.half_width_alpha, est.half_width_beta, chk.slack),
        )

    cls = "slow" if replicates == MC_LARGE else "fast"
    return Op(cls, kind, call, check, work=2 * replicates, inputs=(replicates, seed, hyp, bound))


def mc_cycle(seed: int, c: int, ctx=None) -> list[Op]:
    """Five large calls (10^6 replicates) and 100 small ones (10^4)."""
    rng = cycle_rng(seed, 1, c)
    ops = [mc_request(rng, k, MC_LARGE) for k in MC_KINDS]
    for _ in range(MC_SMALL_ROUNDS):
        ops += [mc_request(rng, k, MC_SMALL) for k in MC_KINDS]
    return [ops[i] for i in rng.permutation(len(ops))]


def mc_warm_up(ctx=None) -> None:
    rng = np.random.default_rng(0)
    for k in MC_KINDS:
        mc_request(rng, k, MC_SMALL).call()


# survey

SURVEY_SMALL_SPEC = S.PopulationSpec(
    strata=(S.Stratum("A", 100, 0.0, 1.0), S.Stratum("B", 100, 10.0, 1.0)),
    attribute_prob=(0.9, 0.1),
    seed=7,
)
SURVEY_SMALL_REPS = 200
SURVEY_SMALL_CALLS = 3
SURVEY_LARGE_N = 20_000
SURVEY_LARGE_REPS = 10
SURVEY_LARGE_CALLS = 3


def _survey_op(cls, kind, spec, acc, quantile, reps, seed) -> Op:
    def check(cmp):
        numbers = tuple(cmp.mean_error[s] for s in S.SCHEMES) + tuple(cmp.rmse[s] for s in S.SCHEMES)
        return Checked(
            ok=all(math.isfinite(x) for x in numbers),
            numbers=numbers,
            pooled={(kind, s): cmp.errors[s] for s in ("srs_oracle", "augmented")},
        )

    return Op(
        cls, kind,
        lambda: S.compare_schemes(spec, acc, quantile, reps, seed),
        check,
        work=spec.total_size * reps,
        per=reps,
        inputs=(spec, acc, quantile, reps, seed),
    )


def survey_large_spec(rng) -> "S.PopulationSpec":
    # Fixed attribute probabilities and a near-even split keep the number of
    # respondents, which sets the cost of a replication, within 5 %.
    n_a = int(rng.integers(9_000, 11_001))
    return S.PopulationSpec(
        strata=(
            S.Stratum("A", n_a, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)),
            S.Stratum("B", SURVEY_LARGE_N - n_a, rng.uniform(3.0, 8.0), rng.uniform(0.5, 2.0)),
        ),
        attribute_prob=(0.7, 0.3),
        seed=int(rng.integers(2**31)),
    )


def survey_cycle(seed: int, c: int, ctx=None) -> list[Op]:
    """Three small-layout calls (README config) and three large-layout calls."""
    rng = cycle_rng(seed, 2, c)
    exact = S.AccuracyModel(1.0, 0.0)
    noisy = S.AccuracyModel(0.7, 1.0)
    ops = [
        _survey_op("fast", "small", SURVEY_SMALL_SPEC, exact, 1.0, SURVEY_SMALL_REPS, int(rng.integers(2**62)))
        for _ in range(SURVEY_SMALL_CALLS)
    ]
    ops += [
        _survey_op("slow", "large", survey_large_spec(rng), noisy, 0.5, SURVEY_LARGE_REPS, int(rng.integers(2**62)))
        for _ in range(SURVEY_LARGE_CALLS)
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def survey_warm_up(ctx=None) -> None:
    S.compare_schemes(SURVEY_SMALL_SPEC, S.AccuracyModel(1.0, 0.0), 1.0, 10, 0)


# cli

# Subcommands whose computation is negligible next to start-up; r-measure,
# mc-sweep and survey also compute for 10-200 ms.
CLI_FAST = ("affinity", "bound", "test")


def _cli_subprocess(argv):
    return lambda: subprocess.run(
        [sys.executable, "-m", "pxkit.cli", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        check=False,
    ).returncode


def _cli_inprocess(argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return CLI.main(list(argv))

    return call


def _numbers_of(text: str, fmt: str) -> list:
    if fmt == "json":
        data = json.loads(text)
        rows = data if isinstance(data, list) else [data]
        return [v for row in rows for v in row.values() if isinstance(v, (int, float))]
    out = []
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            if cell in ("true", "false"):
                out.append(cell == "true")
            else:
                with contextlib.suppress(ValueError):
                    out.append(float(cell))
    return out


def _cli_op(ctx: Path, command: str, argv: list, fmt: str, verify) -> Op:
    results = ctx / (command.replace("-", "_") + "." + fmt)
    argv = [command, *argv, "--format", fmt]

    def check(returncode):
        if returncode != 0:
            return Checked(ok=False, numbers=())
        text = results.read_text(encoding="utf-8")
        manifest = json.loads(Path(str(results) + ".manifest.json").read_text(encoding="utf-8"))
        digest_ok = manifest["results_sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
        data = json.loads(text) if fmt == "json" else None
        return Checked(ok=digest_ok and verify(data), numbers=tuple(_numbers_of(text, fmt)))

    cls = "fast" if command in CLI_FAST else "slow"
    return Op(cls, command, _cli_subprocess(argv), check, inproc=_cli_inprocess(argv), inputs=tuple(argv))


def cli_cycle(seed: int, c: int, ctx: Path) -> list[Op]:
    """Each of the six subcommands once, in a fixed order, with small inputs."""
    rng = cycle_rng(seed, 3, c)
    l0 = log_uniform(rng, 0.5, 2.0)
    l1 = l0 * log_uniform(rng, 1.2, 4.0)
    sd = rng.uniform(0.5, 2.0)
    mu = rng.uniform(-1.0, 1.0)
    delta = sd * rng.uniform(0.5, 2.0)
    n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    mc_seed = int(rng.integers(2**31))
    reps = 10_000
    thetas = [round(mu + sd * f, 6) for f in (0.5, 1.0, 1.5)]
    ini = ctx / f"survey-{c}.ini"
    ini.write_text(
        "[survey]\nquantile = 1.0\np_accurate = 1.0\nnoise_sd = 0.0\nreplications = 50\n\n"
        "[population]\nseed = 7\nstrata =\n    A, 100, 0.0, 1.0, 0.9\n    B, 100, 10.0, 1.0, 0.1\n",
        encoding="utf-8",
    )
    # "--flag=value", so that a negative value is not taken for a flag.
    hyp = [f"--theta0={mu!r}", f"--theta1={mu + delta!r}"]
    a_exact = exponential_bc(l0, l1)
    alpha, _ = normal_errors(delta, sd)
    return [
        _cli_op(ctx, "affinity", ["--model", "exponential", "--theta0", repr(l0), "--theta1", repr(l1)], "json",
                lambda d: _close(d["raw_value"], a_exact)),
        _cli_op(ctx, "bound", ["--model", "normal", "--sigma", repr(sd), *hyp], "json",
                lambda d: _close(d["bound"], normal_bc(delta, sd))),
        _cli_op(ctx, "r-measure", ["--model", "two-stage-normal", "--n1", str(n1), "--n2", str(n2),
                                   "--sigma", repr(sd), *hyp], "json",
                lambda d: _close(d["marginal_bound"], normal_bc(delta, sd / math.sqrt(n1)))
                and _close(d["expanded_bound"], normal_bc(delta, sd / math.sqrt(n1 + n2)))),
        _cli_op(ctx, "test", ["--model", "normal", "--sigma", repr(sd), *hyp, "--replicates", str(reps),
                              "--seed", str(mc_seed)], "json",
                lambda d: _mc_close(d["alpha_hat"], alpha, reps) and _mc_close(d["beta_hat"], alpha, reps)
                and d["satisfied"]),
        _cli_op(ctx, "mc-sweep", ["--model", "normal", "--sigma", repr(sd), f"--theta0={mu!r}",
                                  "--theta1-list=" + ",".join(repr(t) for t in thetas),
                                  "--replicates", str(reps), "--seed", str(mc_seed)], "csv",
                lambda d: True),
        _cli_op(ctx, "survey", ["--config", str(ini), "--seed", str(mc_seed)], "csv", lambda d: True),
    ]


def cli_warm_up(ctx: Path) -> None:
    """Nothing to warm: every timed invocation starts a fresh interpreter."""


# Reference kernels: fixed work that uses no pxkit code but resembles each
# workload's own work.  The host is shared, and its speed for this kind of
# code drifts by up to 2x within minutes; the kernel times of a run measure
# that drift, and run.py scales the gated latencies by them.

_XK = np.linspace(-1.0, 1.0, 15)


def ref_small_arrays() -> None:
    """Quadrature-like: many 15-point numpy evaluations in a Python loop."""
    total = 0.0
    for i in range(40):
        x = -8.0 + 0.4 * i + 0.2 * (_XK + 1.0)
        fx = np.exp(-0.5 * x * x)
        total += float(fx @ fx) + float(np.abs(fx - total).sum())


def ref_large_arrays() -> None:
    """Monte Carlo-like: seeded normal draws and a log-ratio test, 4 x 2^13 values.

    Blocks stay below the allocator's mmap threshold, so page faults do not
    dominate the time.
    """
    rng = np.random.Generator(np.random.Philox(12345))
    for _ in range(4):
        x = rng.normal(0.0, 1.0, 1 << 13)
        float(np.mean(0.5 * (x * x - (x - 1.0) ** 2) > 0.0))


@dataclass(frozen=True)
class _Row:
    id: int
    group: str
    value: float
    flag: bool


def ref_objects() -> None:
    """Survey-like: per-unit frozen objects, a dict by id, lookups, small arrays."""
    rows = [_Row(i, "AB"[i % 2], i * 0.5, i % 3 == 0) for i in range(2000)]
    by_id = {r.id: r for r in rows}
    float(np.mean([by_id[i].value for i in range(0, 2000, 2) if by_id[i].flag]))
    ref_small_arrays()


def ref_interpreter() -> None:
    """CLI-like: a fresh interpreter that imports numpy."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[int, int, Any], list]
    warm_up: Callable[[Any], None]
    reference: Callable[[], None]  # reference kernel run between operations
    reference_ms: float  # its median time on the reference host
    reference_every_s: float  # minimum spacing of reference runs
    # Per-layer metric -> (request index in cycle 0, tracer counter): counts
    # of the canonical requests, which must repeat exactly.
    canonical: dict = field(default_factory=dict)


WORKLOADS = {
    "bounds": Workload(
        name="bounds",
        cycle=bounds_cycle,
        warm_up=bounds_warm_up,
        reference=ref_small_arrays,
        reference_ms=0.25,
        reference_every_s=0.0,
        canonical={
            "quadrature.evals.affinity_n01_n11": (0, "quadrature.evaluations"),
            "quadrature.evals.two_stage_111": (1, "affinity.expanded_bound.evaluations"),
            "quadrature.evals.variance_n2": (2, "affinity.expanded_bound.evaluations"),
        },
    ),
    "mc": Workload(
        name="mc",
        cycle=mc_cycle,
        warm_up=mc_warm_up,
        reference=ref_large_arrays,
        reference_ms=0.75,
        reference_every_s=0.0,
    ),
    "survey": Workload(
        name="survey",
        cycle=survey_cycle,
        warm_up=survey_warm_up,
        reference=ref_objects,
        reference_ms=2.25,
        reference_every_s=0.1,
    ),
    "cli": Workload(
        name="cli",
        cycle=cli_cycle,
        warm_up=cli_warm_up,
        reference=ref_interpreter,
        reference_ms=120.0,
        reference_every_s=0.5,
    ),
}


def digest(rows) -> str:
    """sha256 of numeric outputs rendered at 17 significant digits."""
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(format(float(x), ".17g") for x in row) + "\n").encode("ascii"))
    return h.hexdigest()


def pooled_ok(pooled: dict) -> dict:
    """Per (layout, scheme): is the pooled mean error 0 within SURVEY_SES standard errors?"""
    out = {}
    for key, chunks in pooled.items():
        e = np.concatenate(chunks)
        se = float(np.std(e, ddof=1) / math.sqrt(len(e)))
        out[key] = abs(float(np.mean(e))) <= SURVEY_SES * se
    return out


def cpu_record() -> str:
    """CPU model and cache sizes as the kernel reports them."""
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()[0]
            size = (idx / "size").read_text().strip()
            caches.append(f"L{level}{kind if kind in 'DI' else ''}={size}")
    return f'cpu "{model}" nproc={len(os.sched_getaffinity(0))} caches {" ".join(caches) or "unknown"}'
