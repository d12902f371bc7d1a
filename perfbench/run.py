"""pxkit benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own process (perfbench/worker.py) with BLAS and
OpenMP threads capped at the number of usable CPUs.  With ``--trace 0``
the launcher first starts SETUPS - 1 processes that only set up, then the
measured one, and reports the median set-up time; the measured process
runs whole input cycles until ``--seconds`` have passed.  With
``--trace 1`` one process runs input cycle 0 untraced and then traced, and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bounds", "mc", "survey", "cli")
SETUPS = 5
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Workload-specific names of the fast and slow latency classes.
NAMED = {
    "bounds": ("affinity", "r_measure"),
    "mc": ("mc_small_call", "mc_large_call"),
    "survey": ("survey_small_rep", "survey_large_rep"),
    "cli": ("cli_cold_fast", "cli_cold_slow"),
}


def worker_env() -> dict:
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    return env


def start_worker(args, name: str, setup_only: bool, env: dict):
    """Start a workload process; return it and the seconds until it printed READY."""
    argv = [sys.executable, str(HERE / "worker.py"), name, str(args.seed), str(args.seconds),
            str(args.trace), "1" if setup_only else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - start
    proc.wait(timeout=TIMEOUT_S)
    raise RuntimeError(f"{name}: worker exited with code {proc.returncode} before READY")


def run_workload(args, name: str) -> dict:
    env = worker_env()
    setups = []
    for _ in range(0 if args.trace else SETUPS - 1):
        proc, seconds = start_worker(args, name, True, env)
        proc.communicate(timeout=TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: set-up process exited with code {proc.returncode}")
        setups.append(seconds)
    proc, seconds = start_worker(args, name, False, env)
    setups.append(seconds)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        raise RuntimeError(f"{name}: worker printed no result")
    result["setups"] = setups
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def trimmed_mean(xs, cut: float = 0.1) -> float:
    s = sorted(xs)
    k = int(len(s) * cut)
    return statistics.fmean(s[k:len(s) - k])


def tail(samples):
    """(value, percentile, n): the highest percentile of TAIL_LADDER with at
    least ten samples beyond it, by nearest rank; value None if there is none."""
    n = len(samples)
    s = sorted(samples)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return s[rank - 1], pct, n
    return None, None, n


def end_to_end(name: str, r: dict) -> tuple[dict, list[str]]:
    """The gated metrics, and report lines with the workload's own metric names.

    Gated latencies are scaled to the reference host's speed: divided by
    this run's reference-kernel time over the reference host's.  A short
    operation sees one momentary host speed, so the fast class uses the
    kernel's median; a long one averages over many, so the slow class uses
    its 10 % trimmed mean.  Report lines give the raw times.
    """
    fast, slow = r["samples"]["fast"], r["samples"]["slow"]
    if not fast or not slow:
        raise RuntimeError(f"{name}: a latency class has no successful operation")
    setup_s = statistics.median(r["setups"])
    nominal = r["reference_ms"] / 1e3
    fast_host = statistics.median(r["reference"]) / nominal
    slow_host = trimmed_mean(r["reference"]) / nominal
    gated = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MiB"),
        "fast_p50_ms": metric(1e3 * statistics.median(fast) / fast_host, "ms"),
        "slow_p50_ms": metric(1e3 * statistics.median(slow) / slow_host, "ms"),
    }
    lines = [
        f"  host slowness against the reference host: {fast_host:.3f} (median), "
        f"{slow_host:.3f} (trimmed mean) over {len(r['reference'])} reference-kernel runs",
        f"  setup_s                  {setup_s:.4f} s  (median of {len(r['setups'])} set-ups)",
        f"  peak_rss_mb              {r['peak_rss_mb']:.1f} MiB",
        f"  failed_share             {r['failed'] / r['attempted']:.4g} ratio  ({r['failed']}/{r['attempted']})",
    ]

    def latency(label, samples, scale, unit):
        value, pct, n = tail(samples)
        lines.append(f"  {label + '_p50_' + unit:<24} {scale * statistics.median(samples):.4f} {unit}  (n={n})")
        if value is None:
            lines.append(f"  {label + '_tail_' + unit:<24} n/a  (n={n}: no percentile has ten samples beyond it)")
        else:
            lines.append(f"  {label + '_tail_' + unit:<24} {scale * value:.4f} {unit}  (p{pct:g}, n={n})")

    if name == "bounds":
        lines.append(f"  error_bound_violations   {r['violations']} count")
        latency("affinity", fast, 1e3, "ms")
        latency("r_measure", slow, 1e3, "ms")
    elif name == "mc":
        rate = r["work"]["slow"] / r["time"]["slow"]
        lines.append(f"  mc_draws_per_s           {rate:.4g} draws/s  ({len(slow)} large calls)")
        lines.append(f"  mc_small_call_p50_ms     {1e3 * statistics.median(fast):.4f} ms  (n={len(fast)})")
    elif name == "survey":
        rate = r["work"]["slow"] / r["time"]["slow"]
        lines.append(f"  survey_units_per_s       {rate:.4g} units/s  ({len(slow)} large calls)")
        lines.append(f"  survey_small_rep_p50_ms  {1e3 * statistics.median(fast):.4f} ms  (n={len(fast)} calls)")
    else:
        latency("cli_cold", fast + slow, 1.0, "s")
    lines.append("  gated latencies, at reference-host speed:")
    for cls in ("fast", "slow"):
        lines.append(f"    {cls}_p50_ms = {NAMED[name][0 if cls == 'fast' else 1]} p50: "
                     f"{gated[cls + '_p50_ms']['value']:.4f} ms  (n={len(r['samples'][cls])})")
    return gated, lines


def report(args, name: str, r: dict) -> dict:
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  cycles {r['cycles']}  "
          f"correct {r['correct']}")
    print(f"  env: {r['env']}")
    print(f"  digest sha256 (cycle 0 outputs, 17 significant digits): {r['digest']}")
    if args.trace:
        print(f"  untraced digest: {r['digest_untraced']}  "
              f"{'equal' if r['digest'] == r['digest_untraced'] else 'DIFFERENT'}")
        print(f"  tracing overhead: traced {r['wall']['traced']:.3f} s / untraced "
              f"{r['wall']['untraced']:.3f} s = {r['layers']['trace.overhead_ratio']['value']:.3f}")
        print(f"  spans written to {r['spans_file']}")
        for key, m in r["layers"].items():
            print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
        return r["layers"]
    if name == "mc":
        print("  arrays: at most 10^6 float64 = 8 MB (computed), below the 300 MiB L3 of the "
              "reference host, so no bandwidth figure is claimed")
    gated, lines = end_to_end(name, r)
    for line in lines:
        print(line)
    return gated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pxkit" / "__init__.py").is_file():
        print(f"no pxkit sources under {ROOT / 'src'}; run from a pxkit checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            r = run_workload(args, name)
            metrics = report(args, name, r)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        out["correct"] = out["correct"] and r["correct"]
        out["attempted"] += r["attempted"]
        out["failed"] += r["failed"]
        if len(names) == 1:
            out["metrics"] = metrics
        else:
            out["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
