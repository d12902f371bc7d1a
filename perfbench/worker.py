"""One workload process: set up, signal readiness, run, print one RESULT line.

Started by run.py as ``python3 perfbench/worker.py <workload> <seed>
<seconds> <trace> <setup_only>``.  It imports pxkit from the checkout's
``src/``, builds cycle 0 of the inputs, warms up and prints ``READY``
just before its first timed operation; run.py times set-up up to that line.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_op(op, call, record) -> bool:
    """Time ``call``, check its output and add the outcome to ``record``."""
    record["attempted"] += 1
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed request is counted, not fatal
        record["failed"] += 1
        print(f"  failed {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    elapsed = time.perf_counter() - start
    try:
        chk = op.check(out)
    except Exception as exc:
        chk = None
        print(f"  check of {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    if chk is None or not chk.ok:
        record["failed"] += 1
        print(f"  wrong output from {op.kind}", file=sys.stderr)
        return False
    record["samples"][op.cls].append(elapsed / op.per)
    record["time"][op.cls] += elapsed
    record["work"][op.cls] += op.work
    record["violations"] += chk.violations
    record["err_ratio_max"] = max(record["err_ratio_max"], chk.err_ratio)
    for key, errors in chk.pooled.items():
        record["pooled"].setdefault(key, []).append(errors)
    record["numbers"].append(chk.numbers)
    return True


def new_record() -> dict:
    return {
        "attempted": 0, "failed": 0, "violations": 0, "err_ratio_max": 0.0,
        "samples": {"fast": [], "slow": []}, "time": {"fast": 0.0, "slow": 0.0},
        "work": {"fast": 0, "slow": 0}, "pooled": {}, "numbers": [],
    }


def finish_pooled(W, record) -> bool:
    """Apply the pooled zero-mean checks; a failure fails every call it pooled."""
    ok = True
    for key, passed in W.pooled_ok(record["pooled"]).items():
        if not passed:
            ok = False
            record["failed"] += len(record["pooled"][key])
            print(f"  pooled mean error of {key} is not 0 within {W.SURVEY_SES} SE", file=sys.stderr)
    return ok


def time_reference(wl, record) -> float:
    start = time.perf_counter()
    wl.reference()
    end = time.perf_counter()
    record["reference"].append(end - start)
    return end


def timed(W, wl, seed, seconds, ops, ctx) -> dict:
    record = new_record()
    record["reference"] = []
    deadline = time.perf_counter() + seconds
    last_reference = time_reference(wl, record)
    cycle = 0
    digest_rows = None
    while True:
        for op in ops:
            run_op(op, op.call, record)
            if time.perf_counter() - last_reference >= wl.reference_every_s:
                last_reference = time_reference(wl, record)
        if cycle == 0:
            digest_rows = list(record["numbers"])
        cycle += 1
        # Whole cycles only, so every run times the same mix of requests.
        if time.perf_counter() >= deadline:
            break
        ops = wl.cycle(seed, cycle, ctx)
    record["cycles"] = cycle
    record["reference_ms"] = wl.reference_ms
    record["correct"] = finish_pooled(W, record) and record["failed"] == 0
    record["digest"] = W.digest(digest_rows)
    return record


def _subprocess_seconds(argv, env) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_costs(env) -> dict:
    """Interpreter start and ``import pxkit`` / scipy cost from ``-X importtime``.

    Medians of three fresh interpreters each.
    """
    start = [_subprocess_seconds([sys.executable, "-c", "pass"], env) for _ in range(3)]
    pxkit_s, scipy_s = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pxkit"],
            env=env, check=True, capture_output=True, text=True,
        )
        top = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                name, depth = m.group(3), len(m.group(2))
                root = name.split(".")[0]
                # Keep the outermost entry of each top-level package.
                if root not in top or depth <= top[root][1]:
                    top[root] = (int(m.group(1)), depth)
        pxkit_s.append(top.get("pxkit", (0, 0))[0] / 1e6)
        scipy_s.append(top.get("scipy", (0, 0))[0] / 1e6)
    return {
        "cli.interpreter_start_s": statistics.median(start),
        "cli.import_pxkit_s": statistics.median(pxkit_s),
        "cli.import_scipy_s": statistics.median(scipy_s),
    }


def traced(W, T, wl, seed, ops, out_dir) -> dict:
    """Cycle 0 untraced, then the same operations traced; per-layer metrics.

    A first untimed pass pays one-time costs (lazy imports, first calls),
    so that the untraced and traced passes compare like with like.
    """
    for op in ops:
        (op.inproc or op.call)()
    untraced = new_record()
    start = time.perf_counter()
    for op in ops:
        run_op(op, op.inproc or op.call, untraced)
    wall_untraced = time.perf_counter() - start

    tracer = T.Tracer()
    record = new_record()
    T.install(tracer)
    try:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.request = i
            run_op(op, op.inproc or op.call, record)
        wall_traced = time.perf_counter() - start
    finally:
        tracer.restore()

    extra = import_costs(os.environ.copy())
    extra["affinity.err_ratio_max"] = record["err_ratio_max"]
    extra["trace.overhead_ratio"] = wall_traced / wall_untraced
    for metric, (request, counter) in wl.canonical.items():
        extra[metric] = tracer.request_counters[request][counter]
    record["layers"] = T.layer_metrics(tracer, extra)
    record["digest"] = W.digest(record["numbers"])
    record["digest_untraced"] = W.digest(untraced["numbers"])
    record["wall"] = {"untraced": wall_untraced, "traced": wall_traced}
    record["correct"] = (
        finish_pooled(W, record)
        and record["failed"] == 0
        and untraced["failed"] == 0
        and record["digest"] == record["digest_untraced"]
    )
    record["attempted"] += untraced["attempted"]
    record["failed"] += untraced["failed"]
    record["cycles"] = 1
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{wl.name}-{seed}.csv"
    tracer.write_csv(spans)
    record["spans_file"] = str(spans.relative_to(ROOT))
    return record


def main(argv) -> int:
    name, seed, seconds, trace, setup_only = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4] == "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import pxkit

    if Path(pxkit.__file__).resolve().parent != (SRC / "pxkit").resolve():
        print(f"pxkit was imported from {pxkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing as T
    import workloads as W

    wl = W.WORKLOADS[name]
    ctx = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    ctx.mkdir(parents=True, exist_ok=True)
    os.environ["PXKIT_OUT_DIR"] = str(ctx)
    try:
        ops = wl.cycle(seed, 0, ctx)
        wl.warm_up(ctx)
        print("READY", flush=True)
        if setup_only:
            return 0
        if trace:
            record = traced(W, T, wl, seed, ops, ROOT / ".perfbench_out")
        else:
            record = timed(W, wl, seed, seconds, ops, ctx)
    finally:
        shutil.rmtree(ctx, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while not empty
            ctx.parent.rmdir()

    record.pop("pooled")
    record.pop("numbers")
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    record["env"] = (
        f"python {sys.version.split()[0]} numpy {numpy.__version__} scipy {scipy_version} "
        f"{W.cpu_record()} threads OMP={os.environ.get('OMP_NUM_THREADS')} "
        f"OPENBLAS={os.environ.get('OPENBLAS_NUM_THREADS')} MKL={os.environ.get('MKL_NUM_THREADS')}"
    )
    print("RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
