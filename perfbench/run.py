"""opineq benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports opineq from its `src/`.
With --trace 0 it sets up the workload several times, runs it untraced for
S seconds and prints the end-to-end metrics. With --trace 1 it runs the same
untraced loop, then one set-up and a fixed number of calls with every layer
function wrapped, and prints the per-layer metrics. Every line before the
last is for people; the last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 1 when an output
is wrong and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One process, one caller: BLAS gets one thread, set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_ROUNDS = 5
TAIL_MIN_BEYOND = 10
TAIL_MAX_PERCENTILE = 99.0
MAX_ERRORS_SHOWN = 20

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Zero on a correct program, so it is printed but carried in the result line
# as failed/attempted rather than as a metric with a relative bound.
FAIL_RATIO_UNIT = "ratio"

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import opineq\n"
    "print(time.perf_counter() - t)\n"
)


def load_program():
    """Pin BLAS threads and import opineq from this checkout's src/."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "opineq" / "__init__.py").is_file():
        raise ImportError(f"no opineq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import opineq

    if not Path(opineq.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"opineq was imported from {opineq.__file__}, not from {SRC}")
    return opineq


def fresh_import_seconds() -> float:
    """Time `import opineq` in a new interpreter, as a user's process pays it."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(samples_ms: list) -> tuple[float, float, int]:
    """Latency at the highest percentile, at most p99, with >= 10 samples
    beyond it, as (value, percentile, samples beyond). When no percentile
    from the median up has 10 samples beyond it, this is the maximum."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    rank = min(n - TAIL_MIN_BEYOND, math.ceil(TAIL_MAX_PERCENTILE / 100.0 * n))
    if rank < math.ceil(n / 2):
        rank = n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def measure(wl, seconds: float) -> dict:
    """Closed loop: call until `seconds` of wall time and min_calls have passed."""
    latencies_ns = []
    ops = attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < wl.min_calls() or time.perf_counter() - start < seconds:
        t0 = time.perf_counter_ns()
        result = wl.call(i)
        latencies_ns.append(time.perf_counter_ns() - t0)
        n_ops, n_att, n_fail = wl.record(i, result)
        ops += n_ops
        attempted += n_att
        failed += n_fail
        i += 1
    busy_s = sum(latencies_ns) / 1e9
    return {"calls": i, "ops": ops, "attempted": attempted, "failed": failed,
            "latencies_ms": [t / 1e6 for t in latencies_ns],
            "throughput": ops / busy_s}


def traced_run(wl, seed: int, untraced_throughput: float) -> tuple[dict, dict, dict]:
    """One set-up and wl.traced_calls calls with every layer function wrapped.

    Returns the per-layer metrics, their units and notes; the spans go to
    .bench_out/.
    """
    import tracer
    from workloads import OUT_DIR

    with tracer.Tracer() as tr:
        with tr.root(tracer.SETUP_ROOT):
            wl.setup(seed)
        ops = 0
        busy_ns = 0
        for i in range(wl.traced_calls):
            t0 = time.perf_counter_ns()
            with tr.root(tracer.CALL_ROOT):
                result = wl.call(i)
            busy_ns += time.perf_counter_ns() - t0
            ops += wl.record(i, result)[0]
    ratio = ops / (busy_ns / 1e9) / untraced_throughput
    OUT_DIR.mkdir(exist_ok=True)
    tr.write(OUT_DIR / f"spans-{wl.name}-{seed}.json.gz", environment(seed))
    notes = {"linalg.lapack.svd_calls": tracer.HIDDEN_SVD_NOTE,
             "trace.throughput_ratio": "traced / untraced throughput_ops_s"}
    return (tracer.per_layer_metrics(tr, wl.operator_trials(wl.traced_calls), ratio),
            tracer.per_layer_metric_units(), notes)


def run(wl, seed: int, seconds: float, trace: bool, setup_rounds: int = SETUP_ROUNDS) -> dict:
    """Run one workload; returns metrics, notes and the gate verdict."""
    setup_s = []
    for _ in range(1 if trace else setup_rounds):
        imported = 0.0 if trace else fresh_import_seconds()
        t0 = time.perf_counter()
        wl.setup(seed)
        setup_s.append(imported + time.perf_counter() - t0)
    wl.oracle()
    loop = measure(wl, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = loop["latencies_ms"]
    tail_ms, tail_p, beyond = tail(lat)
    notes = {
        "throughput_ops_s": f"op = {wl.op}; {loop['ops']} ops in {loop['calls']} calls",
        "call_ms_p50": f"call = {wl.call_unit}; n={len(lat)}",
        "call_ms_tail": f"p{tail_p:.4g} of n={len(lat)} calls, {beyond} beyond",
        "setup_s": f"median of {len(setup_s)} rounds: fresh-interpreter import + config, "
                   f"inputs, warm-up",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    metrics = {
        "throughput_ops_s": loop["throughput"],
        "call_ms_p50": statistics.median(lat),
        "call_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_mb,
    }
    units = dict(END_TO_END_UNITS)
    if trace:
        metrics, units, notes = traced_run(wl, seed, loop["throughput"])
    return {"metrics": metrics, "units": units, "notes": notes,
            "attempted": loop["attempted"], "failed": loop["failed"],
            "errors": list(wl.errors)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as err:
        print(f"error: cannot load the program: {err}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    out = run(wl, args.seed, args.seconds, bool(args.trace))
    return report(wl, args.seed, bool(args.trace), out)


def report(wl, seed: int, trace: bool, out: dict) -> int:
    """Print every metric with its unit, then the result line; return the exit code."""
    print(f"workload {wl.name} seed={seed} trace={int(trace)}")
    for name, value in out["metrics"].items():
        note = out["notes"].get(name, "")
        print(f"  {name:44s} {value:.6g} {out['units'][name]}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_ratio':44s} {out['failed'] / out['attempted']:.6g} {FAIL_RATIO_UNIT}"
          f"  ({out['failed']} failed of {out['attempted']} attempted outcomes)")
    for err in out["errors"][:MAX_ERRORS_SHOWN]:
        print(f"GATE FAILED: {err}")
    if len(out["errors"]) > MAX_ERRORS_SHOWN:
        print(f"GATE FAILED: ... {len(out['errors']) - MAX_ERRORS_SHOWN} more")
    correct = not out["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": out["units"][name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
