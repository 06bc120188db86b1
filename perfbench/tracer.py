"""Layer tracing from outside the program.

`Tracer` replaces each listed public function of opineq with a wrapper that
records a span (name, start, end, parent, root) and replaces the numpy LAPACK
entry points with call counters. Callers bind names at import time
(`from .linalg import numerical_radius` in the harness, `from .scalars import
mu` in operators), so every module attribute that holds the original function
is patched, and all of them are restored on exit.

Spans are recorded only below a root span opened by the benchmark
(`Tracer.root`), so the benchmark's own bookkeeping calls into opineq pass
straight through. Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time

import numpy as np

import opineq
from opineq import cli, harness, linalg, operators, quadrature, scalars

# Every module whose attributes a caller may look a function up through.
PROGRAM_MODULES = (opineq, scalars, quadrature, linalg, operators, harness, cli)

BOTH = ("calls", "self_ms")
SELF = ("self_ms",)

# (layer, module, public function, metrics reported for it)
LAYER_FUNCTIONS = (
    ("scalars", scalars, "segment_mean_abs", BOTH),
    ("scalars", scalars, "mu", BOTH),
    ("scalars", scalars, "gamma", BOTH),
    ("scalars", scalars, "check_triangle_refinement", SELF),
    ("scalars", scalars, "check_reverse_triangle", SELF),
    ("scalars", scalars, "check_log_bound", SELF),
    ("harness", harness, "trial_rng", BOTH),
    ("harness", harness, "gen_instance", BOTH),
    ("harness", harness, "run_suite", SELF),
    ("harness", harness, "write_report", SELF),
    ("harness", harness, "summary_to_dict", SELF),
    ("linalg", linalg, "numerical_radius", BOTH),
    ("linalg", linalg, "svd", BOTH),
    ("linalg", linalg, "spectral_norm", BOTH),
    ("linalg", linalg, "geometric_mean", BOTH),
    ("linalg", linalg, "polar", BOTH),
    ("operators", operators, "check_mixed_schwarz", BOTH),
    ("operators", operators, "check_radius_chain", BOTH),
    ("operators", operators, "check_reverse_cs", BOTH),
    ("operators", operators, "check_geomean_lower", BOTH),
    ("operators", operators, "kittaneh_bound", BOTH),
    ("cli", cli, "main", SELF),
)

# spectral_norm runs its SVD inside np.linalg.norm(A, 2), which does not go
# through the numpy.linalg.svd attribute; linalg.spectral_norm.calls counts it.
LAPACK_COUNTERS = (
    ("linalg.lapack.eigvalsh_calls", np.linalg, "eigvalsh"),
    ("linalg.lapack.eigh_calls", np.linalg, "eigh"),
    ("linalg.lapack.svd_calls", np.linalg, "svd"),
)
HIDDEN_SVD_NOTE = (
    "linalg.lapack.svd_calls counts numpy.linalg.svd only; the SVD that "
    "spectral_norm runs inside np.linalg.norm(A, 2) is counted by linalg.spectral_norm.calls"
)

OPERATOR_CHECKS = ("check_mixed_schwarz", "check_radius_chain",
                   "check_reverse_cs", "check_geomean_lower")

CALL_ROOT = "bench.call"
SETUP_ROOT = "bench.setup"


def per_layer_metric_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer, _, fn, kinds in LAYER_FUNCTIONS:
        for kind in kinds:
            units[f"{layer}.{fn}.{kind}"] = "count" if kind == "calls" else "ms"
        if fn == "numerical_radius":
            units["linalg.numerical_radius.eigvalsh_per_call"] = "calls/call"
    for name, _, _ in LAPACK_COUNTERS:
        units[name] = "count"
    units["operators.decomp_per_trial"] = "calls/trial"
    units["operators.verdict_ratio"] = "ratio"
    units["trace.throughput_ratio"] = "ratio"
    return units


class Tracer:
    """Context manager that wraps the layer functions and counts LAPACK calls."""

    def __init__(self):
        self._patched = []  # (module, attribute, original)
        self._stack = []
        # one entry per span
        self.name, self.parent, self.root_id = [], [], []
        self.start_ns, self.end_ns, self.outcome = [], [], []
        # (counter, owning span name, root span name) -> calls
        self.counts = {}

    def __enter__(self):
        try:
            for layer, module, fn, _ in LAYER_FUNCTIONS:
                original = getattr(module, fn)
                wrapper = self._span_wrapper(f"{layer}.{fn}", original)
                for mod in PROGRAM_MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
            for counter, module, attr in LAPACK_COUNTERS:
                self._patch(module, attr, self._count_wrapper(counter, getattr(module, attr)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _open(self, name: str) -> int:
        sid = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(name)
        self.parent.append(parent)
        self.root_id.append(self.root_id[parent] if parent >= 0 else sid)
        self.outcome.append(None)
        self.end_ns.append(0)
        self._stack.append(sid)
        self.start_ns.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int, outcome) -> None:
        self.end_ns[sid] = time.perf_counter_ns()
        self.outcome[sid] = outcome
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span; wrapped calls are recorded only inside one."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid, None)

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            sid = self._open(name)
            outcome = "raised"
            try:
                result = fn(*args, **kwargs)
                outcome = getattr(result, "outcome", None)
                return result
            finally:
                self._close(sid, outcome)

        return traced

    def _count_wrapper(self, counter: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                key = (counter, self.name[self._stack[-1]], self.name[self._stack[0]])
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def self_ns(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        child = [0] * len(self.name)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end_ns[sid] - self.start_ns[sid]
        return [e - s - c for s, e, c in zip(self.start_ns, self.end_ns, child)]

    def write(self, path, env: dict) -> None:
        """Write every span, columnar, as gzipped JSON."""
        payload = {
            "env": env,
            "span": {"name": self.name, "parent": self.parent, "root": self.root_id,
                     "start_ns": self.start_ns, "end_ns": self.end_ns,
                     "outcome": self.outcome},
            "counts": [[*key, n] for key, n in sorted(self.counts.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def per_layer_metrics(tracer: Tracer, operator_trials: int, throughput_ratio: float) -> dict:
    """Per-layer metrics from one traced run.

    `calls` and `self_ms` sum over every span (set-up and calls); the three
    ratios count only spans below a call root. `operator_trials` is the
    number of operator trials those calls ran.
    """
    calls, self_ns = {}, {}
    for name, own in zip(tracer.name, tracer.self_ns()):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
    in_call = [tracer.name[r] == CALL_ROOT for r in tracer.root_id]

    def call_count(name):
        return sum(1 for n, c in zip(tracer.name, in_call) if c and n == name)

    out = {}
    for name in per_layer_metric_units():
        prefix, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(prefix, 0)
        elif kind == "self_ms":
            out[name] = self_ns.get(prefix, 0) / 1e6
    for counter, _, _ in LAPACK_COUNTERS:
        out[counter] = sum(n for (c, _, _), n in tracer.counts.items() if c == counter)

    radius_calls = call_count("linalg.numerical_radius")
    radius_eig = tracer.counts.get(
        ("linalg.lapack.eigvalsh_calls", "linalg.numerical_radius", CALL_ROOT), 0)
    out["linalg.numerical_radius.eigvalsh_per_call"] = radius_eig / radius_calls if radius_calls else 0.0
    decomps = call_count("linalg.svd") + call_count("linalg.spectral_norm")
    out["operators.decomp_per_trial"] = decomps / operator_trials if operator_trials else 0.0
    checks = {f"operators.{fn}" for fn in OPERATOR_CHECKS}
    outcomes = [o for n, o, c in zip(tracer.name, tracer.outcome, in_call) if c and n in checks]
    verdicts = sum(1 for o in outcomes if o in ("pass", "fail"))
    out["operators.verdict_ratio"] = verdicts / len(outcomes) if outcomes else 0.0
    out["trace.throughput_ratio"] = throughput_ratio
    return {name: out[name] for name in per_layer_metric_units()}
