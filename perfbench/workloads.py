"""The four benchmark workloads.

Each workload is a closed loop with one caller. `setup` generates the
workload's inputs from the seed and warms up; `call` is the timed unit a
user waits for; `record` checks one call's outputs outside the timed region
and returns (ops, attempted outcomes, failed outcomes). Gate failures are
collected in `errors`. Outputs of repeated calls on the same inputs must be
identical, which also checks that tracing changes no result.

Program functions are always looked up through their module, so a tracer
that patches module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from opineq import cli, harness, linalg, operators

OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"

# The harness's stream tag for operator trials: operator_chains draws the
# same trials as `opineq check` does at dims it shares with it.
OPERATOR_STREAM = 2
# radius_large has a stream of its own.
RADIUS_STREAM = 3

SCALAR_CHECKS = ("triangle_refinement", "reverse_triangle", "log_bound")
GRID_CHECKS = ("mu_grid_properties", "gamma_grid_properties", "mu_derivative_consistency")
SWEEP_OPERATOR_CHECKS = ("mixed_schwarz", "radius_chain", "reverse_cs",
                         "geomean_lower", "radius_sandwich")

CERT_POINTS = 1024
CERT_CHUNK = 64
CERT_REL_TOL = 1e-12
UNITARY_RADIUS_TOL = 1e-12


def radius_certificate(A, points: int = CERT_POINTS) -> tuple[float, float]:
    """Bracket [lo, hi] of the numerical radius w(A), numpy only.

    f(phi) = lambda_max((e^{i phi} A + e^{-i phi} A*) / 2) is the support
    function of the convex numerical range, so over an even N-point scan
    lo = max_j f(phi_j) <= w(A) <= lo / cos(pi / N).
    """
    A = np.asarray(A, dtype=complex)
    Ah = A.conj().T
    lo = -math.inf
    phis = 2.0 * math.pi * np.arange(points) / points
    for start in range(0, points, CERT_CHUNK):
        phase = np.exp(1j * phis[start:start + CERT_CHUNK])[:, None, None]
        herm = (phase * A + np.conj(phase) * Ah) / 2.0
        lo = max(lo, float(np.linalg.eigvalsh(herm)[:, -1].max()))
    return lo, lo / math.cos(math.pi / points)


def within_certificate(w: float, lo: float, hi: float) -> bool:
    """Whether a claimed radius w lies in the bracket, up to rounding."""
    slack = CERT_REL_TOL * max(1.0, abs(hi))
    return lo - slack <= w <= hi + slack


def expected_attempts(config: harness.SweepConfig, suite: str) -> dict:
    """Number of attempts the harness makes for each check it reports."""
    expected = {}
    if suite in ("scalar", "all"):
        expected.update({name: config.trials for name in SCALAR_CHECKS})
        expected.update({name: 1 for name in GRID_CHECKS})
    if suite in ("operator", "all"):
        trials = config.operator_trials * len(config.dims)
        expected.update({name: trials for name in SWEEP_OPERATOR_CHECKS})
    return expected


class Workload:
    name = ""
    op = ""      # what one op of throughput_ops_s is
    call_unit = ""  # what one latency sample is
    traced_calls = 1  # calls in the traced run

    def __init__(self):
        self.errors = []
        self._first = {}

    def min_calls(self) -> int:
        return 1

    def operator_trials(self, calls: int) -> int:
        """Operator trials run by `calls` calls."""
        return 0

    def oracle(self) -> None:
        """Out-of-band reference work, after set-up and outside all timing."""

    def _same_as_first(self, key, value) -> None:
        first = self._first.setdefault(key, value)
        if first != value:
            self.errors.append(f"{self.name}: output for {key!r} differs between calls on the same input")


class _Sweep(Workload):
    suite = "all"

    def min_calls(self) -> int:
        return 2  # the determinism gate compares two passes

    def _record_summary(self, summary: dict) -> tuple[int, int, int]:
        summary = dict(summary)
        summary.pop("wall_ms", None)
        self._same_as_first("summary", json.dumps(summary, sort_keys=True))
        expected = expected_attempts(self.config, self.suite)
        seen = {c["name"] for c in summary["checks"]}
        if seen != set(expected):
            self.errors.append(f"{self.name}: checks reported {sorted(seen)}, expected {sorted(expected)}")
        attempted = failed = 0
        for c in summary["checks"]:
            total = c["pass"] + c["fail"] + c["undefined"] + c["skipped"]
            if total != expected.get(c["name"]):
                self.errors.append(f"{self.name}: {c['name']} outcomes {total} != attempts "
                                   f"{expected.get(c['name'])}")
            attempted += total
            failed += c["fail"]
        return attempted, attempted, failed


class DefaultSweep(_Sweep):
    """`opineq check --suite all` in-process at the default SweepConfig."""

    name = "default_sweep"
    op = "one recorded check outcome (TrialReport)"
    call_unit = "one in-process `opineq check --suite all` pass"

    def __init__(self, trials: int | None = None, operator_trials: int | None = None):
        super().__init__()
        self._sizes = {k: v for k, v in (("trials", trials), ("operator_trials", operator_trials))
                       if v is not None}

    def setup(self, seed: int) -> None:
        self.config = harness.SweepConfig(seed=seed, **self._sizes)
        OUT_DIR.mkdir(exist_ok=True)
        self.json_path = OUT_DIR / f"{self.name}-{seed}.json"
        self.csv_path = OUT_DIR / f"{self.name}-{seed}.csv"
        files = ["--out", str(self.json_path), "--csv", str(self.csv_path)]
        sizes = ["--trials", str(self.config.trials),
                 "--operator-trials", str(self.config.operator_trials)]
        self.argv = ["check", "--suite", "all", "--seed", str(seed), *sizes, *files]
        self._main(["check", "--suite", "all", "--seed", str(seed),
                    "--trials", "10", "--operator-trials", "1", *files])

    @staticmethod
    def _main(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def call(self, i: int):
        return self._main(self.argv)

    def record(self, i: int, code) -> tuple[int, int, int]:
        summary = json.loads(self.json_path.read_text(encoding="utf-8"))
        ops, attempted, failed = self._record_summary(summary)
        with open(self.csv_path, newline="", encoding="utf-8") as fh:
            rows = [row[:5] for row in csv.reader(fh)][1:]
        counts = [[c["name"], *(str(c[k]) for k in ("pass", "fail", "undefined", "skipped"))]
                  for c in summary["checks"]]
        if rows != counts:
            self.errors.append(f"{self.name}: CSV report disagrees with the JSON report")
        if code != (1 if failed else 0):
            self.errors.append(f"{self.name}: exit code {code} with {failed} failed outcomes")
        return ops, attempted, failed

    def operator_trials(self, calls: int) -> int:
        return calls * self.config.operator_trials * len(self.config.dims)


class ScalarSweep(_Sweep):
    """run_suite(SweepConfig(seed, trials), suite="scalar"): no linalg at all."""

    name = "scalar_sweep"
    suite = "scalar"
    op = "one recorded check outcome (TrialReport)"
    call_unit = "one run_suite(suite='scalar') pass"

    def __init__(self, trials: int = 2000):
        super().__init__()
        self.trials = trials

    def setup(self, seed: int) -> None:
        self.config = harness.SweepConfig(seed=seed, trials=self.trials)
        harness.run_suite(harness.SweepConfig(seed=seed, trials=10), suite="scalar")

    def call(self, i: int):
        return harness.run_suite(self.config, suite="scalar")

    def record(self, i: int, summary) -> tuple[int, int, int]:
        return self._record_summary(harness.summary_to_dict(summary, include_wall=False))


@dataclass(frozen=True)
class _OperatorTrial:
    kind: str
    v: float
    t: float
    A: np.ndarray
    x_unit: np.ndarray
    y_unit: np.ndarray
    x_vec: np.ndarray
    y_vec: np.ndarray


class OperatorChains(Workload):
    """The four chain checks and kittaneh_bound on harness-drawn trials."""

    name = "operator_chains"
    op = "one operator trial (four chain checks and kittaneh_bound)"
    call_unit = "one operator trial"

    # Three dim-4 trials per dim-16 one keeps the median inside one cluster.
    def __init__(self, per_dim=((4, 105), (16, 35))):
        super().__init__()
        self.per_dim = per_dim
        self.traced_calls = 5 * sum(count for _, count in per_dim)

    def setup(self, seed: int) -> None:
        config = harness.SweepConfig(seed=seed)
        tol = config.tolerances
        self.tol, self.eq_tol, self.geo_tol = (
            tol["operator_chain"], tol["equality"], tol["geomean_equality"])
        trials = []
        for dim, count in self.per_dim:
            for k in range(count):
                rng = harness.trial_rng(seed, OPERATOR_STREAM, k, dim)
                kind = config.ensembles[k % len(config.ensembles)]
                A = harness.gen_instance(rng, kind, dim)
                vectors = [harness.gen_instance(rng, vk, dim)
                           for vk in ("unit-vector", "unit-vector", "vector", "vector")]
                trials.append(_OperatorTrial(kind, config.v_grid[k % len(config.v_grid)],
                                             config.t_grid[k % len(config.t_grid)], A, *vectors))
        self.trials = trials
        for i in range(min(len(trials), 2 * len(config.ensembles))):
            self.call(i)

    def min_calls(self) -> int:
        return 2 * len(self.trials)

    def operator_trials(self, calls: int) -> int:
        return calls

    def call(self, i: int):
        tr = self.trials[i % len(self.trials)]
        mixed = operators.check_mixed_schwarz(tr.A, tr.x_unit, tr.y_unit, tr.v, tol=self.tol)
        chain = operators.check_radius_chain(tr.A, tr.v, tr.x_unit, tol=self.tol)
        rev = operators.check_reverse_cs(tr.x_vec, tr.y_vec, tr.t, tol=self.tol,
                                         equality_tol=self.eq_tol)
        geo = None
        if tr.kind in harness.INVERTIBLE_KINDS:
            try:
                geo = operators.check_geomean_lower(tr.A, tr.v, tr.x_unit, tol=self.tol,
                                                    equality_tol=self.geo_tol)
            except ValueError:
                pass  # not invertible enough: skipped, as in the harness
        return mixed, chain, rev, geo, operators.kittaneh_bound(tr.A)

    def record(self, i: int, result) -> tuple[int, int, int]:
        self._same_as_first(i % len(self.trials), result)
        outcomes = [rep.outcome for rep in result[:3]]
        outcomes.append("skipped" if result[3] is None else result[3].outcome)
        return 1, len(outcomes), outcomes.count("fail")


class RadiusLarge(Workload):
    """numerical_radius plus spectral_norm on single large matrices."""

    name = "radius_large"
    op = "one numerical_radius call (with spectral_norm on the same matrix)"
    call_unit = "one numerical_radius + spectral_norm call"

    # Two dim-24 matrices per dim-48 one keeps the median inside one cluster.
    def __init__(self, per_dim=((24, 10), (48, 5))):
        super().__init__()
        self.per_dim = per_dim
        self.traced_calls = sum(count for _, count in per_dim)

    def setup(self, seed: int) -> None:
        kinds = harness.MATRIX_KINDS
        self.matrices = []
        for dim, count in self.per_dim:
            for k in range(count):
                rng = harness.trial_rng(seed, RADIUS_STREAM, k, dim)
                kind = kinds[k % len(kinds)]
                self.matrices.append((kind, harness.gen_instance(rng, kind, dim)))
        start = 0
        for _, count in self.per_dim:
            self.call(start)
            start += count

    def oracle(self) -> None:
        self.certificates = [radius_certificate(A) for _, A in self.matrices]

    def min_calls(self) -> int:
        return 2 * len(self.matrices)

    def operator_trials(self, calls: int) -> int:
        return calls

    def call(self, i: int):
        _, A = self.matrices[i % len(self.matrices)]
        return linalg.numerical_radius(A), linalg.spectral_norm(A)

    def record(self, i: int, result) -> tuple[int, int, int]:
        idx = i % len(self.matrices)
        self._same_as_first(idx, result)
        kind, A = self.matrices[idx]
        w = result[0]
        lo, hi = self.certificates[idx]
        ok = within_certificate(w, lo, hi)
        if not ok:
            self.errors.append(f"{self.name}: matrix {idx} (n={A.shape[0]}, {kind}) radius {w!r} "
                               f"outside certificate [{lo!r}, {hi!r}]")
        if kind == "unitary" and abs(w - 1.0) > UNITARY_RADIUS_TOL:
            ok = False
            self.errors.append(f"{self.name}: unitary matrix {idx} radius {w!r} != 1")
        return 1, 1, 0 if ok else 1


WORKLOADS = {cls.name: cls for cls in (DefaultSweep, ScalarSweep, OperatorChains, RadiusLarge)}
