"""Seeded sweep harness.

Generates random instances from counter-based (Philox) per-trial streams,
drives every scalar and operator check, and aggregates the outcomes into a
serializable summary. A fixed seed reproduces the exact same trial stream
regardless of how trials would be scheduled; the only volatile summary
field is the wall time.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import operators, scalars
from .linalg import numerical_radius, polar, spectral_norm
from .operators import kittaneh_bound
from .scalars import ChainReport

__all__ = [
    "SweepConfig",
    "CheckStats",
    "SuiteSummary",
    "gen_instance",
    "trial_rng",
    "run_suite",
    "summary_to_dict",
    "write_report",
    "MATRIX_KINDS",
    "INVERTIBLE_KINDS",
]

MATRIX_KINDS = ("ginibre", "hermitian", "psd", "unitary", "nilpotent-like")

# ensembles that are almost surely invertible; the geometric-mean check is
# restricted to these
INVERTIBLE_KINDS = ("ginibre", "hermitian", "psd", "unitary")

_MASK64 = (1 << 64) - 1

# stream tags so every (check family, dim, trial) triple has its own key
_SCALAR_STREAM = 1
_OPERATOR_STREAM = 2


def _default_tolerances() -> dict:
    return {
        "scalar_chain": 1e-10,
        "operator_chain": 1e-8,
        "radius": 1e-8,
        "equality": 1e-12,
        "geomean_equality": 1e-10,
        "grid_monotonicity": 1e-12,
        "derivative_rel": 1e-6,
    }


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one harness run. Defaults match the acceptance run:
    10^4 scalar trials and 200 operator trials per dimension."""

    seed: int = 20260808
    trials: int = 10_000
    operator_trials: int = 200
    dims: tuple = (2, 3, 4, 6, 8)
    v_grid: tuple = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    t_grid: tuple = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
    scalar_scale: float = 10.0
    ensembles: tuple = MATRIX_KINDS
    tolerances: dict = field(default_factory=_default_tolerances)

    def __post_init__(self):
        if self.trials < 1 or self.operator_trials < 1:
            raise ValueError("SweepConfig: trials and operator_trials must be >= 1")
        if not self.dims or any(int(d) < 1 for d in self.dims):
            raise ValueError(f"SweepConfig: dims must be positive, got {self.dims!r}")
        if not all(0.0 <= v <= 1.0 for v in self.v_grid):
            raise ValueError(f"SweepConfig: every v must lie in [0, 1], got {self.v_grid!r}")
        if not self.t_grid or not all(0.0 < t < 1.0 for t in self.t_grid):
            raise ValueError(f"SweepConfig: every t must lie in (0, 1), got {self.t_grid!r}")
        if not self.ensembles:
            raise ValueError("SweepConfig: need at least one ensemble")
        for kind in self.ensembles:
            if kind not in MATRIX_KINDS:
                raise ValueError(f"SweepConfig: unknown ensemble kind {kind!r}")
        if self.scalar_scale <= 0.0:
            raise ValueError("SweepConfig: scalar_scale must be positive")
        merged = _default_tolerances()
        unknown = sorted(set(self.tolerances) - set(merged))
        if unknown:
            raise ValueError(f"SweepConfig: unknown tolerance key(s) {unknown!r}; "
                             f"valid keys are {sorted(merged)!r}")
        merged.update(self.tolerances)
        object.__setattr__(self, "tolerances", merged)


@dataclass(frozen=True)
class CheckStats:
    name: str
    n_pass: int
    n_fail: int
    n_undefined: int
    n_skipped: int
    worst_slack: float | None
    worst_digest: str | None
    slack_histogram: tuple  # ((bucket label, count), ...)


@dataclass(frozen=True)
class SuiteSummary:
    config: SweepConfig
    checks: tuple
    wall_ms: float


def trial_rng(seed: int, stream: int, trial: int, dim: int = 0) -> np.random.Generator:
    """Independent per-trial generator keyed by (seed, stream, dim, trial)."""
    word = ((stream & 0xFF) << 56) | ((dim & 0xFF) << 48) | (trial & 0xFFFFFFFFFFFF)
    key = np.array([seed & _MASK64, word & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gen_instance(rng: np.random.Generator, kind: str, dim: int, scale: float = 10.0):
    """Draw one random instance of the requested kind.

    Matrix kinds: ginibre (i.i.d. standard complex Gaussian entries),
    hermitian ((G+G*)/2), psd (G*G), unitary (polar factor of a ginibre
    draw), nilpotent-like (strictly upper triangular ginibre). Vector kinds:
    "unit-vector" (normalized Gaussian) and "vector" (plain Gaussian).
    "scalar-pair" yields two complex scalars uniform in the disk of radius
    `scale`.
    """
    if kind == "scalar-pair":
        radii = scale * np.sqrt(rng.uniform(size=2))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
        z = radii * np.exp(1j * phases)
        return complex(z[0]), complex(z[1])
    if kind == "unit-vector":
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return z / np.linalg.norm(z)
    if kind == "vector":
        return rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if kind in MATRIX_KINDS:
        G = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
        if kind == "ginibre":
            return G
        if kind == "hermitian":
            return (G + G.conj().T) / 2.0
        if kind == "psd":
            return G.conj().T @ G
        if kind == "unitary":
            return polar(G).unitary
        return np.triu(G, 1)  # nilpotent-like
    raise ValueError(f"gen_instance: unknown kind {kind!r}")


# --- aggregation -------------------------------------------------------------


class _Stats:
    __slots__ = ("name", "n_pass", "n_fail", "n_undefined", "n_skipped",
                 "worst_slack", "worst_digest", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.n_pass = 0
        self.n_fail = 0
        self.n_undefined = 0
        self.n_skipped = 0
        self.worst_slack = None
        self.worst_digest = None
        self.buckets = {}

    def add(self, digest: str, report: ChainReport | None):
        outcome = "skipped" if report is None else report.outcome
        if outcome == "pass":
            self.n_pass += 1
        elif outcome == "fail":
            self.n_fail += 1
        elif outcome == "angle-undefined":
            self.n_undefined += 1
        else:
            self.n_skipped += 1
        if outcome in ("pass", "fail"):
            s = report.worst_slack
            if self.worst_slack is None or s < self.worst_slack:
                self.worst_slack = s
                self.worst_digest = digest
            bucket = _slack_bucket(s)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def freeze(self) -> CheckStats:
        ordered = tuple(sorted(self.buckets.items(), key=lambda kv: _bucket_order(kv[0])))
        return CheckStats(
            name=self.name,
            n_pass=self.n_pass,
            n_fail=self.n_fail,
            n_undefined=self.n_undefined,
            n_skipped=self.n_skipped,
            worst_slack=self.worst_slack,
            worst_digest=self.worst_digest,
            slack_histogram=ordered,
        )


def _slack_bucket(s: float) -> str:
    """Decade bucket for the slack histogram: tightness at a glance."""
    if s < 0.0:
        return "negative"
    if s == 0.0:
        return "zero"
    e = min(3, max(-18, int(math.floor(math.log10(s)))))
    return f"1e{e:+03d}"


def _bucket_order(label: str) -> float:
    if label == "negative":
        return -1e9
    if label == "zero":
        return -1e8
    return float(label[2:])


class _Recorder:
    def __init__(self):
        self._stats: dict[str, _Stats] = {}

    def add(self, name: str, digest: str, report: ChainReport | None):
        """Record one attempt of check `name`; None records a skipped one."""
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = _Stats(name)
        stats.add(digest, report)

    def freeze(self) -> tuple:
        return tuple(stats.freeze() for stats in self._stats.values())


# --- scalar checks -----------------------------------------------------------


def _run_scalar_trials(cfg: SweepConfig, rec: _Recorder) -> None:
    tol = cfg.tolerances["scalar_chain"]
    t_grid = cfg.t_grid
    for k in range(cfg.trials):
        digest = f"seed={cfg.seed};trial={k}"

        rng = trial_rng(cfg.seed, _SCALAR_STREAM, k, 1)
        c, d = gen_instance(rng, "scalar-pair", 0, cfg.scalar_scale)
        rec.add("triangle_refinement", digest, scalars.check_triangle_refinement(c, d, tol=tol))

        rng = trial_rng(cfg.seed, _SCALAR_STREAM, k, 2)
        c, d = gen_instance(rng, "scalar-pair", 0, cfg.scalar_scale)
        t = t_grid[k % len(t_grid)]
        rec.add("reverse_triangle", f"{digest};t={t:g}",
                scalars.check_reverse_triangle(c, d, t, tol=tol))

        rng = trial_rng(cfg.seed, _SCALAR_STREAM, k, 3)
        x = float(rng.uniform(-0.9999, 0.9999))
        lhs = 2.0 * x / (x * x + 1.0)
        rhs = math.log1p(x) - math.log1p(-x)
        margin = (rhs - lhs) if x >= 0.0 else (lhs - rhs)
        ok = scalars.check_log_bound(x)
        rec.add("log_bound", f"{digest};x={x!r}", ChainReport((("x", x),), ok, margin))


def _add_grid(rec: _Recorder, name: str, points: int, worst: float) -> None:
    """Record a grid property check: it passes when its worst margin is >= 0."""
    rec.add(name, "grid", ChainReport((("grid_points", float(points)),), worst >= 0.0, worst))


def _run_grid_checks(cfg: SweepConfig, rec: _Recorder) -> None:
    mono_tol = cfg.tolerances["grid_monotonicity"]
    deriv_tol = cfg.tolerances["derivative_rel"]

    # mu: range, monotone down then up, split at pi/2
    n = 10_000
    thetas = np.arange(1, n + 1) * (math.pi / (n + 1))
    vals = np.array([scalars.mu(t) for t in thetas])
    margins = [float(vals.min()) - 0.5, 1.0 - float(vals.max())]
    diffs = np.diff(vals)
    # the pair straddling pi/2 belongs to neither monotone interval
    left = thetas[1:] <= math.pi / 2.0
    right = thetas[:-1] >= math.pi / 2.0
    if left.any():
        margins.append(mono_tol - float(diffs[left].max()))      # non-increasing
    if right.any():
        margins.append(mono_tol + float(diffs[right].min()))     # non-decreasing
    _add_grid(rec, "mu_grid_properties", n, min(margins))

    # gamma: range is enforced by construction; check symmetry, monotonicity,
    # and the pinned endpoint values across the t grid
    n = 2_000
    thetas = np.linspace(0.0, math.pi, n + 1)
    margins = []
    left = thetas[1:] <= math.pi / 2.0
    right = thetas[:-1] >= math.pi / 2.0
    for t in cfg.t_grid:
        vals = np.array([scalars.gamma(t, th) for th in thetas])
        mirror = np.array([scalars.gamma(1.0 - t, th) for th in thetas])
        # rounding of 1-t is amplified by the 1/(2*r_t) factor
        margins.append(1e-14 - float(np.max(np.abs(vals - mirror))))
        diffs = np.diff(vals)
        margins.append(mono_tol - float(diffs[left].max()))
        margins.append(mono_tol + float(diffs[right].min()))
        margins.append(1e-15 - float(abs(vals[0] - 1.0)))
        margins.append(1e-15 - float(abs(vals[-1] - 1.0)))
    _add_grid(rec, "gamma_grid_properties", n, min(margins))

    # mu': closed form vs central finite differences, and nu <= 0
    h = 1e-6
    grid = np.concatenate([
        np.linspace(0.01, math.pi / 2.0 - 0.01, 1_000),
        np.linspace(math.pi / 2.0 + 0.01, math.pi - 0.01, 1_000),
    ])
    worst = math.inf
    for th in grid:
        an = scalars.mu_derivative(float(th))
        fd = (scalars.mu(float(th) + h) - scalars.mu(float(th) - h)) / (2.0 * h)
        rel = abs(an - fd) / max(abs(an), 1e-300)
        worst = min(worst, deriv_tol - rel)
        worst = min(worst, -scalars.nu(float(th)) + 1e-15)
    _add_grid(rec, "mu_derivative_consistency", grid.size, worst)


# --- operator checks ---------------------------------------------------------


def _run_operator_trials(cfg: SweepConfig, rec: _Recorder) -> None:
    tol_op = cfg.tolerances["operator_chain"]
    tol_rad = cfg.tolerances["radius"]
    eq_tol = cfg.tolerances["equality"]
    geo_tol = cfg.tolerances["geomean_equality"]

    for dim in cfg.dims:
        dim = int(dim)
        for k in range(cfg.operator_trials):
            kind = cfg.ensembles[k % len(cfg.ensembles)]
            v = cfg.v_grid[k % len(cfg.v_grid)]
            t = cfg.t_grid[k % len(cfg.t_grid)]
            digest = f"seed={cfg.seed};dim={dim};trial={k};kind={kind};v={v:g};t={t:g}"

            rng = trial_rng(cfg.seed, _OPERATOR_STREAM, k, dim)
            A = gen_instance(rng, kind, dim)
            x_unit = gen_instance(rng, "unit-vector", dim)
            y_unit = gen_instance(rng, "unit-vector", dim)
            x_vec = gen_instance(rng, "vector", dim)
            y_vec = gen_instance(rng, "vector", dim)

            rec.add("mixed_schwarz", digest,
                    operators.check_mixed_schwarz(A, x_unit, y_unit, v, tol=tol_op))
            rec.add("radius_chain", digest, operators.check_radius_chain(A, v, x_unit, tol=tol_op))
            rec.add("reverse_cs", digest, operators.check_reverse_cs(
                x_vec, y_vec, t, tol=tol_op, equality_tol=eq_tol))

            rep = None  # skipped unless A is invertible enough
            if kind in INVERTIBLE_KINDS:
                try:
                    rep = operators.check_geomean_lower(
                        A, v, x_unit, tol=tol_op, equality_tol=geo_tol)
                except ValueError:
                    pass
            rec.add("geomean_lower", digest, rep)

            w = numerical_radius(A)
            nrm = spectral_norm(A)
            kb = kittaneh_bound(A)
            terms = (("half_norm", nrm / 2.0), ("radius", w),
                     ("kittaneh", kb), ("norm", nrm))
            slacks = (w - nrm / 2.0, nrm - w, kb - w, nrm - kb)
            worst = min(slacks)
            rec.add("radius_sandwich", digest,
                    ChainReport(terms, worst >= -tol_rad * max(1.0, nrm), worst))


def run_suite(config: SweepConfig, suite: str = "all") -> SuiteSummary:
    """Execute the configured sweep and aggregate per-check statistics.

    `suite` selects "scalar", "operator", or "all". The default
    configuration is expected to report zero failures; any failure is
    either a bug or a tolerance misconfiguration.
    """
    if suite not in ("scalar", "operator", "all"):
        raise ValueError(f"run_suite: suite must be scalar|operator|all, got {suite!r}")
    start = time.perf_counter()
    rec = _Recorder()
    if suite in ("scalar", "all"):
        _run_scalar_trials(config, rec)
        _run_grid_checks(config, rec)
    if suite in ("operator", "all"):
        _run_operator_trials(config, rec)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SuiteSummary(config=config, checks=rec.freeze(), wall_ms=wall_ms)


# --- serialization -----------------------------------------------------------


def summary_to_dict(summary: SuiteSummary, include_wall: bool = True) -> dict:
    """Plain-dict form of a summary, matching the report JSON schema."""
    out = {
        "config": asdict(summary.config),
        "checks": [
            {
                "name": c.name,
                "pass": c.n_pass,
                "fail": c.n_fail,
                "undefined": c.n_undefined,
                "skipped": c.n_skipped,
                "worst_slack": c.worst_slack,
                "worst_digest": c.worst_digest,
                "slack_histogram": [list(b) for b in c.slack_histogram],
            }
            for c in summary.checks
        ],
    }
    if include_wall:
        out["wall_ms"] = summary.wall_ms
    return out


def write_report(summary: SuiteSummary, path, format: str = "json") -> None:
    """Serialize a summary to `path` as json (full) or csv (one row per check)."""
    if format not in ("json", "csv"):
        raise ValueError(f"write_report: format must be json or csv, got {format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if format == "json":
                json.dump(summary_to_dict(summary), fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                writer = csv.writer(fh)
                writer.writerow(["name", "pass", "fail", "undefined", "skipped", "worst_slack"])
                for c in summary.checks:
                    worst = "" if c.worst_slack is None else repr(c.worst_slack)
                    writer.writerow([c.name, c.n_pass, c.n_fail, c.n_undefined, c.n_skipped, worst])
    except OSError as err:
        raise OSError(f"cannot write report to {path}: {err}") from err
