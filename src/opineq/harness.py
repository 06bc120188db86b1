"""Seeded sweep harness.

Generates random instances from counter-based (Philox) streams, drives
every scalar and operator check, and aggregates the outcomes into a
serializable summary. Each scalar check draws from one generator, and its
trial k reads that generator's counter block k, so the scalar trials come in
block draws and any trial replays after `bit_generator.advance(k)`. Each
operator trial has its own generator. The operator trials of one dimension
run in blocks of stacked arrays: one stacked SVD gives every trial's polar
frame, and each check's stacked kernel (in `operators` and `linalg`, the same
one its public function runs) serves the whole block; the reports are then
built trial by trial. A fixed seed reproduces the exact same trial stream
regardless of how trials would be scheduled or blocked; the only volatile
summary field is the wall time.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import operators, scalars
from .linalg import (
    _norms,
    _numerical_radii,
    _pd_refused,
    _polar_frames,
    _spectral_norms,
    numerical_radius,  # noqa: F401 -- no call here; the benchmark's tracer test reads it
    polar,
)
from .operators import GEOMEAN_EQUALITY_TOL, OPERATOR_SLACK_TOL, REVERSE_CS_EQUALITY_TOL
from .scalars import SCALAR_ABS_TOL, ChainReport

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

# stream tags so every (check family, dim, trial) triple has its own key; the
# scalar stream puts its check index 1, 2, 3 in the dim slot
_SCALAR_STREAM = 1
_OPERATOR_STREAM = 2

# scalar trials drawn per block call: bounds the draw's memory, changes no value
_SCALAR_CHUNK = 1024

# operator trials per stacked block: bounds the block's memory, changes no value
_OPERATOR_BLOCK = 50


def _default_tolerances() -> dict:
    """The check modules' own defaults, plus the harness-only tolerances."""
    return {
        "scalar_chain": SCALAR_ABS_TOL,
        "operator_chain": OPERATOR_SLACK_TOL,
        "radius": 1e-8,
        "equality": REVERSE_CS_EQUALITY_TOL,
        "geomean_equality": GEOMEAN_EQUALITY_TOL,
        "grid_monotonicity": 1e-12,
        "derivative_rel": 1e-6,
    }


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one harness run. Defaults match the acceptance run:
    10^4 scalar trials and 200 operator trials per dimension.

    Only the seed and the two trial counts are settable. The grids, the
    scalar scale, the ensembles and the tolerances are fixed; they stay
    attributes so that a report echoes them in its `config` block.
    """

    seed: int = 20260808
    trials: int = 10_000
    operator_trials: int = 200
    dims: tuple = field(default=(2, 3, 4, 6, 8), init=False)
    v_grid: tuple = field(default=(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0), init=False)
    t_grid: tuple = field(default=(0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95), init=False)
    scalar_scale: float = field(default=10.0, init=False)
    ensembles: tuple = field(default=MATRIX_KINDS, init=False)
    tolerances: dict = field(default_factory=_default_tolerances, init=False)

    def __post_init__(self):
        if self.trials < 1 or self.operator_trials < 1:
            raise ValueError("SweepConfig: trials and operator_trials must be >= 1")


@dataclass(frozen=True)
class SuiteSummary:
    config: SweepConfig
    checks: tuple
    wall_ms: float


def trial_rng(seed: int, stream: int, trial: int, dim: int = 0) -> np.random.Generator:
    """Independent per-trial generator keyed by (seed, stream, dim, trial)."""
    word = ((stream & 0xFF) << 56) | ((dim & 0xFF) << 48) | (trial & 0xFFFFFFFFFFFF)
    return operators._philox(seed, word)


def _disk_pairs(u: np.ndarray, scale: float) -> np.ndarray:
    """Complex pairs uniform in the disk of radius `scale`, one per row of
    uniforms u[..., :4]: radii scale*sqrt(u0, u1), phases 2*pi*(u2, u3)."""
    radii = scale * np.sqrt(u[..., :2])
    phases = 2.0 * np.pi * u[..., 2:4]
    return radii * np.exp(1j * phases)


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
        c, d = _disk_pairs(rng.random(4), scale).tolist()
        return c, d
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

# slack-histogram buckets in report order: sign, then decades 1e-18 .. 1e+03
_BUCKETS = ("negative", "zero") + tuple(f"1e{e:+03d}" for e in range(-18, 4))


def _slack_bucket(s: float) -> int:
    """Index in _BUCKETS of slack s's decade bucket: tightness at a glance."""
    if s < 0.0:
        return 0
    if s == 0.0:
        return 1
    return 2 + min(21, max(0, math.floor(math.log10(s)) + 18))


@dataclass(slots=True)
class CheckStats:
    """Outcomes of one check, accumulated one attempt at a time by `add`."""

    name: str
    n_pass: int = 0
    n_fail: int = 0
    n_undefined: int = 0
    n_skipped: int = 0
    worst_slack: float | None = None
    worst_digest: str | None = None
    _counts: list = field(default_factory=lambda: [0] * len(_BUCKETS), init=False, repr=False)

    def add(self, digest: str, report: ChainReport | None) -> None:
        """Record one attempt; None records a skipped one."""
        if report is None:
            self.n_skipped += 1
            return
        if report.angle_undefined:
            self.n_undefined += 1
            return
        if report.holds:
            self.n_pass += 1
        else:
            self.n_fail += 1
        s = report.worst_slack
        if self.worst_slack is None or s < self.worst_slack:
            self.worst_slack = s
            self.worst_digest = digest
        self._counts[_slack_bucket(s)] += 1

    @property
    def slack_histogram(self) -> tuple:
        """((bucket label, count), ...) in decade order, empty buckets left out."""
        return tuple((label, n) for label, n in zip(_BUCKETS, self._counts) if n)


# --- scalar checks -----------------------------------------------------------


def _run_scalar_trials(cfg: SweepConfig) -> tuple:
    """The three scalar checks, each on its own generator trial_rng(seed, 1, 0, j),
    j = 1, 2, 3. Trial k reads counter block k (four doubles): a disk pair for the
    triangle checks, x = -0.9999 + 1.9998*u0 for the log bound."""
    tol = cfg.tolerances["scalar_chain"]
    scale = cfg.scalar_scale
    t_grid = cfg.t_grid
    tri, rev, log = (CheckStats(name) for name in
                     ("triangle_refinement", "reverse_triangle", "log_bound"))
    rngs = [trial_rng(cfg.seed, _SCALAR_STREAM, 0, j) for j in (1, 2, 3)]
    for start in range(0, cfg.trials, _SCALAR_CHUNK):
        n = min(_SCALAR_CHUNK, cfg.trials - start)
        tri_u, rev_u, log_u = (rng.random((n, 4)) for rng in rngs)
        tri_pairs = _disk_pairs(tri_u, scale).tolist()
        rev_pairs = _disk_pairs(rev_u, scale).tolist()
        xs = (-0.9999 + 1.9998 * log_u[:, 0]).tolist()
        for k, (c, d), (c2, d2), x in zip(range(start, start + n), tri_pairs, rev_pairs, xs):
            digest = f"seed={cfg.seed};trial={k}"
            tri.add(digest, scalars.check_triangle_refinement(c, d, tol=tol))
            t = t_grid[k % len(t_grid)]
            rev.add(f"{digest};t={t:g}", scalars.check_reverse_triangle(c2, d2, t, tol=tol))
            log.add(f"{digest};x={x!r}", ChainReport(
                (("x", x),), scalars.check_log_bound(x), scalars._log_bound_margin(x)))
    return tri, rev, log


def _grid_stats(name: str, points: int, worst: float) -> CheckStats:
    """A grid property check's one attempt: it passes when its worst margin is >= 0."""
    stats = CheckStats(name)
    stats.add("grid", ChainReport((("grid_points", float(points)),), worst >= 0.0, worst))
    return stats


def _run_grid_checks(cfg: SweepConfig) -> tuple:
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
    mu_stats = _grid_stats("mu_grid_properties", n, min(margins))

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
    gamma_stats = _grid_stats("gamma_grid_properties", n, min(margins))

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
    return mu_stats, gamma_stats, _grid_stats("mu_derivative_consistency", grid.size, worst)


# --- operator checks ---------------------------------------------------------


def _rows(columns) -> list:
    """Per-trial tuples of Python floats from a kernel's per-term arrays."""
    return list(zip(*(column.tolist() for column in columns)))


def _run_operator_trials(cfg: SweepConfig) -> tuple:
    """The operator checks, dimension by dimension, in blocks of stacked trials.

    Trial k of dimension n draws A and its four vectors from its own
    generator trial_rng(seed, 2, k, n). A block shares one stacked SVD (the
    polar frames of every A) and one call of each check's stacked kernel;
    each trial's reports are then built from its own values, so the block
    size changes no value.
    """
    tol_op = cfg.tolerances["operator_chain"]
    tol_rad = cfg.tolerances["radius"]
    eq_tol = cfg.tolerances["equality"]
    geo_tol = cfg.tolerances["geomean_equality"]
    stats = mixed, chain, rev, geo, sandwich = tuple(CheckStats(name) for name in (
        "mixed_schwarz", "radius_chain", "reverse_cs", "geomean_lower", "radius_sandwich"))

    for dim in cfg.dims:
        dim = int(dim)
        for start in range(0, cfg.operator_trials, _OPERATOR_BLOCK):
            ks = range(start, min(start + _OPERATOR_BLOCK, cfg.operator_trials))
            kinds = [cfg.ensembles[k % len(cfg.ensembles)] for k in ks]
            vs = [cfg.v_grid[k % len(cfg.v_grid)] for k in ks]
            ts = [cfg.t_grid[k % len(cfg.t_grid)] for k in ks]
            draws = []
            for k, kind in zip(ks, kinds):
                rng = trial_rng(cfg.seed, _OPERATOR_STREAM, k, dim)
                draws.append([gen_instance(rng, kind, dim)] + [gen_instance(rng, vk, dim) for vk in (
                    "unit-vector", "unit-vector", "vector", "vector")])
            A, X, Y, XV, YV = (np.stack(column) for column in zip(*draws))
            v = np.array(vs)
            frame = _polar_frames(A)
            mixed_rows = _rows(operators._schwarz_terms(A, frame, v, X, Y))
            unit_rows = _rows(operators._schwarz_terms(A, frame, v, X, X))
            power_norms = operators._power_sum_norms(frame, v).tolist()
            reverse_rows = _rows(operators._reverse_cs_terms(XV, YV))
            nx, ny = _norms(X).tolist(), _norms(Y).tolist()
            geo_forms, lam_p, lam_q = operators._geomean_forms(frame, v, X)
            geo_forms = geo_forms.tolist()
            refused = (_pd_refused(lam_p) | _pd_refused(lam_q)).tolist()
            sandwich_rows = _rows((_numerical_radii(A), _spectral_norms(A),
                                   operators._kittaneh_bounds(frame, 0.5)))

            for i, (k, kind, v_k, t) in enumerate(zip(ks, kinds, vs, ts)):
                digest = f"seed={cfg.seed};dim={dim};trial={k};kind={kind};v={v_k:g};t={t:g}"
                mixed.add(digest, operators._mixed_schwarz_report(
                    *mixed_rows[i], v_k, nx[i], ny[i], tol_op))
                chain.add(digest, operators._radius_chain_report(
                    *unit_rows[i], power_norms[i], v_k, tol_op))
                rev.add(digest, operators._reverse_cs_report(*reverse_rows[i], t, tol_op, eq_tol))
                rep = None  # skipped unless A is invertible enough
                if kind in INVERTIBLE_KINDS and not refused[i]:
                    rep = operators._geomean_report(
                        geo_forms[i], *unit_rows[i], v_k, tol_op, geo_tol)
                geo.add(digest, rep)
                w, nrm, kb = sandwich_rows[i]
                terms = (("half_norm", nrm / 2.0), ("radius", w),
                         ("kittaneh", kb), ("norm", nrm))
                sandwich.add(digest, scalars._chain(terms, tol_rad * max(1.0, nrm)))
    return stats


def run_suite(config: SweepConfig, suite: str = "all") -> SuiteSummary:
    """Execute the configured sweep and aggregate per-check statistics.

    `suite` selects "scalar", "operator", or "all". The default
    configuration is expected to report zero failures; any failure is
    either a bug or a tolerance misconfiguration.
    """
    if suite not in ("scalar", "operator", "all"):
        raise ValueError(f"run_suite: suite must be scalar|operator|all, got {suite!r}")
    start = time.perf_counter()
    checks = ()
    if suite in ("scalar", "all"):
        checks += _run_scalar_trials(config) + _run_grid_checks(config)
    if suite in ("operator", "all"):
        checks += _run_operator_trials(config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SuiteSummary(config=config, checks=checks, wall_ms=wall_ms)


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
