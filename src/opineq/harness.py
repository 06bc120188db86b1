"""Seeded sweep harness.

Generates random instances from counter-based (Philox) streams, drives
every scalar and operator check, and aggregates the outcomes into a
serializable summary. Each scalar check draws from one generator, and its
trial k reads that generator's counter block k, so the scalar trials come in
block draws and any trial replays after `bit_generator.advance(k)`. Each
chunk of scalar trials runs through its check's numpy kernel in `scalars`
(the one its public function runs, or follows step for step) and enters
its `CheckStats` at once by `add_verdicts`; the mu, gamma and mu' grid
checks evaluate each grid as one array. The operator trials of one
dimension draw from one generator too: trial k reads a fixed run of its
counter blocks (`_operator_draws`), so a block of trials is one draw, one
Box-Muller transform and one stacked transform per matrix kind, and any
trial replays alone. The operator trials run in blocks of stacked arrays,
up to 200 trials, so each dimension of the default sweep is one block:
one stacked SVD gives every trial's polar frame, and each check's stacked
kernels and judge (in `operators` and `linalg`, the ones its public
function runs) serve the whole block, so every chain is judged as arrays,
with no per-trial report, and every verdict enters its `CheckStats` a
block at a time by `add_verdicts`. The default sweep's operator phase makes
15 SVD, 22 `eigh` and 81 `eigvalsh` calls. A fixed seed reproduces the
exact same trial stream regardless of how trials would be scheduled or
blocked; the only volatile summary field is the wall time.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import operators, scalars
from .linalg import (
    PolarFrame,
    _ct,
    _norms,
    _numerical_radii,
    _polar_frames,
    numerical_radius,  # noqa: F401 -- no call here; the benchmark's tracer test reads it
)
from .operators import GEOMEAN_EQUALITY_TOL, OPERATOR_SLACK_TOL, REVERSE_CS_EQUALITY_TOL
from .scalars import SCALAR_REL_TOL

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

# stream tags: each sweep generator is trial_rng(seed, stream, 0, slot), with
# the scalar check's index 1, 2, 3 or the operator dimension in the dim slot,
# and its trials read it by counter blocks
_SCALAR_STREAM = 1
_OPERATOR_STREAM = 2

# scalar trials drawn per block call: bounds the draw's memory, changes no value
_SCALAR_CHUNK = 1024

# operator trials per stacked block: a whole dimension of the default sweep;
# bounds the block's memory for more trials, changes no value
_OPERATOR_BLOCK = 200


def _default_tolerances() -> dict:
    """The check modules' own defaults, plus the harness-only tolerances. Each
    chain tolerance is relative to its chain's own scale."""
    return {
        "scalar_chain": SCALAR_REL_TOL,
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
    """Independent generator keyed by (seed, stream, dim, trial). The sweep
    reads each of its streams as counter blocks of one such generator. Each
    field is an integer (a float raises TypeError: truncating it would alias
    another key) and must fit its bits of the key word (stream, dim 8; trial 48)."""
    stream, dim, trial = map(operator.index, (stream, dim, trial))
    for name, value, bits in (("stream", stream, 8), ("dim", dim, 8), ("trial", trial, 48)):
        if not 0 <= value < 1 << bits:
            raise ValueError(f"trial_rng: {name} must lie in [0, 2^{bits}), got {value!r}")
    return operators._philox(seed, (stream << 56) | (dim << 48) | trial)


def _disk_pairs(u: np.ndarray, scale: float) -> np.ndarray:
    """Complex pairs uniform in the disk of radius `scale`, one per row of
    uniforms u[..., :4]: radii scale*sqrt(u0, u1), phases 2*pi*(u2, u3)."""
    radii = scale * np.sqrt(u[..., :2])
    phases = 2.0 * np.pi * u[..., 2:4]
    return radii * np.exp(1j * phases)


def _ensemble(kind: str, G: np.ndarray) -> np.ndarray:
    """Each Ginibre draw of the stack G (m, n, n) made into the matrix kind
    `kind`, as `gen_instance` documents. Stacked @ and SVD give each matrix
    the bits of its 2-D call, so a stack of one is `gen_instance`'s draw."""
    if kind == "ginibre":
        return G
    if kind == "hermitian":
        return (G + _ct(G)) / 2.0
    if kind == "psd":
        return _ct(G) @ G
    if kind == "unitary":
        return _polar_frames(G).unitary
    return np.triu(G, 1)  # nilpotent-like


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
        return _ensemble(kind, G[None])[0]
    raise ValueError(f"gen_instance: unknown kind {kind!r}")


# --- aggregation -------------------------------------------------------------

# slack-histogram buckets in report order: sign, then decades 1e-18 .. 1e+03
_BUCKETS = ("negative", "zero") + tuple(f"1e{e:+03d}" for e in range(-18, 4))

# lower edge of each bucket after "negative": zero (-0.0 included), the least
# positive double, then the decades 1e-17 .. 1e+03 at the doubles nearest the
# powers of ten; a positive slack below 1e-17 counts in 1e-18, one above
# 1e+03 in 1e+03
_BUCKET_EDGES = np.array([0.0, math.ulp(0.0)] + [float(f"1e{e}") for e in range(-17, 4)])


@dataclass(slots=True)
class CheckStats:
    """Outcomes of one check. Every verdict enters by `add_verdicts`, a block of
    arrays at a time; `add_reports` (a block of reports) calls it."""

    name: str
    n_pass: int = 0
    n_fail: int = 0
    n_undefined: int = 0
    n_skipped: int = 0
    worst_slack: float | None = None
    worst_digest: str | None = None
    _counts: list = field(default_factory=lambda: [0] * len(_BUCKETS), init=False, repr=False)

    def add_reports(self, reports: list, digest) -> None:
        """Record a block of attempts in order: None counts as skipped and an
        angle-undefined report as undefined; the verdicts of the rest enter
        `add_verdicts`, with digest(i) the digest of attempt i of the block."""
        judged = [i for i, r in enumerate(reports) if r is not None and not r.angle_undefined]
        skipped = sum(r is None for r in reports)
        self.n_skipped += skipped
        self.n_undefined += len(reports) - skipped - len(judged)
        self.add_verdicts(np.array([reports[i].holds for i in judged]),
                          np.array([reports[i].worst_slack for i in judged]),
                          lambda j: digest(judged[j]))

    def add_verdicts(self, holds: np.ndarray, slacks: np.ndarray, digest) -> None:
        """Record a block of verdicts in attempt order: holds[i] and
        slacks[i] are attempt i's verdict and worst slack, and digest(i) its
        digest, built only for the block's first worst slack."""
        if not slacks.size:
            return
        passed = int(np.count_nonzero(holds))
        self.n_pass += passed
        self.n_fail += holds.size - passed
        i = int(np.argmin(slacks))
        s = float(slacks[i])
        if self.worst_slack is None or s < self.worst_slack:
            self.worst_slack = s
            self.worst_digest = digest(i)
        # each slack's bucket, the index in _BUCKETS: tightness at a glance
        buckets = np.searchsorted(_BUCKET_EDGES, slacks, side="right")
        counts = np.bincount(buckets, minlength=len(_BUCKETS)).tolist()
        self._counts = [a + b for a, b in zip(self._counts, counts)]

    @property
    def slack_histogram(self) -> tuple:
        """((bucket label, count), ...) in decade order, empty buckets left out."""
        return tuple((label, n) for label, n in zip(_BUCKETS, self._counts) if n)


# --- scalar checks -----------------------------------------------------------


def _run_scalar_trials(cfg: SweepConfig) -> tuple:
    """The three scalar checks, each on its own generator trial_rng(seed, 1, 0, j),
    j = 1, 2, 3. Trial k reads counter block k (four doubles): a disk pair for the
    triangle checks, x = -0.9999 + 1.9998*u0 for the log bound. Each chunk of
    trials runs through the checks' kernels at once."""
    tol = cfg.tolerances["scalar_chain"]
    scale = cfg.scalar_scale
    t_grid = cfg.t_grid
    tri, rev, log = (CheckStats(name) for name in
                     ("triangle_refinement", "reverse_triangle", "log_bound"))
    rngs = [trial_rng(cfg.seed, _SCALAR_STREAM, 0, j) for j in (1, 2, 3)]
    for start in range(0, cfg.trials, _SCALAR_CHUNK):
        n = min(_SCALAR_CHUNK, cfg.trials - start)
        tri_u, rev_u, log_u = (rng.random((n, 4)) for rng in rngs)
        ts = np.take(t_grid, np.arange(start, start + n), mode="wrap")
        xs = -0.9999 + 1.9998 * log_u[:, 0]

        def digest(i, start=start):
            return f"seed={cfg.seed};trial={start + i}"

        _, holds, slacks = scalars._triangle_chains(*_disk_pairs(tri_u, scale).T, tol)
        tri.add_verdicts(holds, slacks, digest)
        _, holds, slacks = scalars._reverse_triangle_chains(
            *_disk_pairs(rev_u, scale).T, ts, tol)
        rev.add_verdicts(holds, slacks, lambda i: f"{digest(i)};t={ts[i]:g}")
        _, holds, slacks = scalars._log_bound_chains(xs)
        log.add_verdicts(holds, slacks, lambda i: f"{digest(i)};x={float(xs[i])!r}")
    return tri, rev, log


def _grid_stats(name: str, margins) -> CheckStats:
    """A grid property check's one attempt: it passes when its worst margin is >= 0."""
    stats = CheckStats(name)
    worst = min(margins)
    stats.add_verdicts(np.array([worst >= 0.0]), np.array([worst]), lambda i: "grid")
    return stats


def _monotone_margins(thetas, vals, tol: float) -> list:
    """Margins of each row of vals over the grid thetas being non-increasing
    on [0, pi/2] and non-decreasing on [pi/2, pi]; the pair straddling pi/2
    belongs to neither monotone interval."""
    diffs = np.diff(vals, axis=-1)
    return [tol - float(diffs[..., thetas[1:] <= math.pi / 2.0].max()),
            tol + float(diffs[..., thetas[:-1] >= math.pi / 2.0].min())]


def _run_grid_checks(cfg: SweepConfig) -> tuple:
    """The mu, gamma and mu' property checks, each on its whole grid at once."""
    mono_tol = cfg.tolerances["grid_monotonicity"]
    deriv_tol = cfg.tolerances["derivative_rel"]

    # mu: range, monotone down then up, split at pi/2
    n = 10_000
    thetas = np.arange(1, n + 1) * (math.pi / (n + 1))
    vals = scalars.mu(thetas)
    mu_stats = _grid_stats("mu_grid_properties", [
        float(vals.min()) - 0.5, 1.0 - float(vals.max()),
        *_monotone_margins(thetas, vals, mono_tol)])

    # gamma: range is enforced by construction; check symmetry, monotonicity,
    # and the pinned endpoint values, one row of the grid per t
    n = 2_000
    thetas = np.linspace(0.0, math.pi, n + 1)
    ts = np.array(cfg.t_grid)[:, None]
    vals = scalars.gamma(ts, thetas)
    mirror = scalars.gamma(1.0 - ts, thetas)
    gamma_stats = _grid_stats("gamma_grid_properties", [
        1e-14 - float(np.max(np.abs(vals - mirror))),
        *_monotone_margins(thetas, vals, mono_tol),
        1e-15 - float(np.max(np.abs(vals[:, [0, -1]] - 1.0))),
    ])

    # mu': closed form vs central finite differences, and nu <= 0
    h = 1e-6
    grid = np.concatenate([
        np.linspace(0.01, math.pi / 2.0 - 0.01, 1_000),
        np.linspace(math.pi / 2.0 + 0.01, math.pi - 0.01, 1_000),
    ])
    an = scalars._mu_derivatives(grid)
    fd = (scalars.mu(grid + h) - scalars.mu(grid - h)) / (2.0 * h)
    rel = np.abs(an - fd) / np.maximum(np.abs(an), 1e-300)
    margins = deriv_tol - float(rel.max()), 1e-15 - float(scalars._nus(grid).max())
    return mu_stats, gamma_stats, _grid_stats("mu_derivative_consistency", margins)


# --- operator checks ---------------------------------------------------------


def _record_chains(stats: CheckStats, chains, rows, digest) -> None:
    """Record an operator judge's block (terms, holds, worst, defined), whose
    row j is attempt rows[j] of the block: an undefined row counts as
    undefined, and the verdicts of the rest enter `add_verdicts`."""
    _, holds, slacks, defined = chains
    stats.n_undefined += int(np.count_nonzero(~defined))
    rows = rows[defined]
    stats.add_verdicts(holds[defined], slacks[defined], lambda j: digest(rows[j]))


def _operator_draws(seed: int, dim: int, start: int, kinds) -> tuple:
    """Operator trials start, start + 1, ... of dimension dim, one per entry
    of `kinds` (each trial's matrix kind): the stacks (A, x, y, xv, yv).

    Trial k reads m = ceil((dim^2 + 4*dim)/2) counter blocks (four doubles
    each: two per Box-Muller pair, for the 2*dim^2 normals of A's Ginibre
    draw and the 8*dim of its four vectors) of the one generator
    trial_rng(seed, 2, 0, dim), from block k*m on, so a trial draws
    the same bits in any block and replays alone. Box-Muller turns uniform
    pairs (a_i, b_i) into the normals sqrt(-2 log(1 - a_i)) (cos, sin)(2 pi b_i):
    the cosines, then the sines, give the real and imaginary parts of a
    Ginibre draw G (made into A by its kind), then of x, y (normalised), xv
    and yv in turn. Every kind's trials share one stacked transform, so the
    unitary trials take one stacked SVD.
    """
    count, sq = len(kinds), dim * dim
    half = sq + 4 * dim  # Box-Muller pairs per trial
    m = -(-half // 2)
    rng = trial_rng(seed, _OPERATOR_STREAM, 0, dim)
    rng.bit_generator.advance(start * m)
    u = rng.random((count, 4 * m))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :half]))
    angle = 2.0 * np.pi * u[:, half:2 * half]
    re, im = radius * np.cos(angle), radius * np.sin(angle)
    G = (re[:, :sq] + 1j * im[:, :sq]).reshape(count, dim, dim) / np.sqrt(2.0)
    A = np.empty_like(G)
    kinds = np.array(kinds)
    for kind in dict.fromkeys(kinds.tolist()):
        rows = kinds == kind
        A[rows] = _ensemble(kind, G[rows])
    vectors = (re[:, sq:] + 1j * im[:, sq:]).reshape(count, 4, dim)
    X, Y, XV, YV = np.ascontiguousarray(vectors.swapaxes(0, 1))
    return A, X / _norms(X)[:, None], Y / _norms(Y)[:, None], XV, YV


def _run_operator_trials(cfg: SweepConfig) -> tuple:
    """The operator checks, dimension by dimension, in blocks of stacked trials.

    Each block draws its trials at once by `_operator_draws`, shares one
    stacked SVD (the polar frames of every A, whose top singular values are
    the norms ||A||) and one call of each check's stacked kernels and judge;
    the geometric-mean forms are computed for the invertible kinds' trials
    only. The radius sandwich ||A||/2 <= w(A) <= kittaneh <= ||A|| is judged
    as arrays too, and each judge's block is recorded at once, so the block
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
            A, X, Y, XV, YV = _operator_draws(cfg.seed, dim, start, kinds)
            v = np.array(vs)
            frame = _polar_frames(A)
            unit = operators._schwarz_terms(A, frame, v, X, X)
            trials = np.arange(len(ks))

            def digest(i):
                return (f"seed={cfg.seed};dim={dim};trial={ks[i]};kind={kinds[i]};"
                        f"v={vs[i]:g};t={ts[i]:g}")

            _record_chains(mixed, operators._mixed_schwarz_chains(
                *operators._schwarz_terms(A, frame, v, X, Y), _norms(X), _norms(Y), tol_op),
                trials, digest)
            _record_chains(chain, operators._radius_chains(
                *unit, operators._kittaneh_bounds(frame, v), tol_op), trials, digest)
            _record_chains(rev, operators._reverse_cs_chains(
                *operators._reverse_cs_terms(XV, YV), np.array(ts), tol_op, eq_tol), trials, digest)
            # the invertible kinds' trials only; skipped unless A is invertible enough
            inv = np.flatnonzero([kind in INVERTIBLE_KINDS for kind in kinds])
            forms, refused = operators._geomean_forms(
                PolarFrame(frame.W[inv], frame.sigma[inv], frame.V[inv]), v[inv], X[inv])
            judged = inv[~refused]
            geo.n_skipped += len(ks) - judged.size
            _record_chains(geo, operators._geomean_chains(
                forms[~refused], *(term[judged] for term in unit), tol_op, geo_tol),
                judged, digest)
            nrm = frame.sigma[:, 0]
            _, holds, slacks = scalars._chains(
                (nrm / 2.0, _numerical_radii(A, nrm), operators._kittaneh_bounds(frame, 0.5), nrm),
                tol_rad, nrm)
            sandwich.add_verdicts(holds, slacks, digest)
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
