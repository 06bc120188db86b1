"""Operator-level inequality checks.

Every check reduces to the scalar refinement through the polar
decomposition A = U |A|: each takes one `PolarFrame` (one SVD
A = W diag(sigma) V*), whose two absolute-value powers are
|A|^p = V diag(sigma^p) V* and |A*|^p = W diag(sigma^p) W*. The auxiliary
vectors |A|^v x and |A|^(1-v) U* y live in the V-coordinate frame as
sigma^v (V* x) and sigma^(1-v) (W* y). The chains checked here:

  * mixed Schwarz:   |<Ax,y>| <= mu(theta) * sqrt(<|A|^2v x,x><|A*|^2(1-v) y,y>)
                                <= the unrefined bound,
  * numerical radius, per unit vector: the four-term proof chain ending in
    mu(theta_x)/2 * || |A|^2v + |A*|^2(1-v) ||, mu(theta_x) times
    `kittaneh_bound(A, v)`,
  * reverse Cauchy-Schwarz: 0 <= gamma_t(theta) ||x|| ||y|| <= |<x,y>|,
  * geometric-mean lower bound: cos(theta_x) <(|A|^2v # |A*|^2(1-v)) x, x>
    <= |<Ax,x>| with an exact-equality last link.

Inner products are linear in the first slot: <u, w> = w* u. The arithmetic
of every check lives in kernels that broadcast over leading axes, and its
verdict in one judge per chain: the harness runs them on blocks of trials,
each public check on its one validated input, and both give the same bits.
theta_x has one formula, the cos(theta) of `_aux_terms`' auxiliary vectors
(`_angle`); the checks and `angle_profile` share it, and mu and gamma are
read from it with no acos.
The mixed Schwarz and geometric-mean chains are homogeneous of degree 1 in
A, so their public checks judge an A with ||A|| outside [2^-256, 2^256] at
the unit scale of `scalars._unit_scaled`, where no power of sigma leaves the
double range; the mixed Schwarz and reverse Cauchy-Schwarz chains are
homogeneous of degree 1 in x and in y too, and judge their vectors the same
way, and `angle_profile` takes its frame at A's unit scale.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PolarFrame,
    _as_square,
    _as_vector,
    _ct,
    _from_spectrum,
    _matvecs,
    _moduli,
    _norms,
    _pd_refused,
    _polar_frames,
    _powers,
)
from .scalars import (
    ChainReport,
    _chains,
    _gamma_at,
    _mu_at,
    _report,
    _scaled_report,
    _unit_scaled,
)

__all__ = [
    "AngleProfile",
    "check_mixed_schwarz",
    "check_radius_chain",
    "check_reverse_cs",
    "check_geomean_lower",
    "kittaneh_bound",
    "angle_profile",
    "OPERATOR_SLACK_TOL",
]

# default slack tolerance of the chains, relative to each chain's own scale:
# ||A|| ||x|| ||y||, which bounds the rounding of every term, for the chains
# through A, and ||x|| ||y|| for reverse Cauchy-Schwarz
OPERATOR_SLACK_TOL = 1e-8

# |<x,x> - 1| allowed when an operation requires a unit vector
UNIT_NORM_TOL = 1e-8

# relative tolerances of the exact-equality links: the t = 1/2 sharpness of
# check_reverse_cs and the last link of check_geomean_lower
REVERSE_CS_EQUALITY_TOL = 1e-12
GEOMEAN_EQUALITY_TOL = 1e-10

# auxiliary vectors shorter than this times sigma_max^p (their largest
# possible norm) leave theta undefined; such trials are reported, not failed
_AUX_DEGENERATE_TOL = 1e-12

# each chain's term names in chain order
_MIXED_SCHWARZ_NAMES = ("abs_inner", "refined_schwarz", "kato_schwarz")
_RADIUS_CHAIN_NAMES = ("abs_quadratic_form", "refined_schwarz", "arithmetic_mean",
                       "operator_norm_bound")
_REVERSE_CS_NAMES = ("zero", "reverse_bound", "abs_inner")
_GEOMEAN_NAMES = ("geomean_form", "schwarz_form", "abs_quadratic_form")

_PROFILE_STREAM = 0x70726F66  # fixed second key word for angle_profile draws
_PROFILE_BINS = 36  # equal-width histogram bins over [0, pi/2]


def _philox(seed: int, word: int) -> np.random.Generator:
    """Counter-based generator keyed by the two 64-bit integer words (seed, word).
    A seed outside [0, 2^64) raises ValueError: masking it would alias another."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed!r}")
    key = np.array([seed, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class AngleProfile:
    """Empirical distribution of theta_x = angle(|A|^v x, |A|^(1-v) U* x)
    over sampled unit vectors x. `histogram` holds (bin center, count) pairs
    over [0, pi/2]. theta_min and theta_max are the sampled extremes only;
    the extremes over the whole unit sphere may lie outside them."""

    v: float
    samples: int
    skipped: int
    theta_min: float
    theta_max: float
    histogram: tuple[tuple[float, int], ...]


def _validate_v(v: float, who: str) -> float:
    if not (np.isfinite(v) and 0.0 <= v <= 1.0):
        raise ValueError(f"{who}: weight v must lie in [0, 1], got {v!r}")
    return float(v)


def _require_unit(x: np.ndarray, who: str) -> np.ndarray:
    n = float(np.linalg.norm(x))
    if abs(n - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{who}: expected a unit vector, got norm {n!r}")
    return x


# --- kernels -----------------------------------------------------------------
#
# Each kernel takes one trial or a stack of them (A of shape (m, n, n),
# vectors (m, n), the polar frames of all of A from one SVD call, v a float or
# one weight per trial) and returns one value or array per term. Each chain's
# judge takes those terms and returns (terms, holds, worst_slack, defined),
# as `scalars._chains` does with the angle's `defined` added: the harness runs
# it on blocks of trials, and the public check on its one trial's floats,
# which take the same operations.


def _aux_terms(frame: PolarFrame, v, x, y):
    """(n1, n2, |<a1,a2>|, r1, r2) per trial for the auxiliary vectors
    a1 = |A|^v x and a2 = |A|^(1-v) U* y, with norms n1, n2. In the frame's
    coordinates they are sigma^v (V* x) and sigma^(1-v) (W* y). r1 and r2
    are sigma_max^v and sigma_max^(1-v), their largest norms for unit x, y."""
    sigma = frame.sigma
    p, q = _powers(sigma, v), _powers(sigma, 1.0 - v)
    a1 = p * _matvecs(_ct(frame.V), x)
    a2 = q * _matvecs(_ct(frame.W), y)
    return _norms(a1), _norms(a2), _moduli(np.vecdot(a2, a1)), p[..., 0], q[..., 0]


def _schwarz_terms(A, frame: PolarFrame, v, x, y):
    """(|<Ax,y>|, n1, n2, |<a1,a2>|, r1, r2, sigma_max) per trial: the chain
    checks' first term, `_aux_terms` and ||A||."""
    t1 = _moduli(np.vecdot(y, _matvecs(A, x)))
    return (t1, *_aux_terms(frame, v, x, y), frame.sigma[..., 0])


def _kittaneh_bounds(frame: PolarFrame, v) -> np.ndarray:
    """`kittaneh_bound` per trial: ||S/2||, S = |A|^2v + |A*|^2(1-v), with each
    power halved before the sum so that finite A near the double range stays
    finite. Kittaneh's |A| + |A*| is S at v = 1/2. S/2 is formed from the
    frame and is positive semidefinite, so its norm is its top eigenvalue,
    read by eigvalsh (a general SVD of it costs more), which reads the lower
    triangle alone: the sum needs no symmetrising."""
    try:
        with np.errstate(over="raise"):
            p = _powers(frame.sigma, 2.0 * v) / 2.0
            q = _powers(frame.sigma, 2.0 * (1.0 - v)) / 2.0
    except FloatingPointError:
        raise ValueError(f"|A|^2v or |A*|^2(1-v) leaves the double range at v = {v}") from None
    return np.linalg.eigvalsh(_from_spectrum(frame.V, p) + _from_spectrum(frame.W, q))[..., -1]


def _geomean_forms(frame: PolarFrame, v, x):
    """(<G x, x>, refused) per trial, G = |A|^2v # |A*|^2(1-v), read off the
    frame without forming G; `refused` is the chain's one refusal rule.

    A trial is refused (A not invertible enough) where `linalg._pd_refused`
    refuses the spectrum sigma^2v of |A|^2v or sigma^2(1-v) of |A*|^2(1-v),
    both ascending; its form is meaningless, and sigma = 1 stands in so
    that it stays finite. With P = |A|^2v = V sigma^2v V*,
    Q = |A*|^2(1-v) = W sigma^2(1-v) W* and B = sigma^-v (V* W) sigma^(1-v),
    P^(-1/2) Q P^(-1/2) = V (B B*) V*, so <G x, x> = a* (B B*)^(1/2) a with
    a = sigma^v V* x, which is sum_k s_k |(R* a)_k|^2 for the SVD
    B = R diag(s) T*.
    """
    lam_p = _powers(frame.sigma, 2.0 * v)[..., ::-1]
    lam_q = _powers(frame.sigma, 2.0 * (1.0 - v))[..., ::-1]
    refused = _pd_refused(lam_p) | _pd_refused(lam_q)
    sigma = np.where(refused[..., None], 1.0, frame.sigma)
    a = _powers(sigma, v) * _matvecs(_ct(frame.V), x)
    B = (_powers(sigma, -v)[..., :, None] * (_ct(frame.V) @ frame.W)
         * _powers(sigma, 1.0 - v)[..., None, :])
    R, s, _ = np.linalg.svd(B)
    c = _matvecs(_ct(R), a)
    return np.vecdot(s, c.real * c.real + c.imag * c.imag), refused


def _reverse_cs_terms(x, y):
    """(||x||, ||y||, |<x,y>|) per trial."""
    return _norms(x), _norms(y), _moduli(np.vecdot(y, x))


# theta is read from its cosine c, with s = sin(theta) = sqrt((1 - c)(1 + c)),
# and no acos. One trial's floats take math, a block's arrays numpy: both
# round sqrt alike, and np.log1p on a float gives its bits on an array, so
# the two routes agree bit for bit.


def _angle(n1, n2, inner, r1=0.0, r2=0.0):
    """(defined, s, c) of the angle theta in [0, pi/2] of two vectors with
    norms n1, n2 and |inner product| inner, per trial: defined where each
    norm exceeds `_AUX_DEGENERATE_TOL` times r1 or r2, its largest possible
    value, and c = cos(theta) = min(1, inner/(n1 n2)). An array's undefined
    rows hold values that no verdict reads; one undefined trial reads
    theta = 0."""
    defined = (n1 > _AUX_DEGENERATE_TOL * r1) & (n2 > _AUX_DEGENERATE_TOL * r2)
    if isinstance(defined, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on undefined rows
            c = np.minimum(1.0, inner / (n1 * n2))
        return defined, np.sqrt((1.0 - c) * (1.0 + c)), c
    c = min(1.0, inner / (n1 * n2)) if defined else 1.0
    return defined, math.sqrt((1.0 - c) * (1.0 + c)), c


def _mixed_schwarz_chains(t1, n1, n2, inner, r1, r2, top, nx, ny, tol):
    """The judge of `check_mixed_schwarz`, r1 and r2 times ||x|| and ||y||."""
    defined, s, c = _angle(n1, n2, inner, r1 * nx, r2 * ny)
    base = n1 * n2
    return (*_chains((t1, _mu_at(s, c) * base, base), tol, top * nx * ny), defined)


def _radius_chains(t1, n1, n2, inner, r1, r2, top, kb, tol):
    """The judge of `check_radius_chain`, kb its `_kittaneh_bounds`."""
    defined, s, c = _angle(n1, n2, inner, r1, r2)
    m = _mu_at(s, c)
    terms = (t1, m * n1 * n2, m / 2.0 * (n1 * n1 + n2 * n2), m * kb)
    return (*_chains(terms, tol, top), defined)  # ||A|| ||x||^2, x a unit vector


def _reverse_cs_chains(nx, ny, inner, t, tol, equality_tol):
    """The judge of `check_reverse_cs`, with the t = 1/2 gap as an equality;
    theta is defined where x and y are nonzero."""
    defined, s, c = _angle(nx, ny, inner)
    prod = nx * ny
    terms = (prod * 0.0, _gamma_at(t, s, c) * prod, inner)
    sharp_gap = _gamma_at(0.5, s, c) * prod - inner
    return (*_chains(terms, tol, prod, gaps=((sharp_gap, equality_tol),)), defined)


def _geomean_chains(g, t3, n1, n2, inner, r1, r2, top, tol, equality_tol):
    """The judge of `check_geomean_lower`, g its `_geomean_forms`; the last
    link is checked two-sided through its gap, not as an ordering."""
    defined, _, c = _angle(n1, n2, inner, r1, r2)
    t2 = c * n1 * n2
    terms, holds, worst = _chains((c * g, t2), tol, top, gaps=((t3 - t2, equality_tol),))
    return (*terms, t3), holds, worst, defined


def _lone_report(names, chains, kept: int = 0) -> ChainReport:
    """A public check's report from its judge on its one trial, of floats;
    where the angle is undefined, the term `kept` alone, with no verdict."""
    terms, holds, worst, defined = chains
    if not defined:
        return ChainReport(((names[kept], terms[kept]),), True, 0.0, angle_undefined=True)
    return _report(names, terms, holds, worst)


def _unit_scaled_frame(A):
    """(k, A*2^k, its polar frame), k from `scalars._unit_scaled` at ||A||;
    a chain through A, of degree 1 in it, is read back by `_scaled_report`."""
    frame = _polar_frames(A)
    k, (A,) = _unit_scaled((A,), frame.sigma[0])
    return k, A, _polar_frames(A) if k else frame


def _unit_scaled_vector(x):
    """(k, x*2^k, its norm), k from `scalars._unit_scaled` at ||x||; the norm
    is 0 only for x = 0."""
    with np.errstate(over="ignore"):  # an inf norm is one to rescale
        norm = float(_norms(x))
    k, (x,) = _unit_scaled((x,), norm)
    return k, x, float(_norms(x)) if k else norm


# --- public checks -----------------------------------------------------------


def check_mixed_schwarz(A, x, y, v: float, tol: float = OPERATOR_SLACK_TOL) -> ChainReport:
    """Refined mixed Schwarz chain for |<Ax, y>|.

    terms = [|<Ax,y>|, mu(theta)*B, B] with
    B = sqrt(<|A|^2v x, x> <|A*|^2(1-v) y, y>) and
    theta = angle(|A|^v x, |A|^(1-v) U* y). The last link is the unrefined
    bound. A link fails below -tol*||A|| ||x|| ||y||: `tol` is relative to
    the chain's scale, which bounds the rounding of every term.
    Degenerate auxiliary vectors give an angle-undefined report. Each of A,
    x and y whose norm lies outside [2^-256, 2^256] is judged at a
    power-of-two unit scale.
    """
    A = _as_square(A, "check_mixed_schwarz")
    kx, xv, nx = _unit_scaled_vector(_as_vector(x, "check_mixed_schwarz"))
    ky, yv, ny = _unit_scaled_vector(_as_vector(y, "check_mixed_schwarz"))
    v = _validate_v(v, "check_mixed_schwarz")
    if nx == 0.0 or ny == 0.0:
        raise ValueError("check_mixed_schwarz: x and y must be nonzero")
    k, A, frame = _unit_scaled_frame(A)
    terms = map(float, _schwarz_terms(A, frame, v, xv, yv))
    chains = _mixed_schwarz_chains(*terms, nx, ny, tol)
    return _scaled_report(_lone_report(_MIXED_SCHWARZ_NAMES, chains), k + kx + ky)


def check_radius_chain(A, v: float, x, tol: float = OPERATOR_SLACK_TOL) -> ChainReport:
    """Per-unit-vector numerical radius chain.

    terms = [|<Ax,x>|, mu(theta_x)*sqrt(q1*q2), mu(theta_x)/2*(q1+q2),
    mu(theta_x)/2*||S||] with q1 = <|A|^2v x,x>, q2 = <|A*|^2(1-v) x,x> and
    S = |A|^2v + |A*|^2(1-v). The middle step is the arithmetic-geometric
    mean inequality; x must be a unit vector. A link fails below
    -tol*||A||: `tol` is relative to the chain's scale. Raises ValueError,
    as `kittaneh_bound` does, where |A|^2v or |A*|^2(1-v) leaves the double
    range.
    """
    A = _as_square(A, "check_radius_chain")
    xv = _require_unit(_as_vector(x, "check_radius_chain"), "check_radius_chain")
    v = _validate_v(v, "check_radius_chain")
    frame = _polar_frames(A)
    bound = float(_kittaneh_bounds(frame, v))  # its range check before the norms overflow
    terms = map(float, _schwarz_terms(A, frame, v, xv, xv))
    chains = _radius_chains(*terms, bound, tol)
    return _lone_report(_RADIUS_CHAIN_NAMES, chains)


def check_reverse_cs(
    x, y, t: float, tol: float = OPERATOR_SLACK_TOL, equality_tol: float = REVERSE_CS_EQUALITY_TOL
) -> ChainReport:
    """Reverse Cauchy-Schwarz chain 0 <= gamma_t(theta) ||x|| ||y|| <= |<x,y>|.

    Also verifies the sharpness relation at t = 1/2, where
    gamma_(1/2)(theta) ||x|| ||y|| recovers |<x,y>| exactly (within
    equality_tol * ||x|| ||y||) by the definition of the angle. A link fails
    below -tol * ||x|| ||y||: both tolerances are relative to that scale.
    Each of x and y whose norm lies outside [2^-256, 2^256] is judged at a
    power-of-two unit scale.
    """
    xv = _as_vector(x, "check_reverse_cs")
    yv = _as_vector(y, "check_reverse_cs")
    if xv.shape != yv.shape:
        raise ValueError(f"check_reverse_cs: shape mismatch {xv.shape} vs {yv.shape}")
    kx, xv, _ = _unit_scaled_vector(xv)
    ky, yv, _ = _unit_scaled_vector(yv)
    nx, ny, inner = map(float, _reverse_cs_terms(xv, yv))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("check_reverse_cs: x and y must be nonzero")
    if not (np.isfinite(t) and 0.0 < t < 1.0):
        raise ValueError(f"check_reverse_cs: t must lie strictly in (0, 1), got {t!r}")
    chains = _reverse_cs_chains(nx, ny, inner, float(t), tol, equality_tol)
    return _scaled_report(_lone_report(_REVERSE_CS_NAMES, chains), kx + ky)


def check_geomean_lower(
    A, v: float, x, tol: float = OPERATOR_SLACK_TOL, equality_tol: float = GEOMEAN_EQUALITY_TOL
) -> ChainReport:
    """Geometric-mean lower bound on |<Ax, x>| for invertible A.

    terms = [cos(theta_x) <G x, x>, cos(theta_x)*sqrt(q1*q2), |<Ax,x>|] with
    G = |A|^2v # |A*|^2(1-v). The first link is <A#B x,x> <=
    sqrt(<Ax,x><Bx,x>); the last is an exact equality by the definition of
    theta_x and is verified two-sided within equality_tol*||A||. The first
    link fails below -tol*||A||: both tolerances are relative to that scale.
    An A with ||A|| outside [2^-256, 2^256] is judged at a power-of-two unit
    scale.
    """
    A = _as_square(A, "check_geomean_lower")
    xv = _require_unit(_as_vector(x, "check_geomean_lower"), "check_geomean_lower")
    v = _validate_v(v, "check_geomean_lower")
    k, A, frame = _unit_scaled_frame(A)
    form, refused = _geomean_forms(frame, v, xv)
    if refused:
        raise ValueError("check_geomean_lower: |A|^2v or |A*|^2(1-v) is not positive definite "
                         f"enough for the geometric mean at v = {v} (A not invertible enough)")
    terms = map(float, _schwarz_terms(A, frame, v, xv, xv))
    chains = _geomean_chains(float(form), *terms, tol, equality_tol)
    return _scaled_report(_lone_report(_GEOMEAN_NAMES, chains, kept=2), k)


def kittaneh_bound(A, v: float = 0.5) -> float:
    """Upper bound w(A) <= || |A|^2v + |A*|^2(1-v) || / 2.

    At v = 1/2 this is Kittaneh's || |A| + |A*| || / 2 <= ||A|| (Studia
    Math. 158, 2003); the weighted form is El-Haddad and Kittaneh's
    (Studia Math. 182, 2007). The paper's refinement mu(theta_x) applies
    per unit vector x, as checked by `check_radius_chain`, not to this
    global bound. Raises ValueError where |A|^2v or |A*|^2(1-v) leaves the
    double range.
    """
    v = _validate_v(v, "kittaneh_bound")
    A = _as_square(A, "kittaneh_bound")
    return float(_kittaneh_bounds(_polar_frames(A), v))


def angle_profile(A, v: float, samples: int, seed: int) -> AngleProfile:
    """Sample theta_x over Haar-uniform unit vectors x (Gaussian normalize).

    Deterministic for a fixed seed. Vectors whose auxiliary images are
    degenerate are skipped and counted; if every sample degenerates the
    profile is empty and an error is raised. theta_min is the sampled
    minimum, not a lower bound over all unit vectors: for invertible A the
    infimum is 0, attained at the eigenvectors of U |A|^(2v-1).
    """
    A = _as_square(A, "angle_profile")
    v = _validate_v(v, "angle_profile")
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"angle_profile: need samples >= 1, got {samples}")

    n = A.shape[0]
    rng = _philox(seed, _PROFILE_STREAM)
    Z = rng.normal(size=(samples, n)) + 1j * rng.normal(size=(samples, n))
    norms = np.linalg.norm(Z, axis=1)
    norms[norms == 0.0] = 1.0
    X = Z / norms[:, None]
    # the chain checks' theta_x, each sample's cos(theta) as `_angle` takes it,
    # from A at its unit scale: theta_x is the same at every scale of A
    defined, _, c = _angle(*_aux_terms(_unit_scaled_frame(A)[2], v, X, X))
    skipped = int(samples - defined.sum())
    if not defined.any():
        raise ValueError("angle_profile: profile empty (every sampled angle was undefined)")
    thetas = np.arccos(c[defined])
    counts, edges = np.histogram(thetas, bins=_PROFILE_BINS, range=(0.0, math.pi / 2.0))
    centers = (edges[:-1] + edges[1:]) / 2.0
    return AngleProfile(
        v=v,
        samples=samples,
        skipped=skipped,
        theta_min=float(thetas.min()),
        theta_max=float(thetas.max()),
        histogram=tuple((float(c), int(k)) for c, k in zip(centers, counts)),
    )
