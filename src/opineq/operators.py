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
of every check lives in one kernel that broadcasts over leading axes: the
harness runs it on blocks of trials, each public check on its one validated
input, and both give the same bits. theta_x has one formula, the cos(theta)
of `_schwarz_terms`' auxiliary vectors, which `angle_profile` also samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    PolarFrame,
    _as_square,
    _as_vector,
    _ct,
    _from_spectrum,
    _geometric_means,
    _hermitian_part,
    _matvecs,
    _moduli,
    _norms,
    _polar_frames,
    _powers,
    _require_pd,
    _spectral_norms,
    _vdots,
)
from .scalars import ChainReport, _chain, gamma, mu

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

OPERATOR_SLACK_TOL = 1e-8

# |<x,x> - 1| allowed when an operation requires a unit vector
UNIT_NORM_TOL = 1e-8

# relative tolerances of the exact-equality links: the t = 1/2 sharpness of
# check_reverse_cs and the last link of check_geomean_lower
REVERSE_CS_EQUALITY_TOL = 1e-12
GEOMEAN_EQUALITY_TOL = 1e-10

# auxiliary vectors shorter than this (relative to the natural scale) leave
# theta undefined; such trials are reported, not failed
_AUX_DEGENERATE_TOL = 1e-12

_MASK64 = (1 << 64) - 1
_PROFILE_STREAM = 0x70726F66  # fixed second key word for angle_profile draws
_PROFILE_BINS = 36  # equal-width histogram bins over [0, pi/2]


def _philox(seed: int, word: int) -> np.random.Generator:
    """Counter-based generator keyed by the two 64-bit words (seed, word)."""
    key = np.array([seed & _MASK64, word & _MASK64], dtype=np.uint64)
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


def _aux_tol(top: float, p: float) -> float:
    """Degeneracy floor of an auxiliary vector scaled by sigma^p, top = sigma_max."""
    return _AUX_DEGENERATE_TOL * max(1.0, top**p if top > 0.0 else 0.0)


# --- kernels -----------------------------------------------------------------
#
# Each kernel takes one trial or a stack of them (A of shape (m, n, n),
# vectors (m, n), the polar frames of all of A from one SVD call, v a float or
# one weight per trial) and returns one value or array per term. The public
# checks run them on their one input; the harness runs them on blocks of
# trials. A check's report is then built per trial from Python floats, where
# cos(theta), mu, gamma and acos stay scalar.


def _schwarz_terms(A, frame: PolarFrame, v, x, y):
    """(|<Ax,y>|, n1, n2, |<a1,a2>|, sigma_max) per trial for the auxiliary
    vectors a1 = |A|^v x and a2 = |A|^(1-v) U* y, with norms n1, n2. In the
    frame's coordinates they are sigma^v (V* x) and sigma^(1-v) (W* y)."""
    sigma = frame.sigma
    a1 = _powers(sigma, v) * _matvecs(_ct(frame.V), x)
    a2 = _powers(sigma, 1.0 - v) * _matvecs(_ct(frame.W), y)
    return (_moduli(_vdots(y, _matvecs(A, x))), _norms(a1), _norms(a2),
            _moduli(_vdots(a2, a1)), sigma[..., 0])


def _power_sum_norms(frame: PolarFrame, v) -> np.ndarray:
    """||S|| per trial, S = |A|^2v + |A*|^2(1-v); Kittaneh's |A| + |A*| is S at v = 1/2."""
    sigma = frame.sigma
    S = _hermitian_part(_from_spectrum(frame.V, _powers(sigma, 2.0 * v))
                        + _from_spectrum(frame.W, _powers(sigma, 2.0 * (1.0 - v))))
    return _spectral_norms(S)


def _kittaneh_bounds(frame: PolarFrame, v) -> np.ndarray:
    """`kittaneh_bound` per trial: ||S|| / 2."""
    return 0.5 * _power_sum_norms(frame, v)


def _geomean_forms(frame: PolarFrame, v, x):
    """(<G x, x>, spectrum of |A|^2v, spectrum of |A*|^2(1-v)) per trial,
    G = |A|^2v # |A*|^2(1-v). The form is meaningless where either spectrum
    is refused by `linalg._pd_refused` (A not invertible enough)."""
    G, lam_p, lam_q = _geometric_means(
        frame.abs_power(2.0 * v), frame.abs_star_power(2.0 * (1.0 - v)), 0.5)
    return _vdots(x, _matvecs(G, x)).real, lam_p, lam_q


def _reverse_cs_terms(x, y):
    """(||x||, ||y||, |<x,y>|) per trial."""
    return _norms(x), _norms(y), _moduli(_vdots(y, x))


def _cos_theta(n1, n2, inner, top, v, x_scale=1.0, y_scale=1.0):
    """cos(theta) of the auxiliary vectors, or None when a norm is at or below
    its degeneracy floor (times x_scale or y_scale) and theta is undefined."""
    if n1 <= _aux_tol(top, v) * x_scale or n2 <= _aux_tol(top, 1.0 - v) * y_scale:
        return None
    return min(1.0, inner / (n1 * n2))


def _undefined(first) -> ChainReport:
    """The angle-undefined report, holding only the chain's first term."""
    return ChainReport((first,), True, 0.0, angle_undefined=True)


def _mixed_schwarz_report(t1, n1, n2, inner, top, v, nx, ny, tol) -> ChainReport:
    cos = _cos_theta(n1, n2, inner, top, v, nx, ny)
    if cos is None:
        return _undefined(("abs_inner", t1))
    base = n1 * n2
    terms = (
        ("abs_inner", t1),
        ("refined_schwarz", mu(math.acos(cos)) * base),
        ("kato_schwarz", base),
    )
    return _chain(terms, tol * max(1.0, base))


def _radius_chain_report(t1, n1, n2, inner, top, s_norm, v, tol) -> ChainReport:
    cos = _cos_theta(n1, n2, inner, top, v)
    if cos is None:
        return _undefined(("abs_quadratic_form", t1))
    m = mu(math.acos(cos))
    terms = (
        ("abs_quadratic_form", t1),
        ("refined_schwarz", m * n1 * n2),
        ("arithmetic_mean", m / 2.0 * (n1 * n1 + n2 * n2)),
        ("operator_norm_bound", m / 2.0 * s_norm),
    )
    return _chain(terms, tol * max(1.0, n1 * n2))


def _reverse_cs_report(nx, ny, inner, t, tol, equality_tol) -> ChainReport:
    prod = nx * ny
    theta = math.acos(min(1.0, inner / prod))
    terms = (
        ("zero", 0.0),
        ("reverse_bound", gamma(t, theta) * prod),
        ("abs_inner", inner),
    )
    sharp_gap = gamma(0.5, theta) * prod - inner
    scale = max(1.0, prod)
    return _chain(terms, tol * scale, ((sharp_gap, equality_tol * scale),))


def _geomean_report(g, t3, n1, n2, inner, top, v, tol, equality_tol) -> ChainReport:
    cos = _cos_theta(n1, n2, inner, top, v)
    if cos is None:
        return _undefined(("abs_quadratic_form", t3))
    t2 = cos * n1 * n2
    terms = (
        ("geomean_form", cos * g),
        ("schwarz_form", t2),
        ("abs_quadratic_form", t3),
    )
    scale = max(1.0, n1 * n2)
    # the last link is checked two-sided through its gap, not as an ordering
    report = _chain(terms[:2], tol * scale, ((t3 - t2, equality_tol * scale),))
    return replace(report, terms=terms)


# --- public checks -----------------------------------------------------------


def check_mixed_schwarz(A, x, y, v: float, tol: float = OPERATOR_SLACK_TOL) -> ChainReport:
    """Refined mixed Schwarz chain for |<Ax, y>|.

    terms = [|<Ax,y>|, mu(theta)*B, B] with
    B = sqrt(<|A|^2v x, x> <|A*|^2(1-v) y, y>) and
    theta = angle(|A|^v x, |A|^(1-v) U* y). The last link is the unrefined
    bound. Degenerate auxiliary vectors give an angle-undefined report.
    """
    A = _as_square(A, "check_mixed_schwarz")
    xv = _as_vector(x, "check_mixed_schwarz")
    yv = _as_vector(y, "check_mixed_schwarz")
    v = _validate_v(v, "check_mixed_schwarz")
    nx = float(_norms(xv))
    ny = float(_norms(yv))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("check_mixed_schwarz: x and y must be nonzero")
    terms = map(float, _schwarz_terms(A, _polar_frames(A), v, xv, yv))
    return _mixed_schwarz_report(*terms, v, nx, ny, tol)


def check_radius_chain(A, v: float, x, tol: float = OPERATOR_SLACK_TOL) -> ChainReport:
    """Per-unit-vector numerical radius chain.

    terms = [|<Ax,x>|, mu(theta_x)*sqrt(q1*q2), mu(theta_x)/2*(q1+q2),
    mu(theta_x)/2*||S||] with q1 = <|A|^2v x,x>, q2 = <|A*|^2(1-v) x,x> and
    S = |A|^2v + |A*|^2(1-v). The middle step is the arithmetic-geometric
    mean inequality; x must be a unit vector.
    """
    A = _as_square(A, "check_radius_chain")
    xv = _require_unit(_as_vector(x, "check_radius_chain"), "check_radius_chain")
    v = _validate_v(v, "check_radius_chain")
    frame = _polar_frames(A)
    terms = map(float, _schwarz_terms(A, frame, v, xv, xv))
    return _radius_chain_report(*terms, float(_power_sum_norms(frame, v)), v, tol)


def check_reverse_cs(
    x, y, t: float, tol: float = OPERATOR_SLACK_TOL, equality_tol: float = REVERSE_CS_EQUALITY_TOL
) -> ChainReport:
    """Reverse Cauchy-Schwarz chain 0 <= gamma_t(theta) ||x|| ||y|| <= |<x,y>|.

    Also verifies the sharpness relation at t = 1/2, where
    gamma_(1/2)(theta) ||x|| ||y|| recovers |<x,y>| exactly (within
    equality_tol * ||x|| ||y||) by the definition of the angle.
    """
    xv = _as_vector(x, "check_reverse_cs")
    yv = _as_vector(y, "check_reverse_cs")
    if xv.shape != yv.shape:
        raise ValueError(f"check_reverse_cs: shape mismatch {xv.shape} vs {yv.shape}")
    nx, ny, inner = map(float, _reverse_cs_terms(xv, yv))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("check_reverse_cs: x and y must be nonzero")
    if not (np.isfinite(t) and 0.0 < t < 1.0):
        raise ValueError(f"check_reverse_cs: t must lie strictly in (0, 1), got {t!r}")
    return _reverse_cs_report(nx, ny, inner, t, tol, equality_tol)


def check_geomean_lower(
    A, v: float, x, tol: float = OPERATOR_SLACK_TOL, equality_tol: float = GEOMEAN_EQUALITY_TOL
) -> ChainReport:
    """Geometric-mean lower bound on |<Ax, x>| for invertible A.

    terms = [cos(theta_x) <G x, x>, cos(theta_x)*sqrt(q1*q2), |<Ax,x>|] with
    G = |A|^2v # |A*|^2(1-v). The first link is <A#B x,x> <=
    sqrt(<Ax,x><Bx,x>); the last is an exact equality by the definition of
    theta_x and is verified two-sided within equality_tol.
    """
    A = _as_square(A, "check_geomean_lower")
    xv = _require_unit(_as_vector(x, "check_geomean_lower"), "check_geomean_lower")
    v = _validate_v(v, "check_geomean_lower")
    frame = _polar_frames(A)
    form, lam_p, lam_q = _geomean_forms(frame, v, xv)
    try:
        _require_pd(lam_p, "first operand")
        _require_pd(lam_q, "second operand")
    except ValueError as err:
        raise ValueError(
            "check_geomean_lower: needs |A|^2v and |A*|^2(1-v) positive definite "
            f"(invertible A): {err}"
        ) from err
    terms = map(float, _schwarz_terms(A, frame, v, xv, xv))
    return _geomean_report(float(form), *terms, v, tol, equality_tol)


def kittaneh_bound(A, v: float = 0.5) -> float:
    """Upper bound w(A) <= || |A|^2v + |A*|^2(1-v) || / 2.

    At v = 1/2 this is Kittaneh's || |A| + |A*| || / 2 <= ||A|| (Studia
    Math. 158, 2003); the weighted form is El-Haddad and Kittaneh's
    (Studia Math. 182, 2007). The paper's refinement mu(theta_x) applies
    per unit vector x, as checked by `check_radius_chain`, not to this
    global bound.
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
    # the chain checks' theta_x, each sample's cos(theta) as `_cos_theta` takes it
    _, n1, n2, inner, top = _schwarz_terms(A, _polar_frames(A), v, X, X)
    defined = (n1 > _aux_tol(top, v)) & (n2 > _aux_tol(top, 1.0 - v))
    skipped = int(samples - defined.sum())
    if not defined.any():
        raise ValueError("angle_profile: profile empty (every sampled angle was undefined)")
    n1, n2, inner = n1[defined], n2[defined], inner[defined]
    thetas = np.arccos(np.minimum(1.0, inner / (n1 * n2)))
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
