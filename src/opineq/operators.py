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
of `_aux_terms`' auxiliary vectors; the checks and `angle_profile` share it.
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
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    PolarFrame,
    _as_square,
    _as_vector,
    _ct,
    _from_spectrum,
    _hermitian_part,
    _matvecs,
    _moduli,
    _norms,
    _pd_refused,
    _polar_frames,
    _powers,
    _spectral_norms,
    _vdots,
)
from .scalars import ChainReport, _chain, _scaled_report, _unit_scaled, gamma, mu

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

_MASK64 = (1 << 64) - 1
_PROFILE_STREAM = 0x70726F66  # fixed second key word for angle_profile draws
_PROFILE_BINS = 36  # equal-width histogram bins over [0, pi/2]


def _philox(seed: int, word: int) -> np.random.Generator:
    """Counter-based generator keyed by the two 64-bit integer words (seed, word)."""
    key = np.array([operator.index(w) & _MASK64 for w in (seed, word)], dtype=np.uint64)
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
    return _AUX_DEGENERATE_TOL * top**p


# --- kernels -----------------------------------------------------------------
#
# Each kernel takes one trial or a stack of them (A of shape (m, n, n),
# vectors (m, n), the polar frames of all of A from one SVD call, v a float or
# one weight per trial) and returns one value or array per term. The public
# checks run them on their one input; the harness runs them on blocks of
# trials. A check's report is then built per trial from Python floats, where
# cos(theta), mu, gamma and acos stay scalar.


def _aux_terms(frame: PolarFrame, v, x, y):
    """(n1, n2, |<a1,a2>|, sigma_max) per trial for the auxiliary vectors
    a1 = |A|^v x and a2 = |A|^(1-v) U* y, with norms n1, n2. In the frame's
    coordinates they are sigma^v (V* x) and sigma^(1-v) (W* y)."""
    sigma = frame.sigma
    a1 = _powers(sigma, v) * _matvecs(_ct(frame.V), x)
    a2 = _powers(sigma, 1.0 - v) * _matvecs(_ct(frame.W), y)
    return _norms(a1), _norms(a2), _moduli(_vdots(a2, a1)), sigma[..., 0]


def _schwarz_terms(A, frame: PolarFrame, v, x, y):
    """(|<Ax,y>|, n1, n2, |<a1,a2>|, sigma_max) per trial: the chain checks'
    first term, then `_aux_terms`."""
    return (_moduli(_vdots(y, _matvecs(A, x))), *_aux_terms(frame, v, x, y))


def _kittaneh_bounds(frame: PolarFrame, v) -> np.ndarray:
    """`kittaneh_bound` per trial: ||S/2||, S = |A|^2v + |A*|^2(1-v), with each
    power halved before the sum so that finite A near the double range stays
    finite. Kittaneh's |A| + |A*| is S at v = 1/2."""
    try:
        with np.errstate(over="raise"):
            p = _powers(frame.sigma, 2.0 * v) / 2.0
            q = _powers(frame.sigma, 2.0 * (1.0 - v)) / 2.0
    except FloatingPointError:
        raise ValueError(f"|A|^2v or |A*|^2(1-v) leaves the double range at v = {v}") from None
    return _spectral_norms(_hermitian_part(_from_spectrum(frame.V, p) + _from_spectrum(frame.W, q)))


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
    return _chain(terms, tol, top * nx * ny)


def _radius_chain_report(t1, n1, n2, inner, top, kb, v, tol) -> ChainReport:
    cos = _cos_theta(n1, n2, inner, top, v)
    if cos is None:
        return _undefined(("abs_quadratic_form", t1))
    m = mu(math.acos(cos))
    terms = (
        ("abs_quadratic_form", t1),
        ("refined_schwarz", m * n1 * n2),
        ("arithmetic_mean", m / 2.0 * (n1 * n1 + n2 * n2)),
        ("operator_norm_bound", m * kb),
    )
    return _chain(terms, tol, top)  # ||A|| ||x||^2, x a unit vector


def _reverse_cs_report(nx, ny, inner, t, tol, equality_tol) -> ChainReport:
    prod = nx * ny
    theta = math.acos(min(1.0, inner / prod))
    terms = (
        ("zero", 0.0),
        ("reverse_bound", gamma(t, theta) * prod),
        ("abs_inner", inner),
    )
    sharp_gap = gamma(0.5, theta) * prod - inner
    return _chain(terms, tol, prod, ((sharp_gap, equality_tol),))


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
    # the last link is checked two-sided through its gap, not as an ordering
    report = _chain(terms[:2], tol, top, ((t3 - t2, equality_tol),))
    return replace(report, terms=terms)


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
    return _scaled_report(_mixed_schwarz_report(*terms, v, nx, ny, tol), k + kx + ky)


def check_radius_chain(A, v: float, x, tol: float = OPERATOR_SLACK_TOL) -> ChainReport:
    """Per-unit-vector numerical radius chain.

    terms = [|<Ax,x>|, mu(theta_x)*sqrt(q1*q2), mu(theta_x)/2*(q1+q2),
    mu(theta_x)/2*||S||] with q1 = <|A|^2v x,x>, q2 = <|A*|^2(1-v) x,x> and
    S = |A|^2v + |A*|^2(1-v). The middle step is the arithmetic-geometric
    mean inequality; x must be a unit vector. A link fails below
    -tol*||A||: `tol` is relative to the chain's scale.
    """
    A = _as_square(A, "check_radius_chain")
    xv = _require_unit(_as_vector(x, "check_radius_chain"), "check_radius_chain")
    v = _validate_v(v, "check_radius_chain")
    frame = _polar_frames(A)
    terms = map(float, _schwarz_terms(A, frame, v, xv, xv))
    return _radius_chain_report(*terms, float(_kittaneh_bounds(frame, v)), v, tol)


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
    return _scaled_report(_reverse_cs_report(nx, ny, inner, t, tol, equality_tol), kx + ky)


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
    return _scaled_report(_geomean_report(float(form), *terms, v, tol, equality_tol), k)


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
    # the chain checks' theta_x, each sample's cos(theta) as `_cos_theta` takes it,
    # from A at its unit scale: theta_x is the same at every scale of A
    n1, n2, inner, top = _aux_terms(_unit_scaled_frame(A)[2], v, X, X)
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
