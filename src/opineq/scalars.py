"""Scalar refinements of the triangle inequality.

The central quantity is the segment average

    I(c, d) = integral_0^1 |s*c + (1-s)*d| ds,

which squeezes between |c+d|/2 and (|c|+|d|)/2 for all complex c, d. For
unit scalars e^{i*theta}, e^{-i*theta} the average collapses to the
refinement factor mu(theta) in [1/2, 1]; the reverse direction is governed
by gamma_t(theta) in [0, 1]. This module evaluates all of these in closed
form, provides an independent Gauss-Legendre route for I(c, d), and packages
the scalar and operator inequality chains alike as `ChainReport`s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .quadrature import gauss_legendre_01

__all__ = [
    "ChainReport",
    "chain_tolerance",
    "segment_mean_abs",
    "segment_mean_abs_quadrature",
    "check_triangle_refinement",
    "check_reverse_triangle",
    "check_log_bound",
    "mu",
    "nu",
    "mu_derivative",
    "gamma",
    "SCALAR_ABS_TOL",
    "SCALAR_REL_TOL",
]

# absolute slack tolerance for scalar chains at scale <= 10, grows
# scale-relatively beyond that (see chain_tolerance)
SCALAR_ABS_TOL = 1e-10
SCALAR_REL_TOL = 1e-12

# half-width (radians) of the windows around 0, pi/2, pi (mod pi) where mu
# returns its limit value instead of evaluating the 0*inf closed form
MU_BRANCH_TOL = 1e-8

# discriminant threshold below which the segment is treated as collinear
# with the origin: 4*alpha*gamma - beta^2 <= tol * (alpha*gamma + beta^2)
COLLINEAR_DISC_TOL = 1e-14

# nu rejects arguments with 1 - sin(theta) below this (log singularity);
# mu_derivative returns its limit 0 inside the slightly wider window
NU_SIN_TOL = 1e-15
MU_DERIV_HALF_PI_TOL = 5e-8
MU_DERIV_EDGE_TOL = 1e-8

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class ChainReport:
    """A checked inequality chain over named terms, scalar or operator.

    `terms` lists each link of the chain in order as (name, value) pairs;
    `worst_slack` is the most negative adjacent gap (an equality link
    contributes its negated absolute gap). When the defining angle is
    degenerate the report is marked `angle_undefined` and carries no verdict.
    """

    terms: tuple[tuple[str, float], ...]
    holds: bool
    worst_slack: float
    input_digest: str = ""
    angle_undefined: bool = False

    @property
    def outcome(self) -> str:
        if self.angle_undefined:
            return "angle-undefined"
        return "pass" if self.holds else "fail"


def chain_tolerance(c: complex, d: complex) -> float:
    """Slack tolerance for a scalar chain at the scale of its inputs."""
    return max(SCALAR_ABS_TOL, SCALAR_REL_TOL * max(abs(c), abs(d), 1.0))


def _chain(terms, tol: float, equality_gaps=(), input_digest: str = "") -> ChainReport:
    """The report of the chain `terms`, each adjacent gap allowed down to -tol.

    Each (gap, gap_tol) in `equality_gaps` is an exact equality: it enters
    `worst_slack` as -|gap| and fails the chain beyond gap_tol.
    """
    worst = prev = None  # a plain loop, cheaper than min() over a comprehension
    for _, value in terms:
        if prev is not None and (worst is None or value - prev < worst):
            worst = value - prev
        prev = value
    if worst is None:
        worst = 0.0
    holds = worst >= -tol
    for gap, gap_tol in equality_gaps:
        worst = min(worst, -abs(gap))
        holds = holds and abs(gap) <= gap_tol
    return ChainReport(terms, holds, worst, input_digest)


def segment_mean_abs(c: complex, d: complex) -> float:
    """Closed form of I(c, d) = integral_0^1 |s*c + (1-s)*d| ds.

    The integrand is sqrt(alpha*s^2 + beta*s + gamma) with alpha = |c-d|^2,
    beta = 2*Re(conj(d)*(c-d)), gamma = |d|^2, integrated with the standard
    sqrt-of-quadratic antiderivative (asinh form). When the discriminant
    4*alpha*gamma - beta^2 vanishes the segment line passes through the
    origin and the integrand degenerates to the piecewise-linear
    sqrt(alpha)*|s - s0|, which is integrated directly.
    """
    c = complex(c)
    d = complex(d)
    big = max(abs(c), abs(d))
    if not math.isfinite(big):
        return (abs(c) + abs(d)) / 2.0  # inf/nan propagate like the endpoints
    if big > 1e70 or 0.0 < big < 1e-70:
        # the discriminant below is fourth order in the inputs; rescale by a
        # power of two (exact) so it can neither overflow nor denormalize
        shift = math.ldexp(1.0, -int(math.floor(math.log2(big))))
        return segment_mean_abs(c * shift, d * shift) / shift
    e = c - d
    alpha = abs(e) ** 2
    if alpha == 0.0:
        return abs(c)
    beta = 2.0 * (d.conjugate() * e).real
    gam = abs(d) ** 2
    disc = 4.0 * alpha * gam - beta * beta
    if disc <= COLLINEAR_DISC_TOL * (alpha * gam + beta * beta):
        s0 = -beta / (2.0 * alpha)
        root_alpha = math.sqrt(alpha)
        if s0 <= 0.0:
            return root_alpha * (0.5 - s0)
        if s0 >= 1.0:
            return root_alpha * (s0 - 0.5)
        return root_alpha * (s0 * s0 + (1.0 - s0) ** 2) / 2.0
    r1 = abs(c)
    r0 = abs(d)
    linear = ((2.0 * alpha + beta) * r1 - beta * r0) / (4.0 * alpha)
    root_disc = math.sqrt(disc)
    log_part = (
        disc
        / (8.0 * alpha**1.5)
        * (math.asinh((2.0 * alpha + beta) / root_disc) - math.asinh(beta / root_disc))
    )
    return linear + log_part


def segment_mean_abs_quadrature(c: complex, d: complex, nodes: int = 64) -> float:
    """Fixed-order Gauss-Legendre approximation of I(c, d) on [0, 1].

    Independent of the closed form, but a single panel over all of [0, 1]:
    its accuracy is set by the ratio (distance from origin to segment) /
    (segment length), not merely by whether the segment passes through the
    origin. The integrand's branch points sit at that relative distance from
    the contour: the relative error is 1e-11 or better once the ratio is at
    least 0.25, but saturates near 2e-4 when it is ~1e-4, and stays below
    1e-3 at a kink (segment through the origin). A segment that avoids the
    origin is no promise of 1e-10 relative accuracy.
    """
    nodes = int(nodes)
    if nodes < 2:
        raise ValueError(f"segment_mean_abs_quadrature: need nodes >= 2, got {nodes}")
    s, w = gauss_legendre_01(nodes)
    return float(np.sum(w * np.abs(s * complex(c) + (1.0 - s) * complex(d))))


def _finite_pair(c: complex, d: complex, who: str) -> tuple[complex, complex]:
    c = complex(c)
    d = complex(d)
    if not (cmath.isfinite(c) and cmath.isfinite(d)):
        raise ValueError(f"{who}: c and d must be finite, got {c!r} and {d!r}")
    return c, d


def check_triangle_refinement(c: complex, d: complex, tol: float | None = None) -> ChainReport:
    """Check |c+d|/2 <= I(c, d) <= (|c|+|d|)/2: terms lhs, mid, rhs."""
    c, d = _finite_pair(c, d, "check_triangle_refinement")
    if tol is None:
        tol = chain_tolerance(c, d)
    # halve before adding, so that finite inputs near the double range stay finite
    lhs = abs(c / 2.0 + d / 2.0)
    mid = segment_mean_abs(c, d)
    rhs = abs(c) / 2.0 + abs(d) / 2.0
    return _chain((("lhs", lhs), ("mid", mid), ("rhs", rhs)), tol)


def check_reverse_triangle(
    c: complex, d: complex, t: float, tol: float | None = None
) -> ChainReport:
    """Check the reverse bound with weight r_t = min(t, 1-t):

        (|c|+|d|)/2 - ((1-t)|c| + t|d| - |(1-t)c + t*d|) / (2*r_t)
            <= |c+d|/2 <= (|c|+|d|)/2.

    The report's chain is reverse bound <= |c+d|/2 <= (|c|+|d|)/2 (the
    second link is the plain triangle inequality). `holds` additionally
    requires the equivalent convexity form

        |(1-t)c + t*d| <= (1-t)|c| + t|d| - 2*r_t*((|c|+|d|)/2 - |c+d|/2),

    which is the same inequality scaled by 2*r_t and so can never be the
    stricter of the two at a fixed tolerance.
    """
    c, d = _finite_pair(c, d, "check_reverse_triangle")
    if not (math.isfinite(t) and 0.0 < t < 1.0):
        raise ValueError(f"check_reverse_triangle: t must lie strictly in (0, 1), got {t!r}")
    if tol is None:
        tol = chain_tolerance(c, d)
    r_t = min(t, 1.0 - t)
    abs_c = abs(c)
    abs_d = abs(d)
    mean_abs = abs_c / 2.0 + abs_d / 2.0  # halved first, as in check_triangle_refinement
    mixed = abs((1.0 - t) * c + t * d)
    lhs = mean_abs - ((1.0 - t) * abs_c + t * abs_d - mixed) / (2.0 * r_t)
    mid = abs(c / 2.0 + d / 2.0)
    report = _chain((("lhs", lhs), ("mid", mid), ("rhs", mean_abs)), tol)
    equiv_holds = mixed <= (1.0 - t) * abs_c + t * abs_d - 2.0 * r_t * (mean_abs - mid) + tol
    return report if equiv_holds else replace(report, holds=False)


def _log_bound_margin(x: float) -> float:
    """Signed margin of the log bound at x, nonnegative where it holds:
    log((1+x)/(1-x)) - 2x/(x^2+1) for x >= 0, its negation for x < 0."""
    lhs = 2.0 * x / (x * x + 1.0)
    rhs = math.log1p(x) - math.log1p(-x)
    return rhs - lhs if x >= 0.0 else lhs - rhs


def check_log_bound(x: float, tol: float = 1e-12) -> bool:
    """Check 2x/(x^2+1) <= log((1+x)/(1-x)) for 0 <= x < 1 and the reversed
    inequality for -1 < x <= 0, within `tol`."""
    if not (math.isfinite(x) and -1.0 < x < 1.0):
        raise ValueError(f"check_log_bound: need |x| < 1, got {x!r}")
    return _log_bound_margin(x) >= -tol


def _reduce_mod_pi(theta: float) -> float:
    r = math.fmod(theta, math.pi)
    if r < 0.0:
        r += math.pi
    return r


def _log_ratio(s: float, c: float) -> float:
    """log((1+s)/(1-s)) for s = sin(theta), c = cos(theta), 0 < s < 1.

    Uses 1 - s = c^2/(1+s) for s near 1, where the direct difference loses
    all significant digits.
    """
    if s < 0.9:
        return math.log1p(s) - math.log1p(-s)
    return 2.0 * math.log((1.0 + s) / abs(c))


def mu(theta: float) -> float:
    """Refinement factor mu(theta) = (2 + cos(t)*cot(t)*log((1+sin t)/(1-sin t)))/4.

    Equals I(e^{i*theta}, e^{-i*theta}); pi-periodic, decreasing on
    [0, pi/2], increasing on [pi/2, pi], with range [1/2, 1]. Returns the
    limit values exactly at the removable singularities: 1 at theta = 0
    (mod pi) and 1/2 at theta = pi/2 (mod pi).
    """
    if not math.isfinite(theta):
        raise ValueError(f"mu: theta must be finite, got {theta!r}")
    th = _reduce_mod_pi(theta)
    if th < MU_BRANCH_TOL or math.pi - th < MU_BRANCH_TOL:
        return 1.0
    if abs(th - _HALF_PI) < MU_BRANCH_TOL:
        return 0.5
    s = math.sin(th)
    c = math.cos(th)
    return 0.25 * (2.0 + (c * c / s) * _log_ratio(s, c))


def nu(theta: float) -> float:
    """nu(theta) = 4*sin(t) - 2*(sin^2(t) + 1)*log((1+sin t)/(1-sin t)).

    Defined on (0, pi) away from pi/2; nonpositive everywhere there, which
    is what pins down the monotonicity of mu.
    """
    if not (math.isfinite(theta) and 0.0 < theta < math.pi):
        raise ValueError(f"nu: theta must lie in (0, pi), got {theta!r}")
    s = math.sin(theta)
    if 1.0 - s < NU_SIN_TOL:
        raise ValueError(
            f"nu: log term singular at theta = pi/2 (1 - sin(theta) = {1.0 - s:.3e}); "
            "evaluate one-sided"
        )
    c = math.cos(theta)
    return 4.0 * s - 2.0 * (s * s + 1.0) * _log_ratio(s, c)


def mu_derivative(theta: float) -> float:
    """d(mu)/d(theta) = cos(t)/(8*sin^2(t)) * nu(t) on (0, pi).

    Nonpositive on (0, pi/2], nonnegative on [pi/2, pi). Returns the limit 0
    inside a 5e-8 window of pi/2, where the factors form an unresolvable
    0*inf in double precision.
    """
    if not math.isfinite(theta):
        raise ValueError(f"mu_derivative: theta must be finite, got {theta!r}")
    if not (MU_DERIV_EDGE_TOL < theta < math.pi - MU_DERIV_EDGE_TOL):
        raise ValueError(
            f"mu_derivative: theta must stay in (0, pi) at least {MU_DERIV_EDGE_TOL} "
            f"away from the endpoints, got {theta!r}"
        )
    if abs(theta - _HALF_PI) < MU_DERIV_HALF_PI_TOL:
        return 0.0
    s = math.sin(theta)
    return math.cos(theta) / (8.0 * s * s) * nu(theta)


def gamma(t: float, theta: float) -> float:
    """Reverse-direction factor

        gamma_t(theta) = 1 - (1 - sqrt(cos^2 th + (2t-1)^2 sin^2 th)) / (2*r_t),

    with r_t = min(t, 1-t), for t strictly inside (0, 1). Symmetric under
    t -> 1-t, pi-periodic in theta, with range [0, 1]; at t = 1/2 it equals
    |cos(theta)| exactly.
    """
    if not (math.isfinite(t) and 0.0 < t < 1.0):
        raise ValueError(f"gamma: t must lie strictly in (0, 1), got {t!r}")
    if not math.isfinite(theta):
        raise ValueError(f"gamma: theta must be finite, got {theta!r}")
    th = _reduce_mod_pi(theta)
    s = math.sin(th)
    c = math.cos(th)
    u = 2.0 * t - 1.0
    root = math.sqrt(c * c + u * u * s * s)
    r_t = min(t, 1.0 - t)
    val = 1.0 - (1.0 - root) / (2.0 * r_t)
    # round-off at theta ~ pi/2 can stray a few ulps outside the true range
    return min(1.0, max(0.0, val))
