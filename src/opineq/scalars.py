"""Scalar refinements of the triangle inequality.

The central quantity is the segment average

    I(c, d) = integral_0^1 |s*c + (1-s)*d| ds,

which squeezes between |c+d|/2 and (|c|+|d|)/2 for all complex c, d. For
unit scalars e^{i*theta}, e^{-i*theta} the average collapses to the
refinement factor mu(theta) in [1/2, 1]; the reverse direction is governed
by gamma_t(theta) in [0, 1]. This module evaluates all of these in closed
form, provides an independent Gauss-Legendre route for I(c, d), and packages
the scalar and operator inequality chains alike as `ChainReport`s.

Each formula is one numpy kernel over whole arrays. The harness runs the
kernels on blocks of trials, and most public functions run them on a stack
of one, so both give the same bits. A stack of one costs 20-200 us in numpy
calls, so four functions keep a one-input route beside their kernel:
`segment_mean_abs` and `check_triangle_refinement` follow their kernels step
for step with the same elementary operations (the same bits, which the tests
check), and `mu` and `gamma` take a `math` route for a float, which the
operator checks pass once per trial, and their kernel for an ndarray.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .quadrature import gauss_legendre_01

__all__ = [
    "ChainReport",
    "segment_mean_abs",
    "segment_mean_abs_quadrature",
    "check_triangle_refinement",
    "check_reverse_triangle",
    "check_log_bound",
    "mu",
    "nu",
    "mu_derivative",
    "gamma",
    "SCALAR_REL_TOL",
]

# default slack tolerance of the triangle chains, relative to (|c| + |d|)/2
SCALAR_REL_TOL = 1e-12

# default slack tolerance of the log bound, relative to |log((1+x)/(1-x))|
_LOG_BOUND_REL_TOL = 1e-14

# half-width (radians) of the windows around 0, pi/2, pi (mod pi) where mu
# returns its limit value instead of evaluating the 0*inf closed form
MU_BRANCH_TOL = 1e-8

# mu_derivative rejects arguments this close to 0 or pi
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
    angle_undefined: bool = False

    @property
    def outcome(self) -> str:
        if self.angle_undefined:
            return "angle-undefined"
        return "pass" if self.holds else "fail"


def _chain(terms, tol: float, scale: float, equality_gaps=()) -> ChainReport:
    """The report of the chain `terms`, each adjacent gap allowed down to
    -tol*scale, with `scale` the chain's own size.

    The inequalities are homogeneous, and rounding error grows with the
    operands, so every allowance is relative: no absolute floor, which would
    swamp the values of a chain at small scale. Each (gap, gap_tol) in
    `equality_gaps` is an exact equality: it enters `worst_slack` as -|gap|
    and fails the chain beyond gap_tol*scale.
    """
    worst = prev = None  # a plain loop, cheaper than min() over a comprehension
    for _, value in terms:
        if prev is not None and (worst is None or value - prev < worst):
            worst = value - prev
        prev = value
    if worst is None:
        worst = 0.0
    holds = worst >= -tol * scale
    for gap, gap_tol in equality_gaps:
        worst = min(worst, -abs(gap))
        holds = holds and abs(gap) <= gap_tol * scale
    return ChainReport(terms, holds, worst)


def _chains(terms, tol: float, scale):
    """(holds, worst_slack) of each row of the chains `terms`, one array per
    link in chain order, judged as `_chain` judges one chain."""
    worst = functools.reduce(np.minimum, (b - a for a, b in zip(terms, terms[1:])))
    return worst >= -tol * scale, worst


def _report(names, terms, holds, worst) -> ChainReport:
    """The `ChainReport` of row 0 of a chain kernel's output."""
    values = (float(value[0]) for value in terms)
    return ChainReport(tuple(zip(names, values)), bool(holds[0]), float(worst[0]))


def _unit_scaled(c: complex, d: complex) -> tuple[int, complex, complex]:
    """(k, c*2^k, d*2^k), k putting the largest real or imaginary part of c, d
    in [1/2, 1). The products are exact unless they leave the double range."""
    k = -math.frexp(max(abs(c.real), abs(c.imag), abs(d.real), abs(d.imag)))[1]
    return (k, complex(math.ldexp(c.real, k), math.ldexp(c.imag, k)),
            complex(math.ldexp(d.real, k), math.ldexp(d.imag, k)))


def _scaled_back(value: float, k: int) -> float:
    """value * 2^-k, the inverse of `_unit_scaled`'s scaling; inf where the
    product leaves the double range."""
    try:
        return math.ldexp(value, -k)
    except OverflowError:
        return math.inf


def _unit_parts(parts, rescale):
    """(k, parts * 2^k): k puts the largest of the four part arrays
    (c.real, c.imag, d.real, d.imag) in [1/2, 1) on the rows of `rescale`,
    and is 0 elsewhere (0 and the parts themselves when no row is). The
    products are exact unless they leave the double range; `_unit_scaled`
    row by row."""
    if not rescale.any():
        return 0, parts
    big = functools.reduce(np.maximum, map(np.abs, parts))
    k = np.where(rescale, -np.frexp(big)[1], 0)
    return k, [np.ldexp(p, k) for p in parts]


def _stack_of_one(*values) -> list:
    """Each value as a one-element float array, for a kernel."""
    return [np.array([v], dtype=float) for v in values]


def _segment_means(cr, ci, dr, di):
    """I(c, d) of each row of the part arrays of c and d, by the closed form
    that `segment_mean_abs` documents."""
    # rows off a branch compute values that np.where discards
    with np.errstate(all="ignore"):
        finite = np.isfinite(cr) & np.isfinite(ci) & np.isfinite(dr) & np.isfinite(di)
        r1 = np.maximum(np.hypot(cr, ci), np.hypot(dr, di))
        # h*h and u0*(u1 + u0) below are second order in the inputs, and L/h,
        # L/den reach r1/h; rescale by a power of two (exact) so that none of
        # them can overflow or lose digits to the subnormal range. The power
        # is read off the largest part, as r1 itself may have overflowed.
        k, (cr, ci, dr, di) = _unit_parts(
            (cr, ci, dr, di), finite & ((r1 > 1e140) | ((r1 > 0.0) & (r1 < 1e-140))))
        r0, r1 = np.hypot(dr, di), np.hypot(cr, ci)
        # d is the end nearer the origin (I(c, d) = I(d, c))
        swap = r0 > r1
        cr, ci, dr, di, r0, r1 = (np.where(swap, b, a) for a, b in (
            (cr, dr), (ci, di), (dr, cr), (di, ci), (r0, r1), (r1, r0)))
        er, ei = cr - dr, ci - di
        L = np.hypot(er, ei)
        nr, ni = er / L, ei / L  # unit direction: u0 and h are first order in the inputs
        u0 = dr * nr + di * ni
        u1 = u0 + L  # not a second product: u1 - u0 must be L on short segments too
        h = np.abs(nr * di - ni * dr)
        mean = r1 / 2.0 + u0 * (u1 + u0) / (2.0 * (r1 + r0))
        hh = h * h
        den = r0 + u0 * (L / (r0 + r1))
        z = L / den
        last = np.where(
            (u0 < 0.0) & (h < L),
            hh / (2.0 * L) * (np.arcsinh(u1 / h) + np.arcsinh(-u0 / h)),
            hh / (2.0 * den) * np.where(z != 0.0, np.arcsinh(z) / z, 1.0))
        # collinear, or h < 1e-161: the last term is below h, 1e-20 of mean
        value = np.where(L == 0.0, r1, np.where(hh == 0.0, mean, mean + last))
        # inf/nan propagate like the endpoints
        return np.where(finite, np.ldexp(value, -k), (r0 + r1) / 2.0)


def segment_mean_abs(c: complex, d: complex) -> float:
    """Closed form of I(c, d) = integral_0^1 |s*c + (1-s)*d| ds.

    Measured along the segment's line from the point nearest the origin, the
    ends sit at u0 and u1 = u0 + L, L = |c - d|, and the line at distance h
    from the origin; with r0 = |d|, r1 = |c| the integral is

        I = r1/2 + u0*(u1 + u0)/(2*(r1 + r0)) + h^2/(2L) * D,
        D = asinh(u1/h) - asinh(u0/h).

    With d the end nearer the origin (I(c, d) = I(d, c)), r0 <= r1 gives
    u1 + u0 >= 0, and u0 and h, read off d, are exact to rounding in r0. No
    term cancels: D is the sum asinh(u1/h) + asinh(-u0/h) where the nearest
    point lies on the segment within L of the origin. Elsewhere D = asinh(z),
    z = L/den, den = r0 + u0*L/(r0 + r1) >= r0/2, and the last term is read
    as h^2/(2*den) * asinh(z)/z, which stays below h where h^2/(2L) need not.
    At h = 0 the last term vanishes and the first two give the collinear cases.

    This is the one-pair route of the kernel `_segment_means`, step for step
    and with its asinh (np.arcsinh), so that both give the same bits; the
    kernel on a stack of one costs about 100 us in numpy calls.
    """
    c = complex(c)
    d = complex(d)
    try:
        r0, r1 = abs(d), abs(c)
    except OverflowError:  # finite parts, but a modulus beyond the double range
        r0, r1 = math.hypot(d.real, d.imag), math.hypot(c.real, c.imag)
    if r0 > r1:
        c, d, r0, r1 = d, c, r1, r0
    if not (cmath.isfinite(c) and cmath.isfinite(d)):
        return (r0 + r1) / 2.0  # inf/nan propagate like the endpoints
    if r1 > 1e140 or 0.0 < r1 < 1e-140:
        # h*h and u0*(u1 + u0) below are second order in the inputs, and L/h,
        # L/den reach r1/h; rescale by a power of two (exact) so that none of
        # them can overflow or lose digits to the subnormal range. The power
        # is read off the largest part, as r1 itself may have overflowed.
        k, c, d = _unit_scaled(c, d)
        return _scaled_back(segment_mean_abs(c, d), k)
    e = c - d
    L = abs(e)
    if L == 0.0:
        return r1
    n = e / L  # unit direction, so that u0 and h are first order in the inputs
    u0 = (d.conjugate() * n).real
    u1 = u0 + L  # not a second product: u1 - u0 must be L on short segments too
    h = abs((n.conjugate() * d).imag)
    mean = r1 / 2.0 + u0 * (u1 + u0) / (2.0 * (r1 + r0))
    hh = h * h
    if hh == 0.0:  # collinear, or h < 1e-161: the last term is below h, 1e-20 of mean
        return mean
    if u0 < 0.0 and h < L:
        return float(mean + hh / (2.0 * L) * (np.arcsinh(u1 / h) + np.arcsinh(-u0 / h)))
    den = r0 + u0 * (L / (r0 + r1))
    z = L / den
    return float(mean + hh / (2.0 * den) * (np.arcsinh(z) / z if z else 1.0))


def segment_mean_abs_quadrature(c: complex, d: complex, nodes: int = 64) -> float:
    """Fixed-order Gauss-Legendre approximation of I(c, d) on [0, 1].

    Independent of the closed form, but a single panel over all of [0, 1]:
    its accuracy is set by the ratio (distance from origin to segment) /
    (segment length), not merely by whether the segment passes through the
    origin. The integrand's branch points sit at that relative distance from
    the contour: the relative error is 1e-11 or better once the ratio is at
    least 0.25, but saturates near 2e-4 when it is ~1e-4, and stays below
    1e-3 at a kink (segment through the origin). A segment that avoids the
    origin is no promise of 1e-10 relative accuracy. The sum is taken at
    unit scale (`_unit_scaled`) and scaled back, so it neither overflows nor
    rounds on the subnormal grid where I(c, d) itself does not.
    """
    nodes = int(nodes)
    if nodes < 2:
        raise ValueError(f"segment_mean_abs_quadrature: need nodes >= 2, got {nodes}")
    s, w = gauss_legendre_01(nodes)
    k, c, d = _unit_scaled(complex(c), complex(d))
    return _scaled_back(float(np.sum(w * np.abs(s * c + (1.0 - s) * d))), k)


def _finite_pair(c: complex, d: complex, who: str) -> tuple[complex, complex]:
    """c and d as complex numbers, each finite with a modulus that is too."""
    c = complex(c)
    d = complex(d)
    # abs() raises OverflowError where the modulus leaves the double range
    if not (cmath.isfinite(c) and cmath.isfinite(d)
            and math.isfinite(math.hypot(c.real, c.imag))
            and math.isfinite(math.hypot(d.real, d.imag))):
        raise ValueError(
            f"{who}: c and d must be finite, with moduli inside the double range, "
            f"got {c!r} and {d!r}")
    return c, d


def _triangle_parts(c, d):
    """(k, parts, |c|, |d|) of the complex arrays c, d for the triangle
    chains: where 0 < |c| + |d| < 1e-140 the parts are scaled by 2^k into
    the unit range, as the terms would round on the subnormal grid, where a
    relative allowance falls below one ulp. The chains are homogeneous, so
    each is judged at that scale and its terms and slack read back."""
    parts = c.real, c.imag, d.real, d.imag
    with np.errstate(over="ignore"):  # an inf sum is no tiny one
        total = np.hypot(parts[0], parts[1]) + np.hypot(parts[2], parts[3])
    k, parts = _unit_parts(parts, (total > 0.0) & (total < 1e-140))
    return k, parts, np.hypot(parts[0], parts[1]), np.hypot(parts[2], parts[3])


def _triangle_chains(c, d, tol: float):
    """((lhs, mid, rhs), holds, worst_slack) per element of the complex
    arrays c, d: the chain of `check_triangle_refinement`."""
    k, (cr, ci, dr, di), abs_c, abs_d = _triangle_parts(c, d)
    # halve before adding, so that finite inputs near the double range stay finite
    lhs = np.hypot(cr / 2.0 + dr / 2.0, ci / 2.0 + di / 2.0)
    mid = _segment_means(cr, ci, dr, di)
    rhs = abs_c / 2.0 + abs_d / 2.0
    holds, worst = _chains((lhs, mid, rhs), tol, rhs)
    return tuple(np.ldexp(term, -k) for term in (lhs, mid, rhs)), holds, np.ldexp(worst, -k)


def _reverse_triangle_chains(c, d, t, tol: float):
    """((lhs, mid, rhs), holds, worst_slack) per element of the complex
    arrays c, d and weights t: the chain of `check_reverse_triangle`."""
    k, (cr, ci, dr, di), abs_c, abs_d = _triangle_parts(c, d)
    r_t = np.minimum(t, 1.0 - t)
    mean_abs = abs_c / 2.0 + abs_d / 2.0  # halved first, as in _triangle_chains
    mixed = np.hypot((1.0 - t) * cr + t * dr, (1.0 - t) * ci + t * di)
    lhs = mean_abs - ((1.0 - t) * abs_c + t * abs_d - mixed) / (2.0 * r_t)
    mid = np.hypot(cr / 2.0 + dr / 2.0, ci / 2.0 + di / 2.0)
    holds, worst = _chains((lhs, mid, mean_abs), tol, mean_abs)
    return tuple(np.ldexp(term, -k) for term in (lhs, mid, mean_abs)), holds, np.ldexp(worst, -k)


def _log_bound_chains(x, tol: float = _LOG_BOUND_REL_TOL):
    """((first, second), holds, worst_slack) per element of x: the chain of
    `check_log_bound`, bound <= log_ratio for x >= 0 and reversed below."""
    bound = 2.0 * x / (x * x + 1.0)
    log_ratio = np.log1p(x) - np.log1p(-x)
    up = x >= 0.0
    terms = np.where(up, bound, log_ratio), np.where(up, log_ratio, bound)
    return (terms, *_chains(terms, tol, np.abs(log_ratio)))


def _at_unit_scale(check, c: complex, d: complex, *args) -> ChainReport:
    """check(c, d, *args) judged where the largest part of c, d lies in
    [1/2, 1), its terms and worst slack scaled back: exact, as the triangle
    chains are homogeneous. Below 1e-140 the terms would round on the
    subnormal grid, where a relative allowance falls below one ulp."""
    k, c, d = _unit_scaled(c, d)
    report = check(c, d, *args)
    terms = tuple((name, math.ldexp(value, -k)) for name, value in report.terms)
    return replace(report, terms=terms, worst_slack=math.ldexp(report.worst_slack, -k))


def check_triangle_refinement(c: complex, d: complex, tol: float = SCALAR_REL_TOL) -> ChainReport:
    """Check |c+d|/2 <= I(c, d) <= (|c|+|d|)/2: terms lhs, mid, rhs. A link
    fails below -tol*(|c|+|d|)/2: `tol` is relative to the chain's scale.

    The one-pair route of the kernel `_triangle_chains`, step for step, so
    that both give the same bits; the kernel on a stack of one costs about
    200 us in numpy calls."""
    c, d = _finite_pair(c, d, "check_triangle_refinement")
    abs_c = abs(c)
    abs_d = abs(d)
    if 0.0 < abs_c + abs_d < 1e-140:
        return _at_unit_scale(check_triangle_refinement, c, d, tol)
    # halve before adding, so that finite inputs near the double range stay finite
    lhs = abs(c / 2.0 + d / 2.0)
    mid = segment_mean_abs(c, d)
    rhs = abs_c / 2.0 + abs_d / 2.0
    return _chain((("lhs", lhs), ("mid", mid), ("rhs", rhs)), tol, rhs)


def check_reverse_triangle(
    c: complex, d: complex, t: float, tol: float = SCALAR_REL_TOL
) -> ChainReport:
    """Check the reverse bound with weight r_t = min(t, 1-t):

        (|c|+|d|)/2 - ((1-t)|c| + t|d| - |(1-t)c + t*d|) / (2*r_t)
            <= |c+d|/2 <= (|c|+|d|)/2.

    The report's chain is reverse bound <= |c+d|/2 <= (|c|+|d|)/2 (the
    second link is the plain triangle inequality). A link fails below
    -tol*(|c|+|d|)/2: `tol` is relative to the chain's scale.
    """
    c, d = _finite_pair(c, d, "check_reverse_triangle")
    if not (math.isfinite(t) and 0.0 < t < 1.0):
        raise ValueError(f"check_reverse_triangle: t must lie strictly in (0, 1), got {t!r}")
    chains = _reverse_triangle_chains(np.array([c]), np.array([d]), *_stack_of_one(t), tol)
    return _report(("lhs", "mid", "rhs"), *chains)


def check_log_bound(x: float, tol: float = _LOG_BOUND_REL_TOL) -> ChainReport:
    """Check 2x/(x^2+1) <= log((1+x)/(1-x)) for 0 <= x < 1 and the reversed
    inequality for -1 < x <= 0: terms bound, log_ratio in the chain's order.
    The link fails below -tol*|log((1+x)/(1-x))|: `tol` is relative."""
    if not (math.isfinite(x) and -1.0 < x < 1.0):
        raise ValueError(f"check_log_bound: need |x| < 1, got {x!r}")
    names = ("bound", "log_ratio") if x >= 0.0 else ("log_ratio", "bound")
    return _report(names, *_log_bound_chains(*_stack_of_one(x), tol))


def _reduce_mod_pi(theta: float) -> float:
    r = math.fmod(theta, math.pi)
    if r < 0.0:
        r += math.pi
    return r


def _reduce_mod_pis(theta):
    """`_reduce_mod_pi` per element."""
    r = np.fmod(theta, math.pi)
    return np.where(r < 0.0, r + math.pi, r)


def _log_ratio(s: float, c: float) -> float:
    """log((1+s)/(1-s)) for s = sin(theta), c = cos(theta), 0 < s < 1.

    Uses 1 - s = c^2/(1+s) for s near 1, where the direct difference loses
    all significant digits.
    """
    if s < 0.9:
        return math.log1p(s) - math.log1p(-s)
    return 2.0 * math.log((1.0 + s) / abs(c))


def _log_ratios(s, c):
    """`_log_ratio` per element."""
    with np.errstate(divide="ignore"):  # log1p(-1) on rows of the other branch
        return np.where(s < 0.9, np.log1p(s) - np.log1p(-s), 2.0 * np.log((1.0 + s) / np.abs(c)))


def _finite_array(value, who: str, name: str) -> np.ndarray:
    """value as a float array, every element of it finite."""
    value = np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
        raise ValueError(f"{who}: every {name} must be finite")
    return value


def _mus(theta) -> np.ndarray:
    """`mu` of each element of the array theta."""
    th = _reduce_mod_pis(_finite_array(theta, "mu", "theta"))
    s = np.sin(th)
    c = np.cos(th)
    with np.errstate(all="ignore"):  # rows of the windows below
        val = 0.25 * (2.0 + (c * c / s) * _log_ratios(s, c))
    val = np.where(np.abs(th - _HALF_PI) < MU_BRANCH_TOL, 0.5, val)
    return np.where((th < MU_BRANCH_TOL) | (math.pi - th < MU_BRANCH_TOL), 1.0, val)


def mu(theta):
    """Refinement factor mu(theta) = (2 + cos(t)*cot(t)*log((1+sin t)/(1-sin t)))/4.

    Equals I(e^{i*theta}, e^{-i*theta}); pi-periodic, decreasing on
    [0, pi/2], increasing on [pi/2, pi], with range [1/2, 1]. Returns the
    limit values exactly at the removable singularities: 1 at theta = 0
    (mod pi) and 1/2 at theta = pi/2 (mod pi). An ndarray theta gives the
    array of values, by the numpy route of the same formula.
    """
    if isinstance(theta, np.ndarray):
        return _mus(theta)
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


def _nus(theta) -> np.ndarray:
    """`nu` of each element of the array theta, all in (0, pi)."""
    s = np.sin(theta)
    return 4.0 * s - 2.0 * (s * s + 1.0) * _log_ratios(s, np.cos(theta))


def _mu_derivatives(theta) -> np.ndarray:
    """`mu_derivative` of each element of the array theta, all in (0, pi)."""
    s = np.sin(theta)
    return np.cos(theta) / (8.0 * s * s) * _nus(theta)


def nu(theta: float) -> float:
    """nu(theta) = 4*sin(t) - 2*(sin^2(t) + 1)*log((1+sin t)/(1-sin t)).

    Defined on (0, pi) away from pi/2, where it tends to -inf; nonpositive
    everywhere there, which is what pins down the monotonicity of mu. No
    double equals pi/2, and `_log_ratios` reads the log term without
    cancellation, so nu is finite at every double in (0, pi).
    """
    if not (math.isfinite(theta) and 0.0 < theta < math.pi):
        raise ValueError(f"nu: theta must lie in (0, pi), got {theta!r}")
    return float(_nus(*_stack_of_one(theta))[0])


def mu_derivative(theta: float) -> float:
    """d(mu)/d(theta) = cos(t)/(8*sin^2(t)) * nu(t) on (0, pi).

    Nonpositive on (0, pi/2], nonnegative on [pi/2, pi). Near pi/2 the
    factors form 0*inf, which tends to 0; both are finite at every double,
    so their product is the value there too.
    """
    if not math.isfinite(theta):
        raise ValueError(f"mu_derivative: theta must be finite, got {theta!r}")
    if not (MU_DERIV_EDGE_TOL < theta < math.pi - MU_DERIV_EDGE_TOL):
        raise ValueError(
            f"mu_derivative: theta must stay in (0, pi) at least {MU_DERIV_EDGE_TOL} "
            f"away from the endpoints, got {theta!r}"
        )
    return float(_mu_derivatives(*_stack_of_one(theta))[0])


def _gammas(t, theta) -> np.ndarray:
    """`gamma` of each element of the broadcast arrays t and theta."""
    t = _finite_array(t, "gamma", "t")
    if not ((t > 0.0) & (t < 1.0)).all():
        raise ValueError("gamma: every t must lie strictly in (0, 1)")
    th = _reduce_mod_pis(_finite_array(theta, "gamma", "theta"))
    s = np.sin(th)
    c = np.cos(th)
    u = np.abs(1.0 - 2.0 * t)
    root = np.sqrt(c * c + u * u * s * s)
    return np.minimum(1.0, c * c * (1.0 + u) / (root + u))


def gamma(t, theta):
    """Reverse-direction factor

        gamma_t(theta) = 1 - (1 - sqrt(cos^2 th + (2t-1)^2 sin^2 th)) / (2*r_t),

    with r_t = min(t, 1-t), for t strictly inside (0, 1). Symmetric under
    t -> 1-t, pi-periodic in theta, with range [0, 1]; at t = 1/2 it equals
    |cos(theta)|, and at theta = 0 exactly 1.

    With u = |1 - 2t| = 1 - 2*r_t and root the square root above, gamma is
    (root - u)/(1 - u), read as cos^2(th)*(1 + u)/(root + u) since
    root^2 - u^2 = cos^2(th)*(1 - u^2): no difference cancels where gamma
    nears 0. An ndarray t or theta gives the array of values over their
    broadcast, by the numpy route of the same formula.
    """
    if isinstance(t, np.ndarray) or isinstance(theta, np.ndarray):
        return _gammas(t, theta)
    if not (math.isfinite(t) and 0.0 < t < 1.0):
        raise ValueError(f"gamma: t must lie strictly in (0, 1), got {t!r}")
    if not math.isfinite(theta):
        raise ValueError(f"gamma: theta must be finite, got {theta!r}")
    th = _reduce_mod_pi(theta)
    s = math.sin(th)
    c = math.cos(th)
    u = abs(1.0 - 2.0 * t)
    root = math.sqrt(c * c + u * u * s * s)
    # the documented range [0, 1] also under rounding, where gamma nears 1
    return min(1.0, c * c * (1.0 + u) / (root + u))
