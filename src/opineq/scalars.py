"""Scalar refinements of the triangle inequality.

The central quantity is the segment average

    I(c, d) = integral_0^1 |s*c + (1-s)*d| ds,

which squeezes between |c+d|/2 and (|c|+|d|)/2 for all complex c, d. For
unit scalars e^{i*theta}, e^{-i*theta} the average collapses to the
refinement factor mu(theta) in [1/2, 1]; the reverse direction is governed
by gamma_t(theta) in [0, 1]. This module evaluates all of these in closed
form, provides an independent Gauss-Legendre route for I(c, d), and packages
the scalar and operator inequality chains alike as `ChainReport`s.

Each quantity has one expression, with no branch window and no difference
that cancels, in one numpy kernel over whole arrays. The harness runs the
kernels on blocks of trials, and most public functions on a stack of one,
so both give the same bits. A stack of one costs 20-200 us in numpy calls,
so four functions keep a one-input route beside their kernel:
`segment_mean_abs` (for ends of size in [2^-256, 2^256]; all others go to
the kernel) and `check_triangle_refinement` give their kernels' bits (which
the tests check), and `mu` and `gamma` take a float. A route keeps its own
input checks, but no formula: the reduction mod pi, the log ratio, mu,
gamma and the segment's line are each one expression, evaluated by `math`
on a float and by numpy on an array; mu and gamma at a sine and cosine, with
their limits, are `_mu_at` and `_gamma_at`, which the operator chains share;
`_chains` judges a chain of numbers as it judges rows of arrays.

Every chain is homogeneous, so one rule serves the scalar kernels, the
operator chains and `numerical_radius`: `_unit_scaled` takes an input whose
size lies outside `_UNIT_RANGE` = [2^-256, 2^256] to unit scale by an exact
power of two, and `_scaled_report` reads a chain's terms back.
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

# 16k/(4k^2 - 1), k = 14, ..., 1: nu/sin^2 = -sin * sum_k of these times
# sin^(2k-2), highest power first; below sin = 1/4, 14 terms reach 1e-17
_NU_SERIES = tuple(16.0 * k / (4.0 * k * k - 1.0) for k in range(14, 0, -1))

# sizes at which a homogeneous input is taken as it is: beyond them the squares,
# products and powers of sigma that the kernels, the operator chains and
# `numerical_radius` form can overflow or round on the subnormal grid
_UNIT_RANGE = (2.0**-256, 2.0**256)


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


def _least(a, b):
    """np.minimum of two numbers, NaN and signed zeros included: a where
    a < b or a is NaN, else b."""
    return a if a < b or a != a else b


def _chains(terms, tol: float, scale, k=0, gaps=()):
    """(terms, holds, worst_slack) of each row of the chains `terms`, one
    array per link in chain order, or of the one chain of numbers `terms`,
    each adjacent gap allowed down to -tol*scale, with `scale` the chain's
    own size. Each (gap, gap_tol) of `gaps` is an exact equality: it enters
    the worst slack as -|gap| and fails the row beyond gap_tol*scale. Terms
    and slack are read back from the `_unit_scaled` scale 2^k.

    The inequalities are homogeneous, and rounding error grows with the
    operands, so every allowance is relative: no absolute floor, which would
    swamp the values of a chain at small scale. A NaN gap fails its row.
    Numbers take `_least` for np.minimum, so one chain has a block's bits."""
    links = [b - a for a, b in zip(terms, terms[1:])]
    least = np.minimum if isinstance(links[0], np.ndarray) else _least
    worst = functools.reduce(least, links)
    holds = worst >= -tol * scale
    for gap, gap_tol in gaps:
        worst = least(worst, -abs(gap))
        holds = holds & (abs(gap) <= gap_tol * scale)
    if isinstance(k, np.ndarray) or k:
        terms, worst = tuple(np.ldexp(t, -k) for t in terms), np.ldexp(worst, -k)
    return terms, holds, worst


def _report(names, terms, holds, worst) -> ChainReport:
    """The `ChainReport` of one chain from `_chains`: numbers, or row 0 of arrays."""
    if isinstance(worst, np.ndarray):
        terms, holds, worst = [float(t[0]) for t in terms], bool(holds[0]), float(worst[0])
    return ChainReport(tuple(zip(names, terms)), holds, worst)


def _unit_scaled(parts, scale):
    """(k, [p * 2^k for p in parts]) for the numbers or arrays `parts` of one
    homogeneous input, given a size of it that the caller holds: a float, or
    an ndarray of one per row. k = 0 where `scale` lies in `_UNIT_RANGE` and
    for zero or non-finite parts; elsewhere k puts the largest real or
    imaginary part in [1/2, 1), exactly unless parts fall below the double
    range. `_scaled_back` and `_scaled_report` read the results back."""
    lo, hi = _UNIT_RANGE
    rows = isinstance(scale, np.ndarray)
    out = (scale < lo) | (scale > hi)  # False at nan, whose k is 0 anyway
    if not (out.any() if rows else out):  # a float in range: no numpy call
        return 0, parts
    reals = (q for p in parts for q in ((p.real, p.imag) if np.iscomplexobj(p) else (p,)))
    big = functools.reduce(np.maximum, (np.abs(q) if rows else np.max(np.abs(q)) for q in reals))
    k = np.where(out, -np.frexp(big)[1], 0) if rows else -math.frexp(big)[1]  # 0 at 0, inf, nan
    if not np.any(k):
        return 0, parts
    return k, [np.ldexp(p.real, k) + 1j * np.ldexp(p.imag, k) if np.iscomplexobj(p)
               else np.ldexp(p, k) for p in parts]


def _scaled_back(value: float, k: int) -> float:
    """value * 2^-k, the inverse of `_unit_scaled`'s scaling; inf where the
    product leaves the double range."""
    try:
        return math.ldexp(value, -k)
    except OverflowError:
        return math.inf


def _scaled_report(report: ChainReport, k: int) -> ChainReport:
    """A homogeneous chain judged at its inputs times 2^k, read back: its
    terms and worst slack times 2^-k, inf where they leave the double range."""
    if not k:
        return report
    terms = tuple((name, _scaled_back(value, k)) for name, value in report.terms)
    return replace(report, terms=terms, worst_slack=_scaled_back(report.worst_slack, k))


def _stack_of_one(*values) -> list:
    """Each value as a one-element float array, for a kernel."""
    return [np.array([v], dtype=float) for v in values]


def _segment_line(er, ei, dr, di, L, r0, r1):
    """(u0, u1, h, mean) of `segment_mean_abs` for the parts of e = c - d and
    d, floats or arrays, with L = |e| and r0 = |d| <= r1 = |c|: the ends' places
    along the line, its distance from the origin, and the first two terms."""
    nr, ni = er / L, ei / L  # unit direction: u0 and h are first order in the inputs
    u0 = dr * nr + di * ni
    u1 = u0 + L  # not a second product: u1 - u0 must be L on short segments too
    mean = r1 / 2.0 + u0 * (u1 + u0) / (2.0 * (r1 + r0))
    return u0, u1, abs(nr * di - ni * dr), mean


def _segment_means(cr, ci, dr, di):
    """I(c, d) of each row of the part arrays of c and d, by the closed form
    that `segment_mean_abs` documents."""
    # rows off a branch compute values that np.where discards
    with np.errstate(all="ignore"):
        big = functools.reduce(np.maximum, map(np.abs, (cr, ci, dr, di)))  # nan if a part is
        finite = np.isfinite(big)
        # h*h and u0*(u1 + u0) below are second order in the inputs, and L/h,
        # L/den reach r1/h; rescale by a power of two (exact) so that none of
        # them can overflow or lose digits to the subnormal range. The rule
        # reads the largest part, not r1, which may itself overflow.
        k, (cr, ci, dr, di) = _unit_scaled((cr, ci, dr, di), big)
        r0, r1 = np.hypot(dr, di), np.hypot(cr, ci)
        # d is the end nearer the origin (I(c, d) = I(d, c))
        swap = r0 > r1
        cr, ci, dr, di, r0, r1 = (np.where(swap, b, a) for a, b in (
            (cr, dr), (ci, di), (dr, cr), (di, ci), (r0, r1), (r1, r0)))
        er, ei = cr - dr, ci - di
        L = np.hypot(er, ei)
        u0, u1, h, mean = _segment_line(er, ei, dr, di, L, r0, r1)
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

    Ends whose largest real or imaginary part lies in [2^-256, 2^256] take a
    one-pair route, which shares `_segment_line` with the kernel
    `_segment_means` and follows it step for step with its asinh
    (np.arcsinh), so that both give the same bits; all others (zero,
    non-finite, at unit scale) go to the kernel, 100 us on a stack of one.
    """
    c, d = complex(c), complex(d)
    if not (cmath.isfinite(c) and cmath.isfinite(d) and _UNIT_RANGE[0]
            <= max(abs(c.real), abs(c.imag), abs(d.real), abs(d.imag)) <= _UNIT_RANGE[1]):
        return float(_segment_means(*_stack_of_one(c.real, c.imag, d.real, d.imag))[0])
    r0, r1 = abs(d), abs(c)
    if r0 > r1:
        c, d, r0, r1 = d, c, r1, r0
    e = c - d
    L = abs(e)
    if L == 0.0:
        return r1
    u0, u1, h, mean = _segment_line(e.real, e.imag, d.real, d.imag, L, r0, r1)
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
    origin is no promise of 1e-10 relative accuracy. Ends whose largest part
    lies outside `_UNIT_RANGE` are summed at unit scale (`_unit_scaled`) and
    scaled back, so the sum neither overflows nor rounds on the subnormal
    grid where I(c, d) itself does not.
    """
    nodes = int(nodes)
    if nodes < 2:
        raise ValueError(f"segment_mean_abs_quadrature: need nodes >= 2, got {nodes}")
    s, w = gauss_legendre_01(nodes)
    c, d = complex(c), complex(d)
    k, (c, d) = _unit_scaled((c, d), max(abs(c.real), abs(c.imag), abs(d.real), abs(d.imag)))
    # (s + 0j)*c meets 0*inf at an infinite part of c; the modulus is inf all the same
    with np.errstate(invalid="ignore"):
        return _scaled_back(float(np.sum(w * np.abs(s * c + (1.0 - s) * d))), k)


def _finite_pair(c: complex, d: complex, who: str) -> tuple[complex, complex]:
    """c and d as complex numbers, each finite with a modulus that is too."""
    c, d = complex(c), complex(d)
    # abs() raises OverflowError where the modulus leaves the double range
    if not (cmath.isfinite(c) and cmath.isfinite(d)
            and math.isfinite(math.hypot(c.real, c.imag))
            and math.isfinite(math.hypot(d.real, d.imag))):
        raise ValueError(
            f"{who}: c and d must be finite, with moduli inside the double range, "
            f"got {c!r} and {d!r}")
    return c, d


def _triangle_parts(c, d):
    """(k, parts, |c|, |d|) of the complex arrays c, d, the parts at the
    `_unit_scaled` scale of the largest: the triangle chains are homogeneous,
    and on the subnormal grid one ulp exceeds a relative allowance."""
    parts = c.real, c.imag, d.real, d.imag
    k, parts = _unit_scaled(parts, functools.reduce(np.maximum, map(np.abs, parts)))
    return k, parts, np.hypot(parts[0], parts[1]), np.hypot(parts[2], parts[3])


def _triangle_chains(c, d, tol: float):
    """((lhs, mid, rhs), holds, worst_slack) per element of the complex
    arrays c, d: the chain of `check_triangle_refinement`."""
    k, (cr, ci, dr, di), abs_c, abs_d = _triangle_parts(c, d)
    # halve before adding, so that finite inputs near the double range stay finite
    lhs = np.hypot(cr / 2.0 + dr / 2.0, ci / 2.0 + di / 2.0)
    mid = _segment_means(cr, ci, dr, di)
    rhs = abs_c / 2.0 + abs_d / 2.0
    return _chains((lhs, mid, rhs), tol, rhs, k)


def _reverse_triangle_chains(c, d, t, tol: float):
    """((lhs, mid, rhs), holds, worst_slack) per element of the complex
    arrays c, d and weights t: the chain of `check_reverse_triangle`."""
    k, (cr, ci, dr, di), abs_c, abs_d = _triangle_parts(c, d)
    r_t = np.minimum(t, 1.0 - t)
    mean_abs = abs_c / 2.0 + abs_d / 2.0  # halved first, as in _triangle_chains
    mixed = np.hypot((1.0 - t) * cr + t * dr, (1.0 - t) * ci + t * di)
    lhs = mean_abs - ((1.0 - t) * abs_c + t * abs_d - mixed) / (2.0 * r_t)
    mid = np.hypot(cr / 2.0 + dr / 2.0, ci / 2.0 + di / 2.0)
    return _chains((lhs, mid, mean_abs), tol, mean_abs, k)


def _log_bound_chains(x, tol: float = _LOG_BOUND_REL_TOL):
    """((first, second), holds, worst_slack) per element of x: the chain of
    `check_log_bound`, bound <= log_ratio for x >= 0 and reversed below."""
    bound = 2.0 * x / (x * x + 1.0)
    log_ratio = np.log1p(x) - np.log1p(-x)
    up = x >= 0.0
    terms = np.where(up, bound, log_ratio), np.where(up, log_ratio, bound)
    return _chains(terms, tol, np.abs(log_ratio))


def check_triangle_refinement(c: complex, d: complex, tol: float = SCALAR_REL_TOL) -> ChainReport:
    """Check |c+d|/2 <= I(c, d) <= (|c|+|d|)/2: terms lhs, mid, rhs. A link
    fails below -tol*(|c|+|d|)/2: `tol` is relative to the chain's scale.

    The one-pair route of the kernel `_triangle_chains`, step for step, so
    that both give the same bits; the kernel on a stack of one costs about
    200 us in numpy calls."""
    c, d = _finite_pair(c, d, "check_triangle_refinement")
    k, (c, d) = _unit_scaled((c, d), max(abs(c.real), abs(c.imag), abs(d.real), abs(d.imag)))
    if k:  # the chain is homogeneous: judge it at unit scale and read it back
        return _scaled_report(check_triangle_refinement(c, d, tol), k)
    # halve before adding, so that finite inputs near the double range stay finite
    lhs = abs(c / 2.0 + d / 2.0)
    mid = segment_mean_abs(c, d)
    rhs = abs(c) / 2.0 + abs(d) / 2.0
    return _report(("lhs", "mid", "rhs"), *_chains((lhs, mid, rhs), tol, rhs))


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


def _sin_cos(theta, lib):
    """(sin, cos) of theta reduced mod pi (fmod, then + pi below 0), by `lib`:
    math for a float, numpy for an array. No branch, so one expression serves
    both; np.remainder (theta % pi) costs twice np.fmod on the grids."""
    r = lib.fmod(theta, math.pi)
    th = r + math.pi * (r < 0.0)
    return lib.sin(th), lib.cos(th)


def _log_ratio(s, c, lib):
    """log((1+s)/(1-s)) = 2*log((1+s)/|c|) for s = sin(theta) in [0, 1),
    c = cos(theta), read as 2*log1p(s*(1 + s/(1+|c|))/|c|) by
    1 - |c| = s^2/(1+|c|): a sum of positive terms, which cancels nowhere."""
    a = lib.fabs(c)
    return 2.0 * lib.log1p(s * (1.0 + s / (1.0 + a)) / a)


def _mu_of(s, c, lib):
    """`mu` from s = sin(theta) != 0 and c = cos(theta)."""
    return 0.25 * (2.0 + c * c * (_log_ratio(s, c, lib) / s))


def _gamma_of(t, s, c, lib):
    """`gamma` from t, s = sin(theta) and c = cos(theta), before its clip at 1."""
    u = lib.fabs(1.0 - 2.0 * t)
    root = lib.sqrt(c * c + u * u * s * s)
    return c * c * (1.0 + u) / (root + u)


# The guarded forms of mu and gamma, which every route takes: floats or arrays
# of s = sin(theta) and c = cos(theta). Where c*c underflows to 0 (|c| below
# 2^-537), mu's log ratio may overflow (0*inf) and gamma reads 0/0 at t = 1/2;
# there mu = 1/2 and gamma = 0, each within 2^-537 of its value.


def _mu_at(s, c, lib=np):
    """`mu` at (s, c): 1 where s = 0, 1/2 where c*c = 0. A float takes `lib`'s
    log1p; numpy's gives it an array's bits."""
    if isinstance(c, np.ndarray):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # discarded rows
            return np.where(s == 0.0, 1.0, np.where(c * c == 0.0, 0.5, _mu_of(s, c, np)))
    return 1.0 if s == 0.0 else 0.5 if c * c == 0.0 else float(_mu_of(s, c, lib))


def _gamma_at(t, s, c):
    """`gamma` at the weight t and (s, c), clipped at 1 so that its range is
    [0, 1] also under rounding: 0 where c*c = 0."""
    if isinstance(c, np.ndarray) or isinstance(t, np.ndarray):
        with np.errstate(invalid="ignore"):  # 0/0 on the rows of c*c == 0 at t = 1/2
            return np.where(c * c == 0.0, 0.0, np.minimum(1.0, _gamma_of(t, s, c, np)))
    return 0.0 if c * c == 0.0 else min(1.0, _gamma_of(t, s, c, math))


def _finite_array(value, who: str, name: str) -> np.ndarray:
    """value as a float array, every element of it finite."""
    value = np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
        raise ValueError(f"{who}: every {name} must be finite")
    return value


def mu(theta):
    """Refinement factor mu(theta) = (2 + cos(t)*cot(t)*log((1+sin t)/(1-sin t)))/4.

    Equals I(e^{i*theta}, e^{-i*theta}); pi-periodic, decreasing on
    [0, pi/2], increasing on [pi/2, pi], with range [1/2, 1]. Read as
    (2 + cos^2(t) * (log ratio)/sin(t))/4, finite at every double, with
    mu(0) = mu(pi) = 1 (the limit, where sin is 0) and mu(pi/2) = 1/2. An
    ndarray theta gives the array of values, by the numpy route.
    """
    if isinstance(theta, np.ndarray):
        return _mu_at(*_sin_cos(_finite_array(theta, "mu", "theta"), np))
    if not math.isfinite(theta):
        raise ValueError(f"mu: theta must be finite, got {theta!r}")
    return _mu_at(*_sin_cos(theta, math), math)


def _nus_over_sin2(theta):
    """(sin(theta), nu(theta)/sin^2(theta)) per element of the array theta
    in (0, pi). Below sin = 1/4 the series -16 * sum_k k*sin^(2k-1)/(4k^2-1),
    whose terms share one sign (so nu <= 0 under rounding too); above it the
    closed form, where 4*sin and the log term differ by over 7%."""
    s = np.sin(theta)
    ss = s * s
    series = -s * np.polyval(_NU_SERIES, ss)  # Horner
    with np.errstate(divide="ignore", invalid="ignore"):  # rows of the series
        closed = (4.0 * s - 2.0 * (ss + 1.0) * _log_ratio(s, np.cos(theta), np)) / ss
    return s, np.where(s < 0.25, series, closed)


def _nus(theta) -> np.ndarray:
    """`nu` of each element of the array theta, all in (0, pi)."""
    s, q = _nus_over_sin2(theta)
    return s * (s * q)


def _mu_derivatives(theta) -> np.ndarray:
    """`mu_derivative` of each element of the array theta, all in (0, pi)."""
    return np.cos(theta) / 8.0 * _nus_over_sin2(theta)[1]


def nu(theta: float) -> float:
    """nu(theta) = 4*sin(t) - 2*(sin^2(t) + 1)*log((1+sin t)/(1-sin t)).

    Defined on (0, pi) away from pi/2, where it tends to -inf; nonpositive
    everywhere there, which is what pins down the monotonicity of mu. No
    double equals pi/2, and `_nus_over_sin2` reads it without cancellation,
    so nu is finite and nonpositive at every double in (0, pi).
    """
    if not (math.isfinite(theta) and 0.0 < theta < math.pi):
        raise ValueError(f"nu: theta must lie in (0, pi), got {theta!r}")
    return float(_nus(*_stack_of_one(theta))[0])


def mu_derivative(theta: float) -> float:
    """d(mu)/d(theta) = cos(t)/(8*sin^2(t)) * nu(t) on (0, pi).

    Nonpositive on (0, pi/2], nonnegative on [pi/2, pi). Read as
    cos(t)/8 * (nu/sin^2)(t), which is finite at every double in (0, pi):
    it tends to 0 at both ends and, as 0*inf, at pi/2.
    """
    if not (math.isfinite(theta) and 0.0 < theta < math.pi):
        raise ValueError(f"mu_derivative: theta must lie in (0, pi), got {theta!r}")
    return float(_mu_derivatives(*_stack_of_one(theta))[0])


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
        t = _finite_array(t, "gamma", "t")
        if not ((t > 0.0) & (t < 1.0)).all():
            raise ValueError("gamma: every t must lie strictly in (0, 1)")
        return _gamma_at(t, *_sin_cos(_finite_array(theta, "gamma", "theta"), np))
    if not (math.isfinite(t) and 0.0 < t < 1.0):
        raise ValueError(f"gamma: t must lie strictly in (0, 1), got {t!r}")
    if not math.isfinite(theta):
        raise ValueError(f"gamma: theta must be finite, got {theta!r}")
    return _gamma_at(t, *_sin_cos(theta, math))
