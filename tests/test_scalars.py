import math
import sys
import types

import numpy as np
import pytest

from opineq import scalars
from opineq.scalars import (
    check_log_bound,
    check_reverse_triangle,
    check_triangle_refinement,
    gamma,
    mu,
    mu_derivative,
    nu,
    segment_mean_abs,
    segment_mean_abs_quadrature,
)

# reference values computed once with mpmath at 50 digits
MU_1 = 0.712697647050107377496249
MU_PI_4 = 0.81161262007011525669701
MU_PI_3 = 0.6900864990752365868827736
MU_0_3 = 0.9703607996894412205258408
NU_1 = -5.011814239599940633715144
MU_PRIME_0_8 = -0.43938881067388565983786
MU_PRIME_2_0 = 0.4715448229833965349288586
# nu and mu' at the double nearest pi/2, where both are finite
NU_HALF_PI = -300.2000269906309444934594
MU_PRIME_HALF_PI = -2.297743763487657605904262e-15
SEG_3_4__1_M2 = 2.688107285858487865772186
SEG_2_1__M1_3 = 2.282218335961027686141377
GAMMA_03_PI3 = 0.3471270883830366148332807


def random_disk_pairs(rng, count, radius=10.0):
    r = radius * np.sqrt(rng.uniform(size=(count, 2)))
    ph = rng.uniform(0.0, 2.0 * np.pi, size=(count, 2))
    z = r * np.exp(1j * ph)
    return z[:, 0], z[:, 1]


# --- segment_mean_abs --------------------------------------------------------


def test_segment_equal_endpoints_is_modulus():
    for z in (0j, 1 + 0j, 3 - 4j, -2.5 + 0.1j):
        assert segment_mean_abs(z, z) == abs(z)


def test_segment_through_origin():
    # integral of |2s - 1| over [0,1] = 1/2
    assert segment_mean_abs(1, -1) == pytest.approx(0.5, abs=1e-15)
    # endpoint at the origin: integral of s over [0,1]
    assert segment_mean_abs(1, 0) == pytest.approx(0.5, abs=1e-15)
    assert segment_mean_abs(0, 2j) == pytest.approx(1.0, abs=1e-15)


def test_segment_matches_mu_on_conjugate_exponentials():
    theta = 1.0
    val = segment_mean_abs(np.exp(1j * theta), np.exp(-1j * theta))
    assert val == pytest.approx(MU_1, rel=1e-14)
    assert val == pytest.approx(mu(theta), rel=1e-13)


def test_segment_frozen_values():
    assert segment_mean_abs(3 + 4j, 1 - 2j) == pytest.approx(SEG_3_4__1_M2, rel=1e-13)
    assert segment_mean_abs(2 + 1j, -1 + 3j) == pytest.approx(SEG_2_1__M1_3, rel=1e-13)


def test_segment_agrees_with_quadrature_oracle():
    assert segment_mean_abs(3 + 4j, 1 - 2j) == pytest.approx(
        segment_mean_abs_quadrature(3 + 4j, 1 - 2j, 64), rel=1e-12
    )


def test_segment_symmetry_and_scaling():
    rng = np.random.default_rng(42)
    cs, ds = random_disk_pairs(rng, 2000)
    lams = rng.uniform(0.1, 5.0, size=2000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2000))
    for c, d, lam in zip(cs, ds, lams):
        c, d, lam = complex(c), complex(d), complex(lam)
        ref = segment_mean_abs(c, d)
        scale = max(abs(c), abs(d), 1.0)
        assert abs(segment_mean_abs(d, c) - ref) <= 5e-14 * scale
        assert abs(segment_mean_abs(lam * c, lam * d) - abs(lam) * ref) <= 5e-13 * scale


def test_segment_extreme_magnitudes():
    # second-order intermediates must neither overflow nor flush to zero
    for scale in (1e300, 1e-300, 1e160, 1e-160, 1e100, 1e-100, 1e75):
        ref = segment_mean_abs(3 + 4j, 1 - 2j)
        val = segment_mean_abs(scale * (3 + 4j), scale * (1 - 2j))
        assert math.isfinite(val)
        assert val == pytest.approx(scale * ref, rel=1e-12)
    rep = check_triangle_refinement(1e300 + 1e299j, -3e299 + 0j)
    assert rep.holds
    # non-finite inputs propagate instead of raising
    assert segment_mean_abs(complex(math.inf, 0.0), 1.0) == math.inf
    assert math.isnan(segment_mean_abs(complex(math.nan, 0.0), 1.0))
    # also where the other end's modulus overflows, though its parts are finite
    big = complex(1.5e308, 1.5e308)
    assert math.isnan(segment_mean_abs(big, math.nan))
    assert math.isnan(segment_mean_abs(math.nan, big))
    assert segment_mean_abs(big, complex(math.inf, 0.0)) == math.inf
    # and the quadrature, where the nodes meet an infinite part as 0*inf
    assert segment_mean_abs_quadrature(complex(math.inf, 1.0), 0.0, 8) == math.inf


def _segment_mean_abs_mpmath(c, d):
    """40-digit oracle for I(c, d): rescaled by a power of two (mpmath.quad's
    tolerance is absolute) and split at the point nearest the origin."""
    mpmath = pytest.importorskip("mpmath")
    big = max(abs(c.real), abs(c.imag), abs(d.real), abs(d.imag))
    if big == 0.0:
        return 0.0
    k = -math.frexp(big)[1]
    with mpmath.workdps(40):
        C = mpmath.mpc(math.ldexp(c.real, k), math.ldexp(c.imag, k))
        D = mpmath.mpc(math.ldexp(d.real, k), math.ldexp(d.imag, k))
        E = C - D
        if E == 0:
            return math.ldexp(float(abs(C)), -k)
        s0 = -mpmath.re(mpmath.conj(D) * E) / abs(E) ** 2
        knots = [0, s0, 1] if 0 < s0 < 1 else [0, 1]
        value = mpmath.quad(lambda s: abs(s * C + (1 - s) * D), knots)
        return math.ldexp(float(value), -k)


def _adversarial_segments(rng, count):
    """`count` pairs in each regime the harness's uniform disk never draws."""
    def unit(size=None):
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))

    pairs = list(zip(*random_disk_pairs(rng, count)))
    # short segments, separations 1e-15 to 1e-1 relative to |c|
    c = 10.0 * np.sqrt(rng.uniform(size=count)) * unit(count)
    pairs += zip(c, c + abs(c) * 10.0 ** rng.uniform(-15, -1, count) * unit(count))
    # short segments nearly perpendicular to d, whose nearest point lies on them
    d = 3.0 * unit(count)
    t = 10.0 ** rng.uniform(-15, -1, count)
    step = 1j * d / 3.0 * np.exp(1j * t * rng.uniform(-0.1, 0.1, count))
    pairs += zip(d + t * step, d - rng.uniform(size=count) * t * step)
    # nearly collinear with the origin, on opposite sides, or one end near it
    tiny = 10.0 ** rng.uniform(-300, -1, count) * unit(count)
    pairs += zip(c, -rng.uniform(0.01, 3.0, count) * c + tiny)
    pairs += zip(c, tiny)
    # scales of 1e+-200 and 1e+-300
    cs, ds = random_disk_pairs(rng, count)
    scale = 10.0 ** rng.choice([200.0, -200.0, 300.0, -300.0], count) * rng.uniform(0.1, 1.0, count)
    pairs += zip(cs * scale, ds * scale)
    # parts of independent magnitude 1e-320 to 1e300: an end far nearer the
    # origin than the other, beyond the reach of the power-of-two rescale
    parts = rng.choice([-1.0, 1.0], (4, count)) * 10.0 ** rng.uniform(-320, 300, (4, count))
    pairs += zip(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3])
    # segments shorter than an ulp of |c|, parallel to an axis, down to subnormal lengths
    a = rng.uniform(0.1, 10.0, count)
    t1 = 10.0 ** rng.uniform(-320, -1, count)
    t2 = t1 + 10.0 ** rng.uniform(-320, -1, count)
    pairs += zip(a + 1j * t2, a + 1j * t1 * rng.choice([-1.0, 1.0], count))
    return [(complex(c), complex(d)) for c, d in pairs]


def test_segment_matches_mpmath_in_adversarial_regimes():
    rng = np.random.default_rng(20261018)
    pairs = _adversarial_segments(rng, 40) + [
        (3 + 1j, 3.0000000000000004 + 1j),  # the short segment of the CLI reproducer
        (8.67896231486478 + 2.1470488990613632e-150j, 8.67896231486478 + 8.39616897446875e-299j),
        (1e150 + 0j, -1e150 + 1e-200j),
        (5e-324 + 0j, 0j),  # subnormal endpoints
        (1e-310 + 0j, 1e-310j),
        # h^2/(2L) beyond the double range: short segments perpendicular to the radius
        (1e140 + 1e-30j, 1e140 + 0j),
        # largest part in (2^256, 1e140]: a one-pair route once, now at unit scale
        (1e100 + 1e-100j, 1e100 + 0j),
        (8 + 1e-310j, 8 + 0j),
        (1e100 + 1e-250j, 1e100 + 0j),
        (1e200 + 1e-120j, 1e200 + 0j),
        # a tiny end against a huge one, where h read off the far end would swamp it
        (1.828444637579534e-158 + 5.383955349082164e-192j, 4.749078897505698e213 + 2.6181247209794836e284j),
        # finite parts whose modulus |c| leaves the double range, though I does not
        (1.5e308 + 1.5e308j, 0j),
    ]
    for c, d in pairs:
        ref = _segment_mean_abs_mpmath(c, d)
        assert abs(segment_mean_abs(c, d) - ref) <= 1e-14 * ref, (c, d, ref)


def test_segment_kernels_give_the_one_pair_routes_bits():
    # 6,000 adversarial pairs as one array, against the public functions
    rng = np.random.default_rng(20261019)
    pairs = _adversarial_segments(rng, 750)
    c = np.array([p[0] for p in pairs])
    d = np.array([p[1] for p in pairs])
    means = scalars._segment_means(c.real, c.imag, d.real, d.imag)
    assert means.tolist() == [segment_mean_abs(*p) for p in pairs]
    terms, holds, worst = scalars._triangle_chains(c, d, scalars.SCALAR_REL_TOL)
    for i, p in enumerate(pairs):
        rep = check_triangle_refinement(*p)
        assert rep.terms == tuple(zip(("lhs", "mid", "rhs"), (float(t[i]) for t in terms)))
        assert (rep.holds, rep.worst_slack) == (bool(holds[i]), float(worst[i]))


def test_triangle_chain_has_no_link_below_its_tolerance_under_search():
    # a fixed-seed Nelder-Mead search for the smallest relative slack over
    # d = c + e*10^s, short segments included
    optimize = pytest.importorskip("scipy.optimize")
    tol = scalars.SCALAR_REL_TOL

    def relative_slack(p):
        c = complex(p[0], p[1])
        d = c + complex(p[2], p[3]) * 10.0 ** min(0.0, max(-16.0, p[4]))
        rep = check_triangle_refinement(c, d, tol)
        rhs = rep.terms[2][1]
        return rep.worst_slack / rhs if rhs else 0.0

    rng = np.random.default_rng(41)
    found = []
    for _ in range(12):
        start = np.concatenate([rng.uniform(-10.0, 10.0, 4), rng.uniform(-16.0, 0.0, 1)])
        result = optimize.minimize(relative_slack, start, method="Nelder-Mead",
                                   options={"maxfev": 1500, "xatol": 1e-14, "fatol": 1e-18})
        found.append(result.fun)
    assert min(found) >= -tol
    assert min(found) <= 1e-12  # the search reaches the chain's tight cases


def test_segment_bounds_sweep():
    rng = np.random.default_rng(7)
    cs, ds = random_disk_pairs(rng, 10_000)
    for c, d in zip(cs, ds):
        rep = check_triangle_refinement(complex(c), complex(d))
        assert rep.holds, (c, d, rep)


def _segment_min_modulus(c, d):
    alpha = abs(c - d) ** 2
    if alpha == 0.0:
        return abs(c)
    s0 = min(1.0, max(0.0, -2.0 * (d.conjugate() * (c - d)).real / (2.0 * alpha)))
    return abs(s0 * c + (1.0 - s0) * d)


def test_quadrature_agreement_everywhere_at_kink_tolerance():
    # the fixed 64-node rule saturates at ~2e-4 relative error when the
    # segment passes through the origin; 1e-3 holds for every pair
    rng = np.random.default_rng(3)
    cs, ds = random_disk_pairs(rng, 3000)
    cs[0], ds[0] = 1.0, -1.0  # exact kink
    for c, d in zip(cs, ds):
        c, d = complex(c), complex(d)
        closed = segment_mean_abs(c, d)
        approx = segment_mean_abs_quadrature(c, d, 64)
        assert abs(closed - approx) <= 1e-3 * max(closed, 1e-30)


def test_quadrature_agreement_tight_for_separated_segments():
    # 1e-10 relative agreement needs the origin at a distance comparable to
    # the segment length (branch point far from the contour); here >= 0.25
    rng = np.random.default_rng(4)
    cs, ds = random_disk_pairs(rng, 3000)
    checked = 0
    for c, d in zip(cs, ds):
        c, d = complex(c), complex(d)
        if _segment_min_modulus(c, d) < 0.25 * max(abs(c - d), 1e-30):
            continue
        checked += 1
        closed = segment_mean_abs(c, d)
        approx = segment_mean_abs_quadrature(c, d, 64)
        assert abs(closed - approx) <= 1e-11 * closed
    assert checked > 1000


def test_quadrature_is_homogeneous_across_the_double_range():
    # summed at unit scale, so neither overflow nor the subnormal grid shows;
    # the closed form and both triangle chains take the same unit scale, so
    # each reads back exactly, on the huge side (2^256 and up) as on the tiny
    c, d = 3 + 4j, 1 - 2j
    ref = segment_mean_abs_quadrature(c, d, 16)
    mean = segment_mean_abs(c, d)
    chains = {check_triangle_refinement: (), check_reverse_triangle: (0.3,)}
    reports = {check: check(c, d, *args) for check, args in chains.items()}
    for k in range(-1072, 1022):
        ck, dk = math.ldexp(1.0, k) * c, math.ldexp(1.0, k) * d
        assert segment_mean_abs_quadrature(ck, dk, 16) == math.ldexp(ref, k)
        assert segment_mean_abs(ck, dk) == math.ldexp(mean, k)
        for check, args in chains.items():
            rep, rep_k = reports[check], check(ck, dk, *args)
            assert rep_k.terms == tuple((n, math.ldexp(v, k)) for n, v in rep.terms), (check, k)
            assert (rep_k.holds, rep_k.worst_slack) == (rep.holds, math.ldexp(rep.worst_slack, k))


def test_quadrature_validates_node_count():
    assert segment_mean_abs_quadrature(2 + 0j, 2 + 0j, 16) == pytest.approx(2.0, abs=1e-14)
    assert segment_mean_abs_quadrature(1, -1, 64) == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(ValueError):
        segment_mean_abs_quadrature(1, 1j, 1)


# --- chain reports -----------------------------------------------------------


def test_triangle_chain_equality_case():
    rep = check_triangle_refinement(1, 1)
    assert rep.terms == (("lhs", 1.0), ("mid", 1.0), ("rhs", 1.0))
    assert rep.holds


def test_triangle_chain_antipodal():
    rep = check_triangle_refinement(1, -1)
    (_, lhs), (_, mid), (_, rhs) = rep.terms
    assert lhs == 0.0
    assert mid == pytest.approx(0.5, abs=1e-15)
    assert rhs == 1.0
    assert rep.holds


def test_reverse_triangle_equal_scalars():
    rep = check_reverse_triangle(1, 1, 0.3)
    (_, lhs), (_, mid), _ = rep.terms
    assert lhs == pytest.approx(1.0, abs=1e-14)
    assert mid == 1.0
    assert rep.holds


def test_reverse_triangle_antipodal_half():
    rep = check_reverse_triangle(1, -1, 0.5)
    (_, lhs), (_, mid), _ = rep.terms
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert mid == 0.0
    assert rep.holds


def test_reverse_triangle_sweep():
    rng = np.random.default_rng(11)
    cs, ds = random_disk_pairs(rng, 10_000)
    ts = rng.uniform(0.02, 0.98, size=10_000)
    for c, d, t in zip(cs, ds, ts):
        rep = check_reverse_triangle(complex(c), complex(d), float(t))
        assert rep.holds, (c, d, t, rep)


@pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.7, float("nan")])
def test_reverse_triangle_rejects_bad_weight(t):
    with pytest.raises(ValueError):
        check_reverse_triangle(1, 2j, t)


def test_scalar_checks_reject_non_finite_input():
    # a NaN slack would carry no verdict; segment_mean_abs itself propagates
    for c, d in [(math.nan, 1), (1, complex(0.0, math.inf)), (-math.inf, 0)]:
        with pytest.raises(ValueError, match="finite"):
            check_triangle_refinement(c, d)
        with pytest.raises(ValueError, match="finite"):
            check_reverse_triangle(c, d, 0.3)


def test_scalar_checks_reject_a_modulus_beyond_the_double_range():
    # finite parts whose modulus overflows: abs() would raise OverflowError
    huge = complex(1.5e308, 1.5e308)
    for c, d in [(huge, huge), (1.0, huge), (complex(-1.5e308, 1.5e308), 0.0)]:
        with pytest.raises(ValueError, match="double range"):
            check_triangle_refinement(c, d)
        with pytest.raises(ValueError, match="double range"):
            check_reverse_triangle(c, d, 0.3)
    # the largest finite modulus is still accepted
    assert check_triangle_refinement(complex(1.2e308, 1.2e308), 0.0).holds


def test_scalar_checks_stay_finite_near_the_double_range():
    # |c + d| and |c| + |d| overflow here, though every term of the chain is finite
    big = complex(1e308, 1e308)
    for report in (check_triangle_refinement(big, big),
                   check_reverse_triangle(big, big, 0.3),
                   check_triangle_refinement(big, 1e308 - 1e308j)):
        values = [value for _, value in report.terms]
        assert all(math.isfinite(v) for v in values), report
        assert report.holds and math.isfinite(report.worst_slack)
    assert check_triangle_refinement(big, big).terms[0][1] == abs(big)


# --- log bound ---------------------------------------------------------------


def test_log_bound_zero_is_equality():
    rep = check_log_bound(0.0)
    assert rep.holds and rep.worst_slack == 0.0


def test_log_bound_positive_and_negative():
    # 2*0.9/1.81 = 0.9945 <= log(19) = 2.9444
    rep = check_log_bound(0.9)
    assert rep.holds
    assert [name for name, _ in rep.terms] == ["bound", "log_ratio"]
    assert rep.worst_slack == pytest.approx(math.log(19.0) - 1.8 / 1.81, rel=1e-15)
    # reversed on -1 < x < 0
    rep = check_log_bound(-0.5)
    assert rep.holds
    assert [name for name, _ in rep.terms] == ["log_ratio", "bound"]


def test_log_bound_grid():
    for x in np.linspace(-0.9999, 0.9999, 10_000):
        assert check_log_bound(float(x)).holds


@pytest.mark.parametrize("x", [1.0, -1.0, 1.5, float("inf"), float("nan")])
def test_log_bound_rejects_out_of_domain(x):
    with pytest.raises(ValueError):
        check_log_bound(x)


# --- scale-relative tolerances -------------------------------------------------
#
# The chains are homogeneous, so a check's verdict may not depend on the scale
# of its input: a defect of one part in 1e6 (1e7 for the log bound) fails at
# every scale, and no absolute floor may swamp it on small inputs.


def test_triangle_verdict_does_not_depend_on_the_scale(monkeypatch):
    # 3s and 2s are exact from the smallest subnormal scale to the largest finite
    scales = [2.0**k for k in range(-1073, 1023)]
    assert all(check_triangle_refinement(3 * s, 2 * s).holds for s in scales)
    assert all(check_reverse_triangle(3 * s, 2j * s, 0.3).holds for s in scales)
    exact = scalars.segment_mean_abs
    monkeypatch.setattr(scalars, "segment_mean_abs", lambda c, d: exact(c, d) * (1.0 + 1e-6))
    assert not any(check_triangle_refinement(3 * s, 2 * s).holds for s in scales)


@pytest.mark.parametrize("c, d", [(5e-324, 5e-324j), (1.5e-323, 1.5e-323j), (1e-320, -3e-321 + 5e-324j)])
def test_triangle_chains_hold_on_subnormal_ends(c, d):
    # the terms would round on the subnormal grid, where a relative allowance
    # is below one ulp; the checks judge them at a normal scale instead
    assert check_triangle_refinement(c, d).holds
    assert check_reverse_triangle(c, d, 0.3).holds


def test_log_bound_fails_a_wrong_term_near_zero(monkeypatch):
    # at x = 1e-6 the margin is 8x^3/3 = 2.7e-18, against terms of 2e-6
    assert check_log_bound(1e-6).holds and check_log_bound(-1e-6).holds
    wrong = types.SimpleNamespace(**vars(np))
    wrong.log1p = lambda v: np.log1p(v) * (1.0 - 1e-7)
    monkeypatch.setattr(scalars, "np", wrong)
    assert not check_log_bound(1e-6).holds
    assert not check_log_bound(-1e-6).holds


# --- mu ----------------------------------------------------------------------


def test_mu_branch_values():
    assert mu(0.0) == 1.0
    assert mu(math.pi) == 1.0
    assert mu(math.pi / 2.0) == 0.5
    assert mu(1e-9) == 1.0  # 1 - 1e-18/3, rounded
    # the correctly rounded 1,600-bit value, one ulp above 1/2
    assert mu(math.pi / 2.0 + 3e-9) == 0.5000000000000001


def test_mu_near_zero_limit():
    assert 1.0 - 1e-5 <= mu(1e-6) <= 1.0


def test_mu_frozen_values():
    assert mu(1.0) == pytest.approx(MU_1, rel=1e-15)
    assert mu(math.pi / 4.0) == pytest.approx(MU_PI_4, rel=1e-15)
    assert mu(math.pi / 3.0) == pytest.approx(MU_PI_3, rel=1e-15)
    assert mu(0.3) == pytest.approx(MU_0_3, rel=1e-15)


def test_mu_matches_segment_average_on_grid():
    for theta in np.linspace(0.0, math.pi, 1002)[1:-1]:
        seg = segment_mean_abs(np.exp(1j * theta), np.exp(-1j * theta))
        assert abs(mu(float(theta)) - seg) <= 1e-12


def test_mu_pi_periodic_and_even():
    for theta in (0.3, 1.0, 2.5, 7.9):
        assert mu(theta + math.pi) == pytest.approx(mu(theta), abs=1e-14)
        assert mu(-theta) == pytest.approx(mu(theta), abs=1e-14)
    # the array route, within 1e-14 of the float route's value
    thetas = np.array([0.3, 1.0, 2.5, 7.9, 1e300])
    angles = np.concatenate([thetas, -thetas, thetas + 3.0 * math.pi, thetas - 3.0 * math.pi])
    assert mu(angles) == pytest.approx([mu(float(theta)) for theta in angles], abs=1e-14)


def test_mu_range_and_monotonicity_grid():
    n = 10_000
    thetas = np.arange(1, n + 1) * (math.pi / (n + 1))
    vals = np.array([mu(float(t)) for t in thetas])
    assert vals.min() >= 0.5
    assert vals.max() <= 1.0
    diffs = np.diff(vals)
    left = thetas[1:] <= math.pi / 2.0
    right = thetas[:-1] >= math.pi / 2.0
    assert diffs[left].max() <= 1e-12
    assert diffs[right].min() >= -1e-12


def test_mu_matches_quadrature_at_pi_4():
    approx = segment_mean_abs_quadrature(
        np.exp(1j * math.pi / 4.0), np.exp(-1j * math.pi / 4.0), 64
    )
    assert mu(math.pi / 4.0) == pytest.approx(approx, abs=1e-12)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_mu_rejects_nonfinite(theta):
    with pytest.raises(ValueError):
        mu(theta)


def _mu_gamma_strategies():
    st = pytest.importorskip("hypothesis.strategies")
    near = st.floats(1e-12, 1e-2)
    thetas = st.one_of(
        st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
        near,
        near.map(lambda e: math.pi / 2.0 - e),
        near.map(lambda e: math.pi / 2.0 + e),
        near.map(lambda e: math.pi - e),
    )
    return thetas, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def test_mu_and_gamma_match_mpmath_on_both_routes():
    # the float (math) route and the array (numpy) route, each within 1e-14
    # relative of a high-precision value, and of each other
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    thetas, ts = _mu_gamma_strategies()

    def close(value, ref):
        return abs(value - ref) <= 1e-14 * abs(ref)

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(theta=thetas, t=ts)
    def check(theta, t):
        # 1,600 bits hold 1 - 2t and the cancellation in gamma's definition
        # for every double t in (0, 1)
        with mpmath.workprec(1600):
            th, tt = mpmath.mpf(theta), mpmath.mpf(t)
            s, c = mpmath.sin(th), mpmath.cos(th)
            ref_mu = (2 + c * c / s * mpmath.log((1 + s) / (1 - s))) / 4
            root = mpmath.sqrt(c * c + (2 * tt - 1) ** 2 * s * s)
            ref_gamma = 1 - (1 - root) / (2 * min(tt, 1 - tt))
        ref_mu, ref_gamma = float(ref_mu), float(ref_gamma)
        values = (mu(theta), float(mu(np.array([theta]))[0]))
        assert all(close(v, ref_mu) for v in values), (theta, values, ref_mu)
        assert close(values[1], values[0])
        values = (gamma(t, theta), float(gamma(np.array([t]), np.array([theta]))[0]))
        assert all(close(v, ref_gamma) for v in values), (t, theta, values, ref_gamma)
        assert close(values[1], values[0])

    check()


@pytest.mark.parametrize("c", [0.0, 1e-320, 1e-200, 1e-160, 6e-17])
def test_mu_and_gamma_at_nearly_orthogonal_cosines(c):
    # c*c underflows to 0 below 2^-537: the limits 1/2 and 0 there, not the
    # 0*inf of an overflowed log ratio or the 0/0 of gamma at t = 1/2; both
    # routes agree
    s = math.sqrt((1.0 - c) * (1.0 + c))
    arrays = np.array([s]), np.array([c])
    assert scalars._mu_at(s, c) == scalars._mu_at(s, c, math) == scalars._mu_at(*arrays)[0]
    assert scalars._mu_at(s, c) == 0.5
    for t in (0.3, 0.5):
        g = scalars._gamma_at(t, s, c)
        assert g == scalars._gamma_at(t, *arrays)[0] == scalars._gamma_at(np.array([t]), s, c)[0]
        assert 0.0 <= g <= 2.0 * c


# --- nu and mu' --------------------------------------------------------------


def test_nu_frozen_value():
    assert nu(1.0) == pytest.approx(NU_1, rel=1e-13)


def test_nu_and_mu_derivative_match_mpmath_near_the_ends():
    # nu ~ -16/3 sin^3 and mu' ~ -2/3 sin near 0 (and near pi, with mu' > 0):
    # each within 1e-14 relative of a high-precision value wherever it is a
    # normal double, and nu never positive, subnormal or not
    mpmath = pytest.importorskip("mpmath")
    normal = 0
    # the second range keeps pi - delta off pi itself
    for delta in np.concatenate([np.geomspace(1e-300, 0.5, 120), np.geomspace(1e-15, 0.5, 40)]):
        for theta in (float(delta), math.pi - float(delta)):
            if not 0.0 < theta < math.pi:
                continue  # pi - delta rounds to pi
            # 1,600 bits, plus 3*log2(1/sin): nu ~ sin^3 lies that far below 1 + sin
            with mpmath.workprec(1600 + 3 * max(0, -math.frexp(math.sin(theta))[1])):
                t = mpmath.mpf(theta)
                s = mpmath.sin(t)
                ref_nu = 4 * s - 2 * (s * s + 1) * mpmath.log((1 + s) / (1 - s))
                ref_prime = mpmath.cos(t) / (8 * s * s) * ref_nu
            value = nu(theta)
            assert value <= 0.0, theta
            for value, ref in ((value, ref_nu), (mu_derivative(theta), ref_prime)):
                if abs(value) >= sys.float_info.min:
                    normal += 1
                    assert abs(value - ref) <= 1e-14 * abs(ref), (theta, value, ref)
    assert normal >= 300


def test_nu_nonpositive():
    assert nu(math.pi / 4.0) < 0.0
    for theta in np.linspace(0.01, math.pi - 0.01, 3000):
        if abs(1.0 - math.sin(float(theta))) < 1e-12:
            continue
        assert nu(float(theta)) <= 1e-15


def test_nu_rejects_out_of_domain():
    for theta in (0.0, math.pi, -0.5, 4.0):
        with pytest.raises(ValueError):
            nu(theta)
    assert nu(math.pi / 2.0) == pytest.approx(NU_HALF_PI, rel=1e-14)


def test_mu_derivative_frozen_and_signs():
    assert mu_derivative(math.pi / 2.0) == pytest.approx(MU_PRIME_HALF_PI, rel=1e-14)
    assert mu_derivative(0.8) == pytest.approx(MU_PRIME_0_8, rel=1e-13)
    assert mu_derivative(2.0) == pytest.approx(MU_PRIME_2_0, rel=1e-13)
    assert mu_derivative(math.pi / 4.0) < 0.0
    assert mu_derivative(3.0 * math.pi / 4.0) > 0.0


def test_mu_derivative_matches_finite_differences():
    h = 1e-6
    grid = np.concatenate([
        np.linspace(0.01, math.pi / 2.0 - 0.01, 500),
        np.linspace(math.pi / 2.0 + 0.01, math.pi - 0.01, 500),
    ])
    for theta in grid:
        theta = float(theta)
        analytic = mu_derivative(theta)
        fd = (mu(theta + h) - mu(theta - h)) / (2.0 * h)
        assert abs(analytic - fd) <= 1e-6 * abs(analytic)


def test_nu_and_mu_derivative_match_mpmath_near_half_pi():
    # the log term of both is singular at pi/2, and mu' is a 0*inf product
    # there; every double in the band has a finite value, checked to 1e-14
    mpmath = pytest.importorskip("mpmath")
    for delta in np.geomspace(1e-16, 0.1, 2000):
        for theta in (math.pi / 2.0 - delta, math.pi / 2.0 + delta):
            with mpmath.workdps(80):  # 1 - sin(theta) keeps 45 digits at delta = 1e-16
                t = mpmath.mpf(theta)
                s = mpmath.sin(t)
                ref_nu = 4 * s - 2 * (s * s + 1) * mpmath.log((1 + s) / (1 - s))
                ref_prime = mpmath.cos(t) / (8 * s * s) * ref_nu
            assert abs(nu(theta) - ref_nu) <= 1e-14 * abs(ref_nu)
            assert abs(mu_derivative(theta) - ref_prime) <= 1e-14 * abs(ref_prime)


def test_mu_derivative_rejects_near_endpoints():
    for theta in (0.0, math.pi, -1.0):
        with pytest.raises(ValueError):
            mu_derivative(theta)
    # every double inside (0, pi) is valid, however near an end
    assert mu_derivative(1e-10) == pytest.approx(-2.0 / 3.0 * 1e-10, rel=1e-14)
    assert mu_derivative(math.pi - 1e-10) > 0.0


# --- gamma -------------------------------------------------------------------


def test_gamma_half_weight_is_abs_cos():
    for theta in (0.1, math.pi / 3.0, 1.2, 2.7):
        assert gamma(0.5, theta) == pytest.approx(abs(math.cos(theta)), abs=1e-15)
    assert gamma(0.5, math.pi / 3.0) == pytest.approx(0.5, abs=1e-15)


def test_gamma_pinned_endpoints():
    for t in (0.1, 0.3, 0.5, 0.77):
        assert gamma(t, 0.0) == 1.0
        assert gamma(t, math.pi) == 1.0
        assert gamma(t, math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)


def test_gamma_frozen_value():
    assert gamma(0.3, math.pi / 3.0) == pytest.approx(GAMMA_03_PI3, rel=1e-14)


def test_gamma_symmetry_range_monotonicity():
    thetas = np.linspace(0.0, math.pi, 2001)
    left = thetas[1:] <= math.pi / 2.0
    right = thetas[:-1] >= math.pi / 2.0
    for t in (0.05, 0.2, 0.4, 0.5, 0.65, 0.95):
        vals = np.array([gamma(t, float(th)) for th in thetas])
        mirror = np.array([gamma(1.0 - t, float(th)) for th in thetas])
        assert np.max(np.abs(vals - mirror)) <= 1e-14
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0
        diffs = np.diff(vals)
        assert diffs[left].max() <= 1e-12
        assert diffs[right].min() >= -1e-12


def test_gamma_pi_periodic():
    for t in (0.2, 0.5, 0.8):
        for theta in (0.4, 1.1, 2.2):
            assert gamma(t, theta + math.pi) == pytest.approx(gamma(t, theta), abs=1e-14)
        # the array route, within 1e-14 of the float route's value
        thetas = np.array([0.4, 1.1, 2.2, 1e300])
        angles = np.concatenate([thetas, -thetas, thetas + 3.0 * math.pi, thetas - 3.0 * math.pi])
        assert gamma(t, angles) == pytest.approx([gamma(t, float(th)) for th in angles], abs=1e-14)


def test_gamma_bounded_by_abs_cos():
    # max over t of gamma_t(theta) is |cos(theta)|, attained at t = 1/2
    rng = np.random.default_rng(5)
    for _ in range(2000):
        t = float(rng.uniform(0.01, 0.99))
        theta = float(rng.uniform(0.0, math.pi))
        assert gamma(t, theta) <= abs(math.cos(theta)) + 1e-14


@pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.1, float("nan")])
def test_gamma_rejects_bad_weight(t):
    with pytest.raises(ValueError):
        gamma(t, 1.0)


def test_gamma_rejects_nonfinite_theta():
    with pytest.raises(ValueError):
        gamma(0.5, float("inf"))
