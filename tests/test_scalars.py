import math

import numpy as np
import pytest

from opineq.scalars import (
    chain_tolerance,
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
    # fourth-order intermediates must neither overflow nor flush to zero
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


def test_chain_tolerance_scales():
    assert chain_tolerance(1 + 0j, 1 + 0j) == 1e-10
    assert chain_tolerance(5 + 0j, -3 + 0j) == 1e-10
    assert chain_tolerance(2e3 + 0j, 0j) == pytest.approx(2e-9)


def test_chain_tolerance_rejects_a_modulus_beyond_the_double_range():
    huge = complex(1.5e308, 1.5e308)
    for c, d in [(huge, 0), (1.0, huge), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="^chain_tolerance: .*finite"):
            chain_tolerance(c, d)


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
    assert check_log_bound(0.0)


def test_log_bound_positive_and_negative():
    # 2*0.9/1.81 = 0.9945 <= log(19) = 2.9444
    assert check_log_bound(0.9)
    assert check_log_bound(-0.5)


def test_log_bound_grid():
    for x in np.linspace(-0.9999, 0.9999, 10_000):
        assert check_log_bound(float(x))


@pytest.mark.parametrize("x", [1.0, -1.0, 1.5, float("inf"), float("nan")])
def test_log_bound_rejects_out_of_domain(x):
    with pytest.raises(ValueError):
        check_log_bound(x)


# --- mu ----------------------------------------------------------------------


def test_mu_branch_values():
    assert mu(0.0) == 1.0
    assert mu(math.pi) == 1.0
    assert mu(math.pi / 2.0) == 0.5
    assert mu(1e-9) == 1.0  # inside the limit window
    assert mu(math.pi / 2.0 + 3e-9) == 0.5


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


# --- nu and mu' --------------------------------------------------------------


def test_nu_frozen_value():
    assert nu(1.0) == pytest.approx(NU_1, rel=1e-13)


def test_nu_vanishes_at_origin_limit():
    assert abs(nu(1e-8)) <= 1e-7


def test_nu_nonpositive():
    assert nu(math.pi / 4.0) < 0.0
    for theta in np.linspace(0.01, math.pi - 0.01, 3000):
        if abs(1.0 - math.sin(float(theta))) < 1e-12:
            continue
        assert nu(float(theta)) <= 1e-15


def test_nu_rejects_out_of_domain():
    for theta in (0.0, math.pi, -0.5, 4.0, math.pi / 2.0):
        with pytest.raises(ValueError):
            nu(theta)


def test_mu_derivative_frozen_and_signs():
    assert mu_derivative(math.pi / 2.0) == 0.0
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


def test_mu_derivative_rejects_near_endpoints():
    for theta in (0.0, 1e-10, math.pi, math.pi - 1e-10, -1.0):
        with pytest.raises(ValueError):
            mu_derivative(theta)


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
