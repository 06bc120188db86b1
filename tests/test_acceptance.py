"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to see
them all) and asserting at its stated tolerance. Criterion 2 checks the
closed form of I(c, d) against an independent 64-node Gauss-Legendre rule
that is split at the point of the segment nearest the origin and graded
towards it by a sinh change of variables (`_segment_mean_abs_sinh_gl`).
The single-panel rule `segment_mean_abs_quadrature` cannot serve as that
oracle: the integrand is the square root of a quadratic whose branch points
sit at (distance from origin to segment)/(segment length) from the contour,
so a fixed rule over all of [0, 1] saturates near 4e-4 relative error on the
criterion's sample, where that ratio falls to ~1e-4.
"""

import json
import math
import time

import numpy as np

from opineq.harness import SweepConfig, gen_instance, run_suite, summary_to_dict, trial_rng
from opineq.linalg import (
    frac_power,
    hermitian_eig,
    is_unitary,
    numerical_radius,
    polar,
    spectral_norm,
    svd,
)
from opineq.operators import (
    check_geomean_lower,
    check_mixed_schwarz,
    check_radius_chain,
    check_reverse_cs,
    kittaneh_bound,
)
from opineq.quadrature import gauss_legendre
from opineq.scalars import (
    check_log_bound,
    check_reverse_triangle,
    check_triangle_refinement,
    gamma,
    mu,
    mu_derivative,
    nu,
    segment_mean_abs,
)

KINDS = ("ginibre", "hermitian", "psd", "unitary", "nilpotent-like")
INVERTIBLE = ("ginibre", "hermitian", "psd", "unitary")
V_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _disk_pairs(rng, count, radius=10.0):
    r = radius * np.sqrt(rng.uniform(size=(count, 2)))
    ph = rng.uniform(0.0, 2.0 * np.pi, size=(count, 2))
    z = r * np.exp(1j * ph)
    return z[:, 0], z[:, 1]


def _ensemble(seed, kinds=KINDS, dims=range(2, 9), per_cell=1):
    out = []
    for kind in kinds:
        for dim in dims:
            for k in range(per_cell):
                rng = trial_rng(seed, 3, k, dim)
                out.append((kind, dim, gen_instance(rng, kind, dim)))
    return out


def test_criterion_01_scalar_refinement_sweep():
    rng = np.random.default_rng(101)
    cs, ds = _disk_pairs(rng, 100_000)
    start = time.perf_counter()
    worst = math.inf
    for c, d in zip(cs, ds):
        rep = check_triangle_refinement(complex(c), complex(d), tol=1e-10)
        worst = min(worst, rep.worst_slack)
        if not rep.holds:
            break
    elapsed = time.perf_counter() - start
    equality_ok = True
    for z in (1 + 0j, -2.5 + 0.3j, 7j):
        rep = check_triangle_refinement(z, z)
        scale = max(abs(z), 1.0)
        (_, lhs), (_, mid), (_, rhs) = rep.terms
        equality_ok &= abs(mid - lhs) <= 1e-14 * scale
        equality_ok &= abs(rhs - mid) <= 1e-14 * scale
        equality_ok &= rep.holds
    ok = worst >= -1e-10 and equality_ok and elapsed <= 5.0
    _line(1, ok, f"1e5 pairs, worst slack {worst:.2e}, equality ok {equality_ok}, "
                 f"{elapsed:.2f} s")
    assert worst >= -1e-10
    assert equality_ok
    assert elapsed <= 5.0


def _segment_nearest(c, d):
    """Parameter s in [0, 1] of the point of [d, c] nearest the origin."""
    alpha = abs(c - d) ** 2
    if alpha == 0.0:
        return 0.0
    return min(1.0, max(0.0, -(d.conjugate() * (c - d)).real / alpha))


def _segment_min_modulus(c, d):
    s0 = _segment_nearest(c, d)
    return abs(s0 * c + (1.0 - s0) * d)


def _segment_mean_abs_sinh_gl(c, d, nodes=64):
    """Kink-aware Gauss-Legendre rule for I(c, d) = int_0^1 |s c + (1-s) d| ds.

    Splits [0, 1] at the nearest point a and, on each side, substitutes
    s = a +- b sinh(t) with b = |a c + (1-a) d| / |c - d|, which spreads the
    nodes out from the near-kink on the scale b (Johnston & Elliott,
    IJNME 62 (2005) 564-578). When b = 0 the integrand is linear on each
    side and the plain rule is exact. Uses only the segment's geometry and
    the nodes, no algebra of the closed form.
    """
    x, w = gauss_legendre(nodes)
    length = abs(c - d)
    a = _segment_nearest(c, d)
    b = abs(a * c + (1.0 - a) * d) / length if length > 0.0 else 0.0
    total = 0.0
    for side, sign in ((1.0 - a, 1.0), (a, -1.0)):
        if side <= 0.0:
            continue
        if b == 0.0:
            s = a + sign * side * (x + 1.0) / 2.0
            jac = side / 2.0 * w
        else:
            t_max = math.asinh(side / b)
            t = t_max * (x + 1.0) / 2.0
            s = a + sign * b * np.sinh(t)
            jac = t_max / 2.0 * w * b * np.cosh(t)
        total += float(np.sum(jac * np.abs(s * c + (1.0 - s) * d)))
    return total


# I(c, d) computed once with mpmath.quad at 50 digits, the interval split at
# the nearest point; the second pair (floats 5+0.001i, -5+0.001i) passes
# 1e-3 from the origin along a segment of length 10, where the single-panel
# 64-node rule is off by 2.0e-4
ORACLE_PINS = (
    (3 + 4j, 1 - 2j, 2.688107285858487865772186),
    (5 + 0.001j, -5 + 0.001j, 2.500000971034037697618307),
)


def test_criterion_02_closed_form_vs_quadrature():
    # The closed form against an independent 64-node Gauss-Legendre rule on
    # segments at least 1e-3 from the origin. The rule is the kink-aware
    # _segment_mean_abs_sinh_gl: a single panel over [0, 1] would be limited
    # by (distance to origin)/(segment length), not by the distance alone.
    pins_worst = max(
        abs(_segment_mean_abs_sinh_gl(c, d, 64) - ref) / ref for c, d, ref in ORACLE_PINS
    )
    rng = np.random.default_rng(102)
    kept = 0
    worst = 0.0
    violations = 0
    start = time.perf_counter()
    while kept < 10_000:
        z = rng.uniform(-10.0, 10.0, size=4)
        c, d = complex(z[0], z[1]), complex(z[2], z[3])
        if abs(c) > 10.0 or abs(d) > 10.0 or _segment_min_modulus(c, d) < 1e-3:
            continue
        kept += 1
        closed = segment_mean_abs(c, d)
        approx = _segment_mean_abs_sinh_gl(c, d, 64)
        rel = abs(closed - approx) / max(closed, 1e-300)
        worst = max(worst, rel)
        if rel > 1e-10:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = pins_worst <= 1e-13 and worst <= 1e-10 and elapsed <= 5.0
    _line(2, ok, f"oracle vs mpmath pins {pins_worst:.2e}; 1e4 filtered pairs, "
                 f"{violations} above 1e-10, worst rel {worst:.2e}, {elapsed:.2f} s")
    assert pins_worst <= 1e-13, f"oracle misses its mpmath pins by {pins_worst:.2e}"
    assert elapsed <= 5.0
    assert worst <= 1e-10, (
        f"{violations} of {kept} pairs exceed 1e-10 relative (worst {worst:.2e}) "
        "between segment_mean_abs and the kink-aware 64-node Gauss-Legendre oracle"
    )


def test_criterion_03_mu_pinned_values_and_monotonicity():
    branch_ok = mu(math.pi / 2.0) == 0.5
    near_zero_ok = 1.0 - 1e-5 <= mu(1e-6) <= 1.0

    seg_worst = 0.0
    for theta in np.linspace(0.0, math.pi, 1002)[1:-1]:
        theta = float(theta)
        seg = segment_mean_abs(np.exp(1j * theta), np.exp(-1j * theta))
        seg_worst = max(seg_worst, abs(mu(theta) - seg))

    n = 10_000
    thetas = np.arange(1, n + 1) * (math.pi / (n + 1))
    vals = np.array([mu(float(t)) for t in thetas])
    range_ok = vals.min() >= 0.5 and vals.max() <= 1.0
    diffs = np.diff(vals)
    left = thetas[1:] <= math.pi / 2.0
    right = thetas[:-1] >= math.pi / 2.0
    mono_ok = diffs[left].max() <= 1e-12 and diffs[right].min() >= -1e-12

    ok = branch_ok and near_zero_ok and seg_worst <= 1e-12 and range_ok and mono_ok
    _line(3, ok, f"branch {branch_ok}, near-0 {near_zero_ok}, |mu - segment| "
                 f"max {seg_worst:.2e}, range {range_ok}, monotone {mono_ok}")
    assert branch_ok and near_zero_ok and range_ok and mono_ok
    assert seg_worst <= 1e-12


def test_criterion_04_mu_derivative_consistency():
    h = 1e-6
    grid = np.concatenate([
        np.linspace(0.01, math.pi / 2.0 - 0.01, 1000),
        np.linspace(math.pi / 2.0 + 0.01, math.pi - 0.01, 1000),
    ])
    worst_rel = 0.0
    for theta in grid:
        theta = float(theta)
        analytic = mu_derivative(theta)
        fd = (mu(theta + h) - mu(theta - h)) / (2.0 * h)
        worst_rel = max(worst_rel, abs(analytic - fd) / abs(analytic))
    nu_max = max(
        nu(float(t)) for t in np.linspace(1e-4, math.pi - 1e-4, 10_000)
        if abs(1.0 - math.sin(float(t))) >= 1e-12
    )
    ok = worst_rel <= 1e-6 and nu_max <= 1e-15
    _line(4, ok, f"fd rel err max {worst_rel:.2e}, max nu {nu_max:.2e}")
    assert worst_rel <= 1e-6
    assert nu_max <= 1e-15


def test_criterion_05_log_bound_grid():
    xs = np.linspace(-0.9999, 0.9999, 10_000)
    ok = all(check_log_bound(float(x)).holds for x in xs)
    _line(5, ok, "orientation-correct on 1e4-point grid of (-0.9999, 0.9999)")
    assert ok


def test_criterion_06_gamma_properties():
    thetas = np.linspace(0.0, math.pi, 2001)
    left = thetas[1:] <= math.pi / 2.0
    right = thetas[:-1] >= math.pi / 2.0
    range_ok = sym_ok = mono_ok = True
    for t in (0.05, 0.2, 0.35, 0.5, 0.8, 0.95):
        vals = np.array([gamma(t, float(th)) for th in thetas])
        mirror = np.array([gamma(1.0 - t, float(th)) for th in thetas])
        range_ok &= vals.min() >= 0.0 and vals.max() <= 1.0
        sym_ok &= np.max(np.abs(vals - mirror)) <= 1e-14
        diffs = np.diff(vals)
        mono_ok &= diffs[left].max() <= 1e-12 and diffs[right].min() >= -1e-12
    half_worst = max(
        abs(gamma(0.5, float(th)) - abs(math.cos(float(th)))) for th in thetas
    )
    pins_ok = all(
        gamma(t, 0.0) == 1.0 and abs(gamma(t, math.pi / 2.0)) <= 1e-14
        for t in (0.1, 0.3, 0.5, 0.9)
    )
    ok = range_ok and sym_ok and mono_ok and half_worst <= 1e-14 and pins_ok
    _line(6, ok, f"range {range_ok}, symmetry {sym_ok}, monotone {mono_ok}, "
                 f"|gamma_half - |cos|| max {half_worst:.2e}, pins {pins_ok}")
    assert range_ok and sym_ok and mono_ok and pins_ok
    assert half_worst <= 1e-14


def test_criterion_07_reverse_triangle_sweep():
    rng = np.random.default_rng(107)
    cs, ds = _disk_pairs(rng, 100_000)
    ts = rng.uniform(0.02, 0.98, size=100_000)
    worst = math.inf
    for c, d, t in zip(cs, ds, ts):
        rep = check_reverse_triangle(complex(c), complex(d), float(t), tol=1e-10)
        (_, lhs), (_, mid), _ = rep.terms
        worst = min(worst, mid - lhs)
        if not rep.holds:
            break
    ok = worst >= -1e-10
    _line(7, ok, f"1e5 triples, worst slack {worst:.2e}")
    assert worst >= -1e-10


def test_criterion_08_linalg_contracts():
    eig_worst = svd_worst = polar_worst = 0.0
    count = 0
    for dim in range(2, 9):
        for k in range(50):
            rng = trial_rng(108, 4, k, dim)
            kind = KINDS[k % len(KINDS)]
            A = gen_instance(rng, kind, dim)
            scale = max(np.linalg.norm(A), 1e-30)
            count += 1

            H = (A + A.conj().T) / 2.0
            sys = hermitian_eig(H)
            recon = (sys.vectors * sys.values) @ sys.vectors.conj().T
            eig_worst = max(eig_worst, np.linalg.norm(recon - H) / max(np.linalg.norm(H), 1e-30))

            W, sigma, V = svd(A)
            svd_worst = max(svd_worst, np.linalg.norm((W * sigma) @ V.conj().T - A) / scale)

            pp = polar(A)
            n = dim
            polar_worst = max(
                polar_worst,
                np.linalg.norm(pp.unitary.conj().T @ pp.unitary - np.eye(n)),
                np.linalg.norm(pp.unitary @ pp.positive - A) / scale,
            )
            abs_star = polar(A.conj().T).positive
            for p in (0.2, 0.5, 1.0, 1.7):
                lhs = pp.unitary @ frac_power(pp.positive, p) @ pp.unitary.conj().T
                rhs = frac_power(abs_star, p)
                polar_worst = max(
                    polar_worst, np.linalg.norm(lhs - rhs) / max(spectral_norm(A) ** p, 1.0)
                )
    ok = eig_worst <= 1e-10 and svd_worst <= 1e-10 and polar_worst <= 1e-9
    _line(8, ok, f"{count} matrices: eig res {eig_worst:.2e}, svd res {svd_worst:.2e}, "
                 f"polar ids {polar_worst:.2e}")
    assert eig_worst <= 1e-10
    assert svd_worst <= 1e-10
    assert polar_worst <= 1e-9


def test_criterion_09_numerical_radius():
    shift_ok = abs(numerical_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) - 0.5) <= 1e-8
    herm_pin_ok = abs(numerical_radius(np.diag([1.0, -3.0])) - 3.0) <= 1e-8

    herm_worst = sandwich_worst = 0.0
    for kind, dim, A in _ensemble(109):
        w = numerical_radius(A)
        norm = spectral_norm(A)
        kb = kittaneh_bound(A)
        sandwich_worst = max(
            sandwich_worst, 0.5 * norm - w, w - norm, w - kb, kb - norm
        )
        if kind == "hermitian":
            herm_worst = max(herm_worst, abs(w - norm))
    ok = shift_ok and herm_pin_ok and herm_worst <= 1e-8 and sandwich_worst <= 1e-8
    _line(9, ok, f"shift pin {shift_ok}, hermitian pin {herm_pin_ok}, "
                 f"|w - norm| on hermitian {herm_worst:.2e}, worst sandwich "
                 f"violation {sandwich_worst:.2e}")
    assert shift_ok and herm_pin_ok
    assert herm_worst <= 1e-8
    assert sandwich_worst <= 1e-8


def test_criterion_10_mixed_schwarz_sweep():
    worst = math.inf
    undefined = 0
    checked = 0
    for kind, dim, A in _ensemble(110, per_cell=2):
        rng = trial_rng(110, 5, dim, dim)
        for i in range(105):
            v = V_GRID[i % len(V_GRID)]
            x = gen_instance(rng, "unit-vector", dim)
            y = gen_instance(rng, "unit-vector", dim)
            rep = check_mixed_schwarz(A, x, y, v, tol=1e-8)
            if rep.angle_undefined:
                undefined += 1
                continue
            checked += 1
            worst = min(worst, rep.worst_slack)
    ok = worst >= -1e-8
    _line(10, ok, f"{checked} chains ({undefined} angle-undefined excluded), "
                  f"worst slack {worst:.2e}")
    assert worst >= -1e-8


def test_criterion_11_radius_and_geomean_chains():
    chain_worst = math.inf
    undefined = 0
    for kind, dim, A in _ensemble(111, per_cell=2):
        rng = trial_rng(111, 6, dim, dim)
        for i in range(105):
            v = V_GRID[i % len(V_GRID)]
            x = gen_instance(rng, "unit-vector", dim)
            rep = check_radius_chain(A, v, x, tol=1e-8)
            if rep.angle_undefined:
                undefined += 1
                continue
            chain_worst = min(chain_worst, rep.worst_slack)

    eq_worst = 0.0
    geo_worst = math.inf
    for kind, dim, A in _ensemble(111, kinds=INVERTIBLE, dims=(2, 3, 4, 6), per_cell=2):
        rng = trial_rng(111, 7, dim, dim)
        for i in range(105):
            v = V_GRID[i % len(V_GRID)]
            x = gen_instance(rng, "unit-vector", dim)
            rep = check_geomean_lower(A, v, x, tol=1e-8, equality_tol=1e-10)
            vals = [val for _, val in rep.terms]
            geo_worst = min(geo_worst, vals[1] - vals[0])
            eq_worst = max(eq_worst, abs(vals[2] - vals[1]))
    ok = chain_worst >= -1e-8 and geo_worst >= -1e-8 and eq_worst <= 1e-10
    _line(11, ok, f"radius chain worst {chain_worst:.2e} ({undefined} undefined), "
                  f"geomean worst {geo_worst:.2e}, equality link max {eq_worst:.2e}")
    assert chain_worst >= -1e-8
    assert geo_worst >= -1e-8
    assert eq_worst <= 1e-10


def test_criterion_12_reverse_cauchy_schwarz():
    rng = np.random.default_rng(112)
    worst = math.inf
    eq_worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = float(rng.uniform(0.02, 0.98))
        rep = check_reverse_cs(x, y, t, tol=1e-8, equality_tol=1e-12)
        vals = [val for _, val in rep.terms]
        worst = min(worst, vals[1] - vals[0], vals[2] - vals[1])
        prod = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
        eq_worst = max(eq_worst, abs(gamma(0.5, math.acos(min(1.0, vals[2] / prod)))
                                     * prod - vals[2]) / prod)
        assert rep.holds
    ok = worst >= -1e-8 and eq_worst <= 1e-12
    _line(12, ok, f"1e4 triples, worst slack {worst:.2e}, t=1/2 equality max "
                  f"{eq_worst:.2e} relative")
    assert worst >= -1e-8
    assert eq_worst <= 1e-12


def test_criterion_13_full_default_suite():
    config = SweepConfig()
    start = time.perf_counter()
    first = run_suite(config, suite="all")
    elapsed = time.perf_counter() - start
    fails = sum(c.n_fail for c in first.checks)

    second = run_suite(config, suite="all")
    b1 = json.dumps(summary_to_dict(first, include_wall=False), sort_keys=True).encode()
    b2 = json.dumps(summary_to_dict(second, include_wall=False), sort_keys=True).encode()
    reproducible = b1 == b2

    ok = fails == 0 and elapsed <= 120.0 and reproducible
    _line(13, ok, f"0 fails: {fails == 0} ({fails}), {elapsed:.1f} s, "
                  f"byte-reproducible modulo wall time: {reproducible}")
    assert fails == 0
    assert elapsed <= 120.0
    assert reproducible
