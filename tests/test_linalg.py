import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from opineq import linalg
from opineq.harness import MATRIX_KINDS, gen_instance, trial_rng
from opineq.linalg import (
    _CERTIFICATE_ROUNDING,
    _RADIUS_GRID,
    _SCAN_ROUNDING,
    _hermitian_part,
    _numerical_radii,
    _polar_frames,
    _sinusoid_caps,
    frac_power,
    geometric_mean,
    hermitian_eig,
    is_unitary,
    load_matrix,
    matrix_from_json,
    numerical_radius,
    polar,
    spectral_norm,
    svd,
)


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))) / np.sqrt(2.0)


def random_hermitian(rng, n):
    G = random_complex(rng, n)
    return (G + G.conj().T) / 2.0


def random_psd(rng, n):
    G = random_complex(rng, n)
    return G.conj().T @ G


# --- predicates ----------------------------------------------------------


def test_predicates():
    assert is_unitary(np.eye(4))
    assert not is_unitary(2.0 * np.eye(4))


# --- hermitian_eig -------------------------------------------------------


def test_eig_diagonal():
    sys = hermitian_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(sys.values, [1.0, 3.0])
    # columns are permuted identity columns up to phase
    np.testing.assert_allclose(np.abs(sys.vectors), [[0, 1], [1, 0]], atol=1e-14)


def test_eig_pauli_x():
    sys = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(sys.values, [-1.0, 1.0], atol=1e-15)


def test_eig_reconstruction_residual():
    rng = np.random.default_rng(8)
    H = random_hermitian(rng, 8)
    sys = hermitian_eig(H)
    recon = (sys.vectors * sys.values) @ sys.vectors.conj().T
    assert np.linalg.norm(recon - H) <= 1e-10 * np.linalg.norm(H)
    assert is_unitary(sys.vectors, tol=1e-12)
    assert np.all(np.diff(sys.values) >= 0.0)


def test_eig_rejects_non_square_and_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError, match="defect"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- svd ------------------------------------------------------------------


def test_svd_identity():
    W, sigma, V = svd(np.eye(4))
    np.testing.assert_allclose(sigma, np.ones(4))


def test_svd_nilpotent():
    W, sigma, V = svd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(sigma, [1.0, 0.0], atol=1e-15)


def test_svd_reconstruction():
    rng = np.random.default_rng(10)
    A = random_complex(rng, 6)
    W, sigma, V = svd(A)
    recon = (W * sigma) @ V.conj().T
    assert np.linalg.norm(recon - A) <= 1e-10 * np.linalg.norm(A)
    assert is_unitary(W, tol=1e-12) and is_unitary(V, tol=1e-12)
    assert np.all(np.diff(sigma) <= 0.0)


# --- polar ----------------------------------------------------------------


def test_polar_identity_and_scalar():
    pp = polar(np.eye(3))
    np.testing.assert_allclose(pp.unitary, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(pp.positive, np.eye(3), atol=1e-14)
    pp = polar(np.array([[-2.0]]))
    np.testing.assert_allclose(pp.unitary, [[-1.0]], atol=1e-15)
    np.testing.assert_allclose(pp.positive, [[2.0]], atol=1e-15)


def test_polar_identities_random_invertible():
    rng = np.random.default_rng(5)
    A = random_complex(rng, 5) + 2.0 * np.eye(5)
    pp = polar(A)
    scale = np.linalg.norm(A)
    assert is_unitary(pp.unitary, tol=1e-10)
    assert np.linalg.norm(pp.unitary @ pp.positive - A) <= 1e-10 * scale
    # |A*| via the independent polar decomposition of A*
    abs_star = polar(A.conj().T).positive
    transported = pp.unitary @ pp.positive @ pp.unitary.conj().T
    assert np.linalg.norm(transported - abs_star) <= 1e-10 * scale


@pytest.mark.parametrize("p", [0.2, 0.5, 1.0, 1.7])
def test_polar_transports_fractional_powers(p):
    # U |A|^p U* = |A*|^p also for singular A (unitary completion)
    rng = np.random.default_rng(6)
    for n in range(2, 9):
        for make in (random_complex, lambda r, n: np.triu(random_complex(r, n), 1)):
            A = make(rng, n)
            pp = polar(A)
            scale = max(np.linalg.norm(A), 1.0)
            lhs = pp.unitary @ frac_power(pp.positive, p) @ pp.unitary.conj().T
            rhs = frac_power(polar(A.conj().T).positive, p)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(scale**p, 1.0)


def test_polar_and_svd_name_themselves_in_errors():
    with pytest.raises(ValueError, match="^polar: expected a square matrix"):
        polar([[1, 2, 3]])
    with pytest.raises(ValueError, match="^svd: expected a square matrix"):
        svd([[1, 2, 3]])


def test_polar_unitary_for_singular_input():
    N = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    pp = polar(N)
    assert is_unitary(pp.unitary, tol=1e-10)
    assert np.linalg.norm(pp.unitary @ pp.positive - N) <= 1e-10 * np.linalg.norm(N)


# --- frac_power -----------------------------------------------------------


def test_frac_power_basics():
    np.testing.assert_allclose(
        frac_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-14
    )
    P = random_psd(np.random.default_rng(3), 4)
    np.testing.assert_allclose(frac_power(P, 1.0), P, atol=1e-12)


def test_frac_power_zero_exponent_is_identity_even_on_kernel():
    P = np.diag([2.0, 0.0])
    np.testing.assert_allclose(frac_power(P, 0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(frac_power(P, 0.5), np.diag([np.sqrt(2.0), 0.0]), atol=1e-15)


def test_frac_power_round_trip():
    P = random_psd(np.random.default_rng(12), 6)
    back = frac_power(frac_power(P, 0.37), 1.0 / 0.37)
    assert np.linalg.norm(back - P) <= 1e-8 * np.linalg.norm(P)


def test_frac_power_clamps_round_off_negatives():
    Q = np.diag([1.0, -1e-12])
    out = frac_power(Q, 0.5)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-7)


def test_frac_power_rejects_indefinite_and_negative_exponent():
    with pytest.raises(ValueError, match="positive semidefinite"):
        frac_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        frac_power(np.eye(2), -0.5)


# --- geometric_mean --------------------------------------------------------


def test_geometric_mean_of_equals():
    A = random_psd(np.random.default_rng(21), 4) + np.eye(4)
    for t in (0.0, 0.3, 0.5, 1.0):
        np.testing.assert_allclose(geometric_mean(A, A, t), A, atol=1e-10)


def test_geometric_mean_commuting_diagonal():
    A = np.diag([1.0, 4.0])
    B = np.diag([4.0, 1.0])
    np.testing.assert_allclose(geometric_mean(A, B, 0.5), np.diag([2.0, 2.0]), atol=1e-12)
    # weighted case: entrywise a^(1-t) * b^t
    t = 0.3
    np.testing.assert_allclose(
        geometric_mean(A, B, t),
        np.diag([4.0**t, 4.0 ** (1.0 - t)]),
        atol=1e-12,
    )


def test_geometric_mean_endpoint_weights():
    rng = np.random.default_rng(22)
    A = random_psd(rng, 3) + np.eye(3)
    B = random_psd(rng, 3) + np.eye(3)
    np.testing.assert_allclose(geometric_mean(A, B, 0.0), A, atol=1e-11)
    np.testing.assert_allclose(geometric_mean(A, B, 1.0), B, atol=1e-11)


def test_geometric_mean_symmetric_at_half():
    rng = np.random.default_rng(23)
    A = random_psd(rng, 5) + 0.5 * np.eye(5)
    B = random_psd(rng, 5) + 0.5 * np.eye(5)
    G1 = geometric_mean(A, B, 0.5)
    G2 = geometric_mean(B, A, 0.5)
    assert np.linalg.norm(G1 - G2) <= 1e-10 * np.linalg.norm(G1)


def test_geometric_mean_quadratic_form_bound():
    # <(A # B) x, x> <= sqrt(<Ax,x> <Bx,x>)
    rng = np.random.default_rng(24)
    A = random_psd(rng, 4) + 0.2 * np.eye(4)
    B = random_psd(rng, 4) + 0.2 * np.eye(4)
    G = geometric_mean(A, B, 0.5)
    for _ in range(100):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = np.vdot(x, G @ x).real
        rhs = math.sqrt(np.vdot(x, A @ x).real * np.vdot(x, B @ x).real)
        assert lhs <= rhs + 1e-10 * rhs


def test_geometric_mean_is_homogeneous_across_the_double_range():
    # the positive-definiteness floor is relative, with no absolute part, so
    # scaling both operands by 2^k scales the mean and refuses nothing
    rng = np.random.default_rng(25)
    A = np.diag([1.0, 1e-6])
    B = random_psd(rng, 2) + 0.1 * np.eye(2)
    G = geometric_mean(A, B, 0.5)
    for k in range(-1020, 501):
        Gk = geometric_mean(math.ldexp(1.0, k) * A, math.ldexp(1.0, k) * B, 0.5)
        # scaled back exactly, as the norm of a tiny Gk would underflow
        assert np.linalg.norm(Gk * math.ldexp(1.0, -k) - G) <= 1e-12 * np.linalg.norm(G), k


def test_geometric_mean_rejects_non_pd():
    with pytest.raises(ValueError, match="positive definite"):
        geometric_mean(np.diag([1.0, 0.0]), np.eye(2), 0.5)
    with pytest.raises(ValueError, match="second operand"):
        geometric_mean(np.eye(2), np.zeros((2, 2)), 0.5)
    with pytest.raises(ValueError, match="geometric_mean: matrix is not Hermitian"):
        geometric_mean(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)
    with pytest.raises(ValueError):
        geometric_mean(np.eye(2), np.eye(3), 0.5)
    with pytest.raises(ValueError):
        geometric_mean(np.eye(2), np.eye(2), 1.5)


# --- spectral norm ----------------------------------------------------------


def test_spectral_norm_pins():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)
    assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_dominates_sampled_image_norms():
    rng = np.random.default_rng(30)
    M = random_complex(rng, 6)
    norm = spectral_norm(M)
    best = 0.0
    for _ in range(1000):
        x = rng.normal(size=6) + 1j * rng.normal(size=6)
        x /= np.linalg.norm(x)
        best = max(best, float(np.linalg.norm(M @ x)))
        assert best <= norm + 1e-12
    # with 10^3 samples the sampled supremum gets close
    assert best >= 0.8 * norm


# --- numerical radius --------------------------------------------------------


def test_radius_nilpotent_shift():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert numerical_radius(A) == pytest.approx(0.5, abs=1e-8)


def test_radius_hermitian_is_spectral_radius():
    assert numerical_radius(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-8)
    assert numerical_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-8)


def test_radius_scaling_and_adjoint_invariance():
    rng = np.random.default_rng(31)
    A = random_complex(rng, 4)
    w = numerical_radius(A)
    lam = 0.7 - 1.3j
    assert numerical_radius(lam * A) == pytest.approx(abs(lam) * w, abs=1e-8)
    assert numerical_radius(A.conj().T) == pytest.approx(w, abs=1e-8)


def test_radius_sandwich_random():
    rng = np.random.default_rng(32)
    for n in (2, 3, 5, 8):
        A = random_complex(rng, n)
        w = numerical_radius(A)
        norm = spectral_norm(A)
        assert 0.5 * norm - 1e-8 <= w <= norm + 1e-8


def test_radius_dominates_brute_force_sampling():
    # max of |<Ax,x>| over random unit vectors is a lower bound that
    # converges to w(A); for the shift matrix it approaches 1/2
    rng = np.random.default_rng(34)
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    w = numerical_radius(A)
    best = 0.0
    for _ in range(100_000):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        x /= np.linalg.norm(x)
        best = max(best, abs(np.vdot(x, A @ x)))
    assert best <= w + 1e-10
    assert w - best <= 1e-3

    B = random_complex(rng, 3)
    wb = numerical_radius(B)
    sampled = 0.0
    for _ in range(20_000):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        x /= np.linalg.norm(x)
        sampled = max(sampled, abs(np.vdot(x, B @ x)))
    assert sampled <= wb + 1e-10
    assert wb - sampled <= 0.05 * wb


def _support_tops(A, phis):
    """Top eigenvalue of (e^{i phi} A + e^{-i phi} A*)/2 at each phi."""
    phase = np.exp(1j * np.asarray(phis, dtype=float))[:, None, None]
    return np.linalg.eigvalsh((phase * A + np.conj(phase) * A.conj().T) / 2.0)[:, -1]


def _dense_radius(A, points=2048):
    """Reference w(A): a dense scan, then bounded Brent on every scan peak."""
    step = 2.0 * np.pi / points
    phis = step * np.arange(points)
    tops = _support_tops(A, phis)
    best = float(tops.max())
    peaks = np.flatnonzero((tops >= np.roll(tops, 1)) & (tops >= np.roll(tops, -1)))
    for i in peaks[np.argsort(tops[peaks])[::-1][:8]]:
        res = minimize_scalar(lambda p: -float(_support_tops(A, [p])[0]),
                              bounds=(phis[i] - step, phis[i] + step), method="bounded",
                              options={"xatol": 1e-10})
        best = max(best, -float(res.fun))
    return best


@pytest.mark.parametrize("n", range(2, 9))
def test_radius_jordan_block_pin(n):
    # the numerical range of the n x n Jordan block is the disk of radius cos(pi/(n+1))
    assert numerical_radius(np.diag(np.ones(n - 1), 1)) == pytest.approx(
        math.cos(math.pi / (n + 1)), abs=1e-13)


def test_radius_scalar_identity_and_normal_pins():
    for a in (3 - 4j, -2.5, 1e-200j, 7e250 + 1e250j):
        assert numerical_radius(np.array([[a]])) == pytest.approx(abs(a), rel=1e-14)
        assert numerical_radius(a * np.eye(4)) == pytest.approx(abs(a), rel=1e-14)
    rng = np.random.default_rng(36)
    for n in (2, 3, 5, 8, 13):
        U = polar(random_complex(rng, n)).unitary
        lam = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = numerical_radius((U * lam) @ U.conj().T)
        assert w == pytest.approx(np.abs(lam).max(), rel=1e-13)


def test_radius_unitary_ensemble_is_one():
    for n in range(1, 17):
        for trial in range(3):
            U = gen_instance(trial_rng(37, 0, trial, n), "unitary", n)
            assert abs(numerical_radius(U) - 1.0) <= 1e-12


@pytest.mark.parametrize("b", [0.3, 1.0, 4.0, 25.0])
@pytest.mark.parametrize("shift", [1e-9, -1e-9])
def test_radius_picks_the_higher_of_two_peaks(b, shift):
    # W([[1, b], [0, -1]]) is the ellipse with foci +-1 and semi-minor axis
    # b/2; shifted by `shift`, its two farthest points differ in modulus by
    # 2|shift|, and w is the farther one
    A = np.array([[1.0, b], [0.0, -1.0]]) + shift * np.eye(2)
    exact = math.sqrt(1.0 + b * b / 4.0) + abs(shift)
    assert abs(numerical_radius(A) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("delta", [1e-9, 1e-6])
def test_radius_finds_the_peak_the_scan_misses(delta):
    # normal, eigenvalues 1 (on a 64-point scan angle) and 1 + delta (half
    # a scan step off one): the scan's best value belongs to the lower peak.
    # Cell 52.5 puts the peak in the half of the scan read from lambda_min
    rng = np.random.default_rng(41)
    U = polar(random_complex(rng, 3)).unitary
    for cell in (20.5, 20.5 + 32):
        lam = np.array([1.0, (1.0 + delta) * np.exp(2j * np.pi * cell / 64), 0.3j])
        w = numerical_radius((U * lam) @ U.conj().T)
        assert w == pytest.approx(1.0 + delta, rel=1e-14), cell


def _half_grid(A, points=_RADIUS_GRID):
    """H(phi) at the `points`-grid angles of [0, pi), built as the radius scan
    builds each one."""
    A = np.asarray(A, dtype=complex)
    Hr, Hi = _hermitian_part(A), _hermitian_part(1j * A)
    phis = 2.0 * np.pi / points * np.arange(points // 2)
    H = np.cos(phis)[:, None, None] * Hr
    H += np.sin(phis)[:, None, None] * Hi
    return H


def _grid_tops(A, points=_RADIUS_GRID):
    """f on the `points`-grid, from one eigvalsh per angle of [0, pi)."""
    lam = np.linalg.eigvalsh(_half_grid(A, points))
    return np.concatenate((lam[:, -1], -lam[:, 0]))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_radius_scan_solves_each_grid_angle_at_most_once(monkeypatch, n):
    # H(phi + pi) = -H(phi): the scan solves grid angles of [0, pi) only, each
    # built as a full half grid builds it and none twice, and only where the
    # maximum can lie, so a Hermitian or PSD matrix (peaks at 0 and pi) leaves some out
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(M):
        solved.extend(M)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    rng = np.random.default_rng(45)
    for kind, A in (("ginibre", random_complex(rng, n)), ("hermitian", random_hermitian(rng, n)),
                    ("psd", random_psd(rng, n))):
        solved.clear()
        numerical_radius(A)
        grid = _half_grid(A)
        angles = [[k for k, G in enumerate(grid) if np.array_equal(H, G)] for H in solved]
        assert all(len(k) == 1 for k in angles), (kind, angles)
        angles = [k for k, in angles]
        assert len(set(angles)) == len(angles) <= _RADIUS_GRID // 2, (kind, angles)
        if kind != "ginibre":
            assert len(angles) < _RADIUS_GRID // 2, (kind, angles)


def _near_normal(rng, n, eps):
    """Eigenvalue moduli 1 +- eps on random angles, and an eps/10 perturbation."""
    U = polar(random_complex(rng, n)).unitary
    lam = (1.0 + eps * rng.uniform(-1.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return (U * lam) @ U.conj().T + 0.1 * eps * random_complex(rng, n)


def test_radius_scan_pruning_is_sound_and_exact(monkeypatch):
    # every cell's cap bounds a dense f inside it, and the pruned scan's best
    # value is the full 64-angle scan's, bit for bit (no Newton steps taken)
    rng = np.random.default_rng(46)
    dense_set, exact_set = [], []
    for n in range(1, 17):
        exact_set += [gen_instance(rng, kind, n) for kind in MATRIX_KINDS]
        dense_set.append(exact_set[-1 - n % len(MATRIX_KINDS)])
    dense_set += [np.diag(np.ones(n - 1), 1).astype(complex) for n in range(2, 9)]
    dense_set += [np.array([[0.0, 2.0 - 1.5j], [0.0, 0.0]])]
    dense_set += [np.array([[1.0, b], [0.0, -1.0]]) + shift * np.eye(2)
                  for b in (0.3, 1.0, 4.0, 25.0) for shift in (1e-9, -1e-9)]
    dense_set += [_near_normal(rng, n, eps) for eps in (1e-3, 1e-6) for n in (3, 5, 8)]
    exact_set += dense_set[16:] + [_near_normal(rng, n, eps) for eps in (1e-3, 1e-6)
                                   for n in range(3, 17) for _ in range(2)]
    for A in dense_set:
        n, tops, dense = A.shape[0], _grid_tops(A), _grid_tops(A, 256 * _RADIUS_GRID)
        margin = _SCAN_ROUNDING * n * tops.max()
        for width in (4, 2, 1):  # cells of 2 pi/16, 2 pi/32 and 2 pi/64
            ends = tops[::width]
            caps = _sinusoid_caps(ends, np.roll(ends, -1), width * np.pi / _RADIUS_GRID)
            inside = dense.reshape(_RADIUS_GRID // width, -1).max(axis=1)
            assert (caps >= inside - margin).all(), (n, width, (inside - caps).max())
    monkeypatch.setattr(linalg, "_NEWTON_STEPS", 0)
    for A in exact_set:
        assert _numerical_radii(np.asarray(A, dtype=complex)[None])[0] == _grid_tops(A).max()


def test_radius_near_the_double_range_stays_finite():
    # the Hermitian parts halve before they add, so (M + M*)/2 cannot overflow
    assert numerical_radius(np.array([[1.5e308, 0.0], [0.0, 0.0]])) == 1.5e308
    w = numerical_radius(np.array([[1e308, 1e308], [0.0, 0.0]]))
    assert w == pytest.approx((1.0 + math.sqrt(2.0)) / 2.0 * 1e308, rel=1e-14)


def _ldexp(A, k):
    """A * 2^k, part by part."""
    return np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k)


def test_radius_is_read_back_from_a_unit_scale():
    # w(A) has degree 1: beyond |k| ~ 300, |q_k* K x|^2 in the Newton curvature
    # left the double range, and w(2^k A) came out short by up to 1.8e-6 relative
    for n in (2, 3, 4, 5, 8):
        for j, kind in enumerate(MATRIX_KINDS):
            A = gen_instance(trial_rng(47, 0, j, n), kind, n)
            A = _ldexp(A, -math.frexp(np.abs(np.stack([A.real, A.imag])).max())[1])
            w = numerical_radius(A)
            for k in (700, -700, 1000, -1000):
                assert numerical_radius(_ldexp(A, k)) == math.ldexp(w, k), (n, kind, k)


def test_radius_matches_dense_reference_on_the_ensembles():
    rng = np.random.default_rng(38)
    for n in range(1, 17):
        for kind in MATRIX_KINDS:
            A = gen_instance(rng, kind, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            w = numerical_radius(A)
            ref = _dense_radius(A)
            assert ref - w <= 1e-13 * ref, (n, kind, w, ref)
            # never below a 1024-point scan, up to the rounding of one eigvalsh
            scan = float(_support_tops(A, 2.0 * np.pi * np.arange(1024) / 1024).max())
            assert w >= scan * (1.0 - 4.0 * np.finfo(float).eps), (n, kind, w, scan)


def test_radius_flat_support_function_stops_early(monkeypatch):
    # the numerical range of a 2 x 2 nilpotent is a disk about 0, so f is
    # constant: only the no-gain stop rule can end the Newton phase
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(M):
        calls.append(M.shape)
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(39)
    for _ in range(20):
        c = rng.uniform(0.1, 10.0) * np.exp(2j * np.pi * rng.uniform())
        calls.clear()
        w = numerical_radius(np.array([[0.0, c], [0.0, 0.0]]))
        assert w == pytest.approx(abs(c) / 2.0, rel=1e-14)
        assert len(calls) <= 4, calls


def _harness_radii(stack):
    """The radii as the harness computes them: ||A|| from the block's polar frames."""
    return _numerical_radii(stack, _polar_frames(stack).sigma[:, 0]).tolist()


def test_stacked_radius_kernel_is_bit_identical_to_numerical_radius():
    # each matrix of a stack keeps its own best value and its own stop rule,
    # and each candidate its own steps, so stacking changes no bit; nor does
    # passing ||A|| from the stack's SVD (the harness route), since the lone
    # radius takes it from the same SVD
    for n in range(1, 17):
        stack = np.stack([gen_instance(trial_rng(43, 0, k, n), kind, n)
                          for k, kind in enumerate(MATRIX_KINDS)])
        expected = [numerical_radius(A) for A in stack]
        assert _numerical_radii(stack).tolist() == expected, n
        assert _harness_radii(stack) == expected, n
    # one mixed stack: two-peak ellipses, a flat nilpotent (its stop rule ends
    # the Newton phase early), and one matrix at scales far apart. A stop rule
    # shared across the stack (4 ulps of the largest value) would end the
    # small copies' Newton steps early; at 1e-6 against 1e6 before the first
    # step's gain counts
    G = random_complex(np.random.default_rng(44), 2)
    stack = [np.array([[1.0, b], [0.0, -1.0]]) + shift * np.eye(2)
             for b in (0.3, 25.0) for shift in (1e-9, -1e-9)]
    stack += [np.array([[0.0, 2.0 - 1.5j], [0.0, 0.0]])]
    stack += [scale * G for scale in (1e-6, 1e-3, 1e3, 1e6)]
    expected = [numerical_radius(A) for A in stack]
    stack = np.stack(stack).astype(complex)
    assert _numerical_radii(stack).tolist() == expected
    assert _harness_radii(stack) == expected


def test_radius_certificate_closes_only_at_the_norm(monkeypatch):
    # w(A) <= ||A||, with equality for every normal A. A matrix whose
    # first-level caps reach (1 - c n u)||A|| skips the rest of the scan and
    # runs Newton from its best first-level angle; if that value stays below
    # the level, the try is dropped and the matrix runs as with no bound; c = 16
    assert _CERTIFICATE_ROUNDING == 16 * 2.0**-53
    rng = np.random.default_rng(48)
    # (a) an infinite bound never closes, and where ||A|| cannot close the
    # radius either, the values are bit for bit the same. Most near-normal
    # draws try the first level and drop the try; at eps = 1e-9 a margin
    # of 2^-30 n would close some on a lower peak
    never = [gen_instance(rng, kind, n) for n in range(1, 17) for kind in ("ginibre", "nilpotent-like")]
    never += [np.diag(np.ones(n - 1), 1) for n in range(2, 9)]
    never += [np.array([[1.0, b], [0.0, -1.0]]) + shift * np.eye(2)
              for b in (0.3, 1.0, 4.0, 25.0) for shift in (1e-9, -1e-9)]
    never += [_near_normal(rng, n, eps) for eps in (1e-3, 1e-6, 1e-9)
              for n in range(3, 17) for _ in range(2)]
    for A in never:
        A = np.asarray(A, dtype=complex)[None]
        closing = _numerical_radii(A, _polar_frames(A).sigma[:, 0])
        assert closing.tolist() == _numerical_radii(A, np.inf).tolist(), A.shape
    # (b) a normal matrix closes: its radius lies within c n u ||A|| of
    # ||A|| and of the value from all its starts, also read back from 2^+-700
    for n in range(1, 49):
        normal = [gen_instance(rng, kind, n) for kind in ("unitary", "hermitian", "psd")]
        normal.append(np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)))
        for A in normal:
            A = np.asarray(A, dtype=complex)
            nrm = _polar_frames(A).sigma[0]
            margin = _CERTIFICATE_ROUNDING * n * nrm
            every_start = _numerical_radii(A[None], np.inf)[0]
            for k in (0, 700, -700) if n % 8 == 1 else (0,):
                w = math.ldexp(numerical_radius(_ldexp(A, k)), -k)
                assert abs(w - nrm) <= margin and abs(w - every_start) <= margin, (n, k)
    # (c) dim-48 normal matrices close on the first scan level: a unitary
    # after at most 8 eigvalsh matrices (it solved all 32 grid angles when the
    # bound was tested after the last level) and 4 eigh matrices (63 from all
    # of its starts), a Hermitian or PSD one at phi = 0, after 1 eigvalsh
    # matrix and no eigh
    solved = {"eigh": [], "eigvalsh": []}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_eigh(M):
        solved["eigh"].append(int(np.prod(M.shape[:-2])))
        return eigh(M)

    def counting_eigvalsh(M):
        solved["eigvalsh"].append(int(np.prod(M.shape[:-2])))
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for kind, eigvalsh_at_most, eigh_at_most in (
            ("unitary", 8, 4), ("hermitian", 1, 0), ("psd", 1, 0)):
        for counts in solved.values():
            counts.clear()
        numerical_radius(gen_instance(trial_rng(48, 0, 0, 48), kind, 48))
        assert sum(solved["eigvalsh"]) <= eigvalsh_at_most, (kind, solved)
        assert sum(solved["eigh"]) <= eigh_at_most, (kind, solved)


def test_radius_of_a_lone_unitary_runs_no_empty_scan(monkeypatch):
    # a lone unitary tries Newton from its best first-level angle and closes:
    # no matrix searches, so the scan's two bisection levels and its starts do
    # not run, and the first level's caps are the one `_sinusoid_caps` call.
    # Its value is the one it takes beside a Ginibre matrix, which does search
    calls = []
    caps = linalg._sinusoid_caps
    monkeypatch.setattr(linalg, "_sinusoid_caps", lambda *args: calls.append(1) or caps(*args))
    for n in (4, 8, 16, 24, 32, 48):
        U = gen_instance(trial_rng(52, 0, 0, n), "unitary", n)
        G = gen_instance(trial_rng(52, 0, 1, n), "ginibre", n)
        calls.clear()
        w = numerical_radius(U)
        assert len(calls) == 1, (n, len(calls))
        calls.clear()
        assert _numerical_radii(np.stack([U, G]))[0] == w, n
        assert len(calls) > 1, n


def test_radius_of_a_hermitian_matrix_closes_at_phi_zero(monkeypatch):
    # For a Hermitian A, max(f(0), f(pi)) = max(lambda_max, -lambda_min) = ||A||,
    # so the grid angle phi = 0, solved alone first, reaches the certificate
    # level: the radius is that value, after one eigvalsh matrix and no eigh,
    # within c n u ||A|| of ||A|| (also read back from 2^+-700), and the harness
    # route gives the public route's bits
    solved = {"eigh": 0, "eigvalsh": 0}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_eigh(M):
        solved["eigh"] += int(np.prod(M.shape[:-2]))
        return eigh(M)

    def counting_eigvalsh(M):
        solved["eigvalsh"] += int(np.prod(M.shape[:-2]))
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rng = np.random.default_rng(50)
    for n in range(1, 49):
        stack = [gen_instance(rng, kind, n) for kind in ("hermitian", "psd")]
        stack.append(np.diag(rng.normal(size=n)))
        stack = np.stack(stack).astype(complex)
        margin = _CERTIFICATE_ROUNDING * n
        values = []
        for A in stack:
            nrm = _polar_frames(A).sigma[0]
            for k in (0, 700, -700):
                solved.update(eigh=0, eigvalsh=0)
                w = math.ldexp(numerical_radius(_ldexp(A, k)), -k)
                assert solved == {"eigh": 0, "eigvalsh": 1}, (n, k, solved)
                assert abs(w - nrm) <= margin * nrm, (n, k, w, nrm)
            values.append(numerical_radius(A))
        solved.update(eigh=0, eigvalsh=0)
        assert _harness_radii(stack) == values, n
        assert solved == {"eigh": 0, "eigvalsh": len(stack)}, (n, solved)


def test_radius_takes_an_svd_only_where_the_caps_reach_a_norm_floor(monkeypatch):
    # numerical_radius computes ||A|| (one SVD) only for a matrix whose
    # first-level caps reach the certificate level of ||A x|| <= ||A||, for x
    # one power step on A*A from A's largest column. A 2 x 2 nilpotent (caps
    # near |c|/2, ||A|| = |c|) and the dim-24 Ginibre and nilpotent-like draws
    # (caps below 0.9 ||A||) take none; a unitary closes and takes one
    calls = []
    svd_ = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd_(*args, **kwargs)

    def svds(A):
        calls.clear()
        numerical_radius(A)
        return len(calls)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(49)
    for _ in range(10):
        c = rng.uniform(0.1, 10.0) * np.exp(2j * np.pi * rng.uniform())
        assert svds(np.array([[0.0, c], [0.0, 0.0]])) == 0, c
    for k in range(5):
        for kind in ("ginibre", "nilpotent-like"):
            assert svds(gen_instance(trial_rng(49, 0, k, 24), kind, 24)) == 0, (kind, k)
        assert svds(gen_instance(trial_rng(49, 0, k, 24), "unitary", 24)) == 1, k


@pytest.mark.parametrize("A, w", [
    (np.zeros((3, 3)), 0.0),
    (np.outer([1.0, 2j, -1.0], [0.5, 1.0, 1j]), (abs(0.5 + 1j) + 1.5 * math.sqrt(6.0)) / 2.0),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5),
])
def test_radius_norm_floor_survives_a_zero_vector(A, w):
    # the power step normalises A's largest column and A*y: for A = 0 both are
    # 0, and a RuntimeWarning fails the test. The public route and the harness
    # route (||A|| passed) give one value. w(u v*) = (|v* u| + ||u|| ||v||)/2
    A = np.asarray(A, dtype=complex)
    value = numerical_radius(A)
    assert value == pytest.approx(w, rel=1e-14, abs=0.0)
    assert _numerical_radii(A[None]).tolist() == [value]
    assert _harness_radii(A[None]) == [value]


def test_absolute_value_factors_share_the_norm():
    rng = np.random.default_rng(35)
    for n in (2, 4, 7):
        A = random_complex(rng, n)
        norm = spectral_norm(A)
        assert spectral_norm(polar(A).positive) == pytest.approx(norm, abs=1e-10)
        assert spectral_norm(polar(A.conj().T).positive) == pytest.approx(norm, abs=1e-10)


def test_radius_validates_input():
    with pytest.raises(ValueError):
        numerical_radius(np.ones((2, 3)))


def test_radius_rejects_non_finite_matrix():
    # eigvalsh of a NaN stack still returns numbers, so NaN must be caught first
    with pytest.raises(ValueError, match="non-finite"):
        numerical_radius(np.array([[np.nan, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        numerical_radius(np.array([[1.0, np.inf], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrices_rejected_everywhere(bad):
    # rejected on input, naming the function: the LAPACK drivers would raise
    # LinAlgError, or return a matrix of NaN, instead
    M = np.eye(2, dtype=complex)
    M[0, 1] = M[1, 0] = bad
    for op in (spectral_norm, polar, svd, hermitian_eig, numerical_radius, is_unitary):
        with pytest.raises(ValueError, match=f"{op.__name__}: matrix has non-finite"):
            op(M)
    with pytest.raises(ValueError, match="frac_power: matrix has non-finite"):
        frac_power(M, 0.5)
    for args in ((M, np.eye(2)), (np.eye(2), M)):
        with pytest.raises(ValueError, match="geometric_mean: matrix has non-finite"):
            geometric_mean(*args, 0.5)


def test_empty_matrices_rejected_everywhere():
    empty = np.zeros((0, 0), dtype=complex)
    for op in (spectral_norm, polar, svd, hermitian_eig, numerical_radius):
        with pytest.raises(ValueError, match="nonempty"):
            op(empty)
    with pytest.raises(ValueError, match="nonempty"):
        frac_power(empty, 0.5)


# --- matrix JSON -------------------------------------------------------------


def _matrix_json(M) -> dict:
    """M in the interchange format, each part as json writes a double."""
    data = [[[z.real, z.imag] for z in row] for row in np.asarray(M, dtype=complex).tolist()]
    return {"rows": len(data), "cols": len(data[0]), "data": data}


def test_matrix_json_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(40)
    A = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))) * 10.0 ** rng.integers(
        -8, 8, size=(3, 4)
    )
    A[0, 0] = complex(-0.0, 5e-324)  # signed zero and a subnormal survive too
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_matrix_json(A)))
    B = load_matrix(path)
    assert B.shape == A.shape
    assert np.array_equal(A.view(float), B.view(float))  # bitwise, incl. -0.0


def test_matrix_json_schema():
    obj = {"rows": 1, "cols": 1, "data": [[[1.0, 2.0]]]}
    back = matrix_from_json(json.loads(json.dumps(obj)))
    assert back.shape == (1, 1) and back[0, 0] == 1 + 2j


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {},
        {"rows": 1, "cols": 1},
        {"rows": 0, "cols": 1, "data": []},
        {"rows": 1, "cols": 2, "data": [[[1.0, 0.0]]]},
        {"rows": 1, "cols": 1, "data": [[[1.0]]]},
        {"rows": 1, "cols": 1, "data": [[["a", 0.0]]]},
        {"rows": 2, "cols": 1, "data": [[[1.0, 0.0]]]},
    ],
)
def test_matrix_json_validation(obj):
    with pytest.raises(ValueError, match="matrix JSON"):
        matrix_from_json(obj)


def test_load_matrix_errors(tmp_path):
    with pytest.raises(OSError, match="cannot read"):
        load_matrix(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_matrix(bad)
