import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from opineq.harness import MATRIX_KINDS, gen_instance, trial_rng
from opineq.linalg import (
    _RADIUS_GRID,
    _numerical_radii,
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


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_radius_scan_solves_half_the_grid(monkeypatch, n):
    # H(phi + pi) = -H(phi): the scan's one eigvalsh takes the angles of
    # [0, pi) only and reads f on [pi, 2 pi) from their smallest eigenvalues
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(M):
        calls.append(M.shape)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    numerical_radius(random_complex(np.random.default_rng(45), n))
    assert calls == [(1, _RADIUS_GRID // 2, n, n)]


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


def test_stacked_radius_kernel_is_bit_identical_to_numerical_radius():
    # each matrix of a stack keeps its own best value and its own stop rule,
    # and each candidate its own steps, so stacking changes no bit
    for n in range(1, 17):
        stack = [gen_instance(trial_rng(43, 0, k, n), kind, n) for k, kind in enumerate(MATRIX_KINDS)]
        assert _numerical_radii(np.stack(stack)).tolist() == [numerical_radius(A) for A in stack], n
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
    assert _numerical_radii(np.stack(stack).astype(complex)).tolist() == expected


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
