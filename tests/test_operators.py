import math
import warnings

import numpy as np
import pytest

from opineq import operators
from opineq.harness import MATRIX_KINDS, SweepConfig, gen_instance, trial_rng
from opineq.linalg import (
    _from_spectrum,
    _polar_frames,
    numerical_radius,
    spectral_norm,
)
from opineq.operators import (
    _PROFILE_STREAM,
    _angle,
    _philox,
    _schwarz_terms,
    angle_profile,
    check_geomean_lower,
    check_mixed_schwarz,
    check_radius_chain,
    check_reverse_cs,
    kittaneh_bound,
)
from opineq.scalars import _gamma_at, _mu_at

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_complex(rng, n):
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)


def unit_vector(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def values(report):
    return [v for _, v in report.terms]


# --- kittaneh_bound ----------------------------------------------------------


def test_kittaneh_hermitian_equals_norm():
    rng = np.random.default_rng(1)
    G = random_complex(rng, 5)
    H = (G + G.conj().T) / 2.0
    assert kittaneh_bound(H) == pytest.approx(spectral_norm(H), abs=1e-12)
    # each power is halved before the sum, so |A| + |A*| = 2|A| cannot overflow
    assert kittaneh_bound(np.diag([1.5e308, 0.0])) == 1.5e308


def test_kittaneh_nilpotent_is_half():
    # |A| = diag(0,1), |A*| = diag(1,0): the bound collapses to 1/2
    assert kittaneh_bound(NILPOTENT) == pytest.approx(0.5, abs=1e-14)


def test_kittaneh_between_radius_and_norm():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5, 8):
        A = random_complex(rng, n)
        kb = kittaneh_bound(A)
        assert numerical_radius(A) <= kb + 1e-8
        assert kb <= spectral_norm(A) + 1e-8


@pytest.mark.parametrize("kind", MATRIX_KINDS)
@pytest.mark.parametrize("dim", [2, 5])
def test_kittaneh_is_refined_bound_at_half_weight_exactly(kind, dim):
    # the radius chain's last term is mu(theta_x) * kittaneh_bound(A, v), mu
    # read from cos(theta_x): both compute m * ||S|| / 2 along the same path
    # with one rounding, so they agree to the last bit
    rng = trial_rng(17, 4, 0, dim)
    A = gen_instance(rng, kind, dim)
    x = gen_instance(rng, "unit-vector", dim)
    checked = 0
    for v in SweepConfig().v_grid:
        rep = check_radius_chain(A, v, x)
        if rep.angle_undefined:
            continue
        _, n1, n2, inner, r1, r2, _ = _schwarz_terms(
            A[None], _polar_frames(A[None]), v, x[None], x[None])
        _, s, c = _angle(n1, n2, inner, r1, r2)
        assert rep.terms[-1][1] == _mu_at(s, c)[0] * kittaneh_bound(A, v)
        checked += 1
    assert checked > 0
    assert kittaneh_bound(A) == kittaneh_bound(A, 0.5)


def test_kittaneh_bound_covers_radius_on_the_ensembles():
    for kind in MATRIX_KINDS:
        for dim in range(2, 9):
            A = gen_instance(trial_rng(23, 4, 0, dim), kind, dim)
            w = numerical_radius(A)
            for v in SweepConfig().v_grid:
                assert kittaneh_bound(A, v) >= w * (1.0 - 1e-12), (kind, dim, v)
    # nilpotent shift: the bound is tight at v = 1/2
    assert kittaneh_bound(NILPOTENT) == pytest.approx(numerical_radius(NILPOTENT), abs=1e-12)


def test_kittaneh_bound_is_the_svd_norm_of_its_sum():
    # the top eigenvalue of the positive semidefinite S/2 = (|A|^2v + |A*|^2(1-v))/2,
    # formed from the frame as the bound forms it (the Hermitian matrix of its
    # lower triangle), is its largest singular value: within 64 u relative
    # (u = 2^-53; at most 16 u on these draws)
    u = 2.0**-53
    for kind in MATRIX_KINDS:
        for dim in range(1, 17):
            A = gen_instance(trial_rng(29, 4, 0, dim), kind, dim)
            frame = _polar_frames(A)
            for v in SweepConfig().v_grid:
                p, q = frame.sigma ** (2.0 * v) / 2.0, frame.sigma ** (2.0 * (1.0 - v)) / 2.0
                S = _from_spectrum(frame.V, p) + _from_spectrum(frame.W, q)
                L = np.tril(S, -1)  # the lower triangle and real diagonal eigvalsh reads
                S = L + L.conj().T + np.diag(S.diagonal().real)
                norm = np.linalg.svd(S, compute_uv=False)[0]
                assert abs(kittaneh_bound(A, v) - norm) <= 64.0 * u * norm, (kind, dim, v)
    for n in (1, 2, 5):
        assert kittaneh_bound(np.zeros((n, n))) == 0.0
        assert np.linalg.svd(np.zeros((n, n)), compute_uv=False)[0] == 0.0
    # the range check still raises before any overflow warning can leak
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (0.0, 1.0):
            with pytest.raises(ValueError, match="double range"):
                kittaneh_bound(1e200 * np.diag([1.0, 0.5]), v)


def test_kittaneh_bound_rejects_bad_weight():
    for v in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="weight v"):
            kittaneh_bound(np.eye(2), v)


# --- check_mixed_schwarz -------------------------------------------------------


def test_mixed_schwarz_identity_equality():
    x = unit_vector(np.random.default_rng(7), 3)
    rep = check_mixed_schwarz(np.eye(3), x, x, 0.5)
    np.testing.assert_allclose(values(rep), [1.0, 1.0, 1.0], atol=1e-12)
    assert rep.holds and rep.outcome == "pass"


def test_mixed_schwarz_nilpotent_equality_case():
    # x = e2, y = e1: |<Ax,y>| = 1 meets the unrefined bound with theta = 0
    rep = check_mixed_schwarz(NILPOTENT, [0.0, 1.0], [1.0, 0.0], 0.5)
    np.testing.assert_allclose(values(rep), [1.0, 1.0, 1.0], atol=1e-12)
    assert rep.holds


@pytest.mark.parametrize("y", [[0.0, 1.0], [1e-200, 1.0], [1e-320, 1.0]])
def test_mixed_schwarz_orthogonal_vectors_take_mu_one_half(y):
    # theta = pi/2 up to a cosine whose square underflows to 0
    rep = check_mixed_schwarz(np.eye(2), [1.0, 0.0], y, 0.5)
    np.testing.assert_allclose(values(rep), [0.0, 0.5, 1.0], atol=1e-14)
    assert rep.outcome == "pass"


def test_mixed_schwarz_degenerate_vector_is_undefined_not_fail():
    # |A|^(1/2) e1 = 0 leaves the angle undefined
    rep = check_mixed_schwarz(NILPOTENT, [1.0, 0.0], [1.0, 0.0], 0.5)
    assert rep.angle_undefined
    assert rep.outcome == "angle-undefined"


def test_mixed_schwarz_sweep():
    rng = np.random.default_rng(8)
    A = random_complex(rng, 6)
    for v in (0.1, 0.25, 0.5, 0.75, 0.9):
        for _ in range(100):
            x = unit_vector(rng, 6)
            y = unit_vector(rng, 6)
            rep = check_mixed_schwarz(A, x, y, v)
            assert rep.outcome == "pass"
            assert rep.worst_slack >= -1e-8


def test_mixed_schwarz_validates_input():
    with pytest.raises(ValueError):
        check_mixed_schwarz(np.eye(2), [0.0, 0.0], [1.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        check_mixed_schwarz(np.eye(2), [1.0, 0.0], [1.0, 0.0], 1.5)


# --- check_radius_chain --------------------------------------------------------


def test_radius_chain_identity():
    x = unit_vector(np.random.default_rng(9), 4)
    rep = check_radius_chain(np.eye(4), 0.5, x)
    np.testing.assert_allclose(values(rep), [1.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert rep.holds


def test_radius_chain_nilpotent_tight():
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = check_radius_chain(NILPOTENT, 0.5, x)
    np.testing.assert_allclose(values(rep), [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert rep.holds


def test_radius_chain_dominates_numerical_radius_terms():
    # last chain term with theta_x is a per-vector certificate: it always
    # dominates |<Ax,x>| for that same x
    rng = np.random.default_rng(10)
    for n in (2, 4, 8):
        A = random_complex(rng, n)
        for v in (0.0, 0.3, 0.5, 1.0):
            for _ in range(50):
                rep = check_radius_chain(A, v, unit_vector(rng, n))
                if rep.angle_undefined:
                    continue
                vals = values(rep)
                assert vals[0] <= vals[-1] + 1e-8
                assert rep.outcome == "pass"


def test_radius_chain_requires_unit_vector():
    with pytest.raises(ValueError, match="unit"):
        check_radius_chain(np.eye(2), 0.5, [2.0, 0.0])


@pytest.mark.parametrize("v", [0.0, 0.9, 1.0])
def test_radius_chain_raises_out_of_range_before_any_overflow(v):
    # |A|^2v or |A*|^2(1-v) leaves the double range: the documented
    # ValueError, and no overflow warning from the norms before it
    with pytest.raises(ValueError, match="double range"):
        check_radius_chain(1e200 * np.diag([1.0, 0.5]), v, [1.0, 0.0])


def test_chain_verdicts_do_not_depend_on_the_scale_of_A(monkeypatch):
    # the chains scale with A, so a defect of one part in 1e6 must fail at every
    # scale, and no absolute floor may swamp it on small A
    D, e1 = np.diag([1.0, 0.5, 0.25]), np.array([1.0, 0.0, 0.0])
    scales = [2.0**k for k in range(-60, 61)]

    def verdicts():
        return {(check_mixed_schwarz(s * D, e1, e1, 0.5).holds,
                 check_radius_chain(s * D, 0.5, e1).holds) for s in scales}

    assert verdicts() == {(True, True)}
    exact_mu = operators._mu_at
    monkeypatch.setattr(operators, "_mu_at", lambda s, c: exact_mu(s, c) * (1.0 - 1e-6))
    assert verdicts() == {(False, False)}


def test_chains_through_A_are_judged_at_a_unit_scale():
    # |A|^v x and the spectra sigma^2v leave the double range beyond ||A|| ~ 1e154:
    # mixed Schwarz passed on terms (1e200, inf, inf), and the geometric-mean
    # check refused an invertible A; at 1e-200 the angle was undefined
    e1 = np.array([1.0, 0.0])
    for scale in (1e200, 1e-200):
        A = scale * np.diag([1.0, 0.5])
        for rep in (check_mixed_schwarz(A, e1, e1, 1.0), check_geomean_lower(A, 1.0, e1)):
            assert rep.outcome == "pass", rep
            assert all(value == pytest.approx(scale, rel=1e-14) for _, value in rep.terms), rep
    # the reports of A*2^k, |k| = 300 to 1000, are those of A, read back
    # exactly: A's largest part already lies in [1/2, 1)
    rng = np.random.default_rng(17)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = G / (2.0 ** math.ceil(math.log2(np.abs(np.stack([G.real, G.imag])).max() * 1.0001)))
    x = gen_instance(rng, "unit-vector", 4)
    y = gen_instance(rng, "unit-vector", 4)
    for k in (300, -300, 700, -700, 1000, -1000):
        Ak = np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k)
        for check in (lambda M: check_mixed_schwarz(M, x, y, 0.3),
                      lambda M: check_geomean_lower(M, 0.3, x)):
            rep, rep_k = check(A), check(Ak)
            assert rep_k.terms == tuple((n, math.ldexp(v, k)) for n, v in rep.terms)
            assert (rep_k.holds, rep_k.worst_slack) == (rep.holds, math.ldexp(rep.worst_slack, k))


def test_chains_through_x_and_y_are_judged_at_a_unit_scale(monkeypatch):
    # a vector longer than ~1.3e154 had norm inf: reverse Cauchy-Schwarz
    # passed vacuously on terms (0, inf, 1e200) with worst slack -inf, and
    # mixed Schwarz reported the angle undefined
    e1 = np.array([1.0, 0.0])
    reports = (check_reverse_cs([1e200, 0.0], e1, 0.3),
               check_mixed_schwarz(np.diag([1.0, 0.5]), [1e200, 0.0], e1, 0.5))
    for rep in reports:
        assert rep.outcome == "pass", rep
        assert rep.terms[-1][1] == pytest.approx(1e200, rel=1e-14), rep
        assert math.isfinite(rep.worst_slack), rep
    # judged, not waved through: a factor 1% off fails at that length
    monkeypatch.setattr(operators, "_gamma_at", lambda t, s, c: 1.01 * _gamma_at(t, s, c))
    monkeypatch.setattr(operators, "_mu_at", lambda s, c: 0.99 * _mu_at(s, c))
    assert not check_reverse_cs([1e200, 0.0], e1, 0.3).holds
    assert not check_mixed_schwarz(np.diag([1.0, 0.5]), [1e200, 0.0], e1, 0.5).holds
    monkeypatch.undo()
    # the reports of x*2^k, |k| = 300 to 1000, are those of x, read back
    # exactly: the largest part of x already lies in [1/2, 1)
    rng = np.random.default_rng(23)
    A = random_complex(rng, 3)
    x = unit_vector(rng, 3)
    x = x / 2.0 ** math.ceil(math.log2(np.abs(np.stack([x.real, x.imag])).max() * 1.0001))
    y = unit_vector(rng, 3)
    for k in (300, -300, 700, -700, 1000, -1000):
        xk = np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k)
        for check in (lambda u: check_reverse_cs(u, y, 0.3),
                      lambda u: check_mixed_schwarz(A, u, y, 0.3)):
            rep, rep_k = check(x), check(xk)
            assert rep_k.terms == tuple((n, math.ldexp(v, k)) for n, v in rep.terms)
            assert (rep_k.holds, rep_k.worst_slack) == (rep.holds, math.ldexp(rep.worst_slack, k))


@pytest.mark.filterwarnings("error")
def test_chains_read_back_beyond_the_double_range_keep_their_sign():
    # x and y at 2^700 give chains of size 2^1400: each term and worst slack
    # reads back as the unit-scale value times 2^1400, an inf of its sign
    # where nonzero, with no overflow warning, and the verdict is the one
    # judged at unit scale; every report holds Python floats and bools
    rng = np.random.default_rng(29)
    big = 2.0**700
    negative = 0
    for _ in range(40):
        A, x, y = random_complex(rng, 3), unit_vector(rng, 3), unit_vector(rng, 3)
        for check in (lambda M, u, w: check_reverse_cs(u, w, 0.3),
                      lambda M, u, w: check_mixed_schwarz(M, u, w, 0.3)):
            rep, rep_big = check(A, x, y), check(A * big, x * big, y * big)
            expected = [v if v == 0.0 else math.copysign(math.inf, v)
                        for v in [v for _, v in rep.terms] + [rep.worst_slack]]
            assert [v for _, v in rep_big.terms] + [rep_big.worst_slack] == expected
            assert rep_big.holds == rep.holds
            for report in (rep, rep_big):
                assert all(type(v) is float for _, v in report.terms)
                assert type(report.holds) is bool and type(report.worst_slack) is float
            negative += rep.worst_slack < 0.0
    assert negative


def test_chains_hold_with_x_near_the_smallest_singular_direction():
    # the terms round at about eps*||A||, far above the auxiliary norms'
    # product n1*n2 when x lies in the small singular directions of A
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    x = Q[:, 1]
    A = Q @ np.diag([1.0, 1e-7, 0.5]) @ Q.conj().T
    assert check_geomean_lower(A, 0.5, x).holds
    A = Q @ np.diag([1.0, 1e-10, 0.5]) @ Q.conj().T
    assert check_mixed_schwarz(A, x, x, 0.5).holds
    assert check_radius_chain(A, 0.5, x).holds


# --- check_reverse_cs ----------------------------------------------------------


def test_reverse_cs_parallel_is_equality():
    x = np.array([1.0, 2.0j, 3.0])
    rep = check_reverse_cs(x, x, 0.3)
    vals = values(rep)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)
    assert vals[2] == pytest.approx(float(np.linalg.norm(x)) ** 2, rel=1e-12)
    assert rep.holds


def test_reverse_cs_orthogonal_collapses():
    # also where cos(theta)^2 underflows to 0, at t and at the sharp t = 1/2
    for y in ([0.0, 1.0], [1e-200, 1.0], [1e-320, 1.0]):
        for t in (0.3, 0.4):
            rep = check_reverse_cs([1.0, 0.0], y, t)
            np.testing.assert_allclose(values(rep), [0.0, 0.0, 0.0], atol=1e-14)
            assert rep.outcome == "pass", (y, t, rep)


@pytest.mark.parametrize("inner", [0.0, 1e-320, 1e-200, 1e-160])
def test_nearly_orthogonal_rows_get_their_floats_bits(inner):
    # a block's row against the public checks' float route, at a cosine
    # whose square underflows or is subnormal
    ones = np.ones(2)
    rows = np.array([inner, 0.5])
    block = (operators._reverse_cs_chains(ones, ones, rows, np.full(2, 0.3), 1e-12, 1e-12),
             operators._mixed_schwarz_chains(rows, ones, ones, rows, ones, ones, ones, ones,
                                             ones, 1e-12))
    lone = (operators._reverse_cs_chains(1.0, 1.0, inner, 0.3, 1e-12, 1e-12),
            operators._mixed_schwarz_chains(inner, 1.0, 1.0, inner, 1.0, 1.0, 1.0, 1.0, 1.0,
                                            1e-12))
    for (terms, holds, worst, defined), (t1, h1, w1, d1) in zip(block, lone):
        assert [float(term[0]) for term in terms] == list(t1)
        assert (bool(holds[0]), float(worst[0]), bool(defined[0])) == (h1, w1, d1)
        assert h1 and d1


def test_reverse_cs_sweep_and_half_sharpness():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = float(rng.uniform(0.02, 0.98))
        rep = check_reverse_cs(x, y, t)
        assert rep.outcome == "pass", (x, y, t, rep)


def test_reverse_cs_validates_input():
    with pytest.raises(ValueError):
        check_reverse_cs([0.0, 0.0], [1.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        check_reverse_cs([1.0, 0.0], [1.0, 0.0], 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected_naming_the_check(bad):
    # rejected on input: a NaN vector gave reverse CS a NaN worst slack, and a
    # NaN matrix made the SVD-based checks raise LinAlgError
    A, x = np.eye(2), np.array([1.0, 0.0])
    A_bad, x_bad = np.array([[1.0, bad], [0.0, 1.0]]), np.array([bad, 1.0])
    calls = {
        "check_reverse_cs": [lambda: check_reverse_cs(x_bad, x, 0.5),
                             lambda: check_reverse_cs(x, x_bad, 0.5)],
        "check_mixed_schwarz": [lambda: check_mixed_schwarz(A_bad, x, x, 0.5),
                                lambda: check_mixed_schwarz(A, x_bad, x, 0.5),
                                lambda: check_mixed_schwarz(A, x, x_bad, 0.5)],
        "check_radius_chain": [lambda: check_radius_chain(A_bad, 0.5, x),
                               lambda: check_radius_chain(A, 0.5, x_bad)],
        "check_geomean_lower": [lambda: check_geomean_lower(A_bad, 0.5, x),
                                lambda: check_geomean_lower(A, 0.5, x_bad)],
        "kittaneh_bound": [lambda: kittaneh_bound(A_bad)],
        "angle_profile": [lambda: angle_profile(A_bad, 0.5, 10, seed=1)],
    }
    for who, thunks in calls.items():
        for call in thunks:
            with pytest.raises(ValueError, match=f"{who}: (matrix|vector) has non-finite"):
                call()


# --- check_geomean_lower --------------------------------------------------------


def test_geomean_lower_identity():
    rep = check_geomean_lower(np.eye(3), 0.5, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(values(rep), [1.0, 1.0, 1.0], atol=1e-12)
    assert rep.holds


def test_geomean_lower_unitary_diagonal_pair():
    # the mixing vector sees both phases: theta_x = pi/3 and the chain sits
    # at cos(pi/3) = 1/2 throughout
    A = np.diag([np.exp(1j * math.pi / 3.0), np.exp(-1j * math.pi / 3.0)])
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = check_geomean_lower(A, 0.5, x)
    np.testing.assert_allclose(values(rep), [0.5, 0.5, 0.5], atol=1e-12)
    assert rep.holds
    # for x = e1 only one phase contributes: theta_x = 0 and the chain is flat 1
    rep = check_geomean_lower(A, 0.5, [1.0, 0.0])
    np.testing.assert_allclose(values(rep), [1.0, 1.0, 1.0], atol=1e-12)


def test_geomean_lower_sweep_invertible():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 6):
        A = random_complex(rng, n) + 1.5 * np.eye(n)
        for v in (0.1, 0.5, 0.9):
            for _ in range(100):
                rep = check_geomean_lower(A, v, unit_vector(rng, n))
                assert rep.outcome == "pass"
                vals = values(rep)
                assert abs(vals[2] - vals[1]) <= 1e-10  # exact-equality last link


def test_geomean_lower_rejects_singular():
    with pytest.raises(ValueError, match="check_geomean_lower: .*positive definite"):
        check_geomean_lower(NILPOTENT, 0.5, [1.0, 0.0])


def _haar_unitary(rng, n):
    Q, R = np.linalg.qr(random_complex(rng, n))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _geomean_first_term_mpmath(A, v, x):
    """40-digit cos(theta_x) <(|A|^2v # |A*|^2(1-v)) x, x> from the textbook
    definitions: every power through an eigendecomposition of A*A or AA*, the
    mean as P^(1/2) (P^(-1/2) Q P^(-1/2))^(1/2) P^(1/2), and
    U* = |A| A^(-1)."""
    mpmath = pytest.importorskip("mpmath")

    def power(H, p):
        E, V = mpmath.eigh(H)
        return V * mpmath.diag([e**p for e in E]) * V.transpose_conj()

    with mpmath.workdps(40):
        Am = mpmath.matrix(A.tolist())
        xm = mpmath.matrix(x.tolist())
        AsA, AAs = Am.transpose_conj() * Am, Am * Am.transpose_conj()
        P, Q = power(AsA, v), power(AAs, 1 - mpmath.mpf(v))
        root, inv_root = power(P, 0.5), power(P, -0.5)
        G = root * power(inv_root * Q * inv_root, 0.5) * root
        form = (xm.transpose_conj() * G * xm)[0].real
        a1 = power(AsA, mpmath.mpf(v) / 2) * xm
        a2 = power(AsA, 0.5) * mpmath.inverse(Am) * power(AAs, (1 - mpmath.mpf(v)) / 2) * xm
        cos = abs((a2.transpose_conj() * a1)[0]) / (mpmath.norm(a1) * mpmath.norm(a2))
        return cos * form


def test_geomean_first_term_matches_mpmath_on_ill_conditioned_matrices():
    # sigma_min/sigma_max from 1e-1 to 1e-4: forming |A|^2v and |A*|^2(1-v)
    # and solving their eigenproblems again squared the conditioning (4.5e-8)
    rng = np.random.default_rng(17)
    v_grid = SweepConfig().v_grid
    for i in range(42):
        n = 2 + i % 3
        sigma = np.geomspace(1.0, 10.0 ** rng.uniform(-4.0, -1.0), n)
        A = _haar_unitary(rng, n) @ np.diag(sigma) @ _haar_unitary(rng, n).conj().T
        v, x = v_grid[i % len(v_grid)], unit_vector(rng, n)
        got = values(check_geomean_lower(A, v, x))[0]
        ref = _geomean_first_term_mpmath(A, v, x)
        assert abs(got - ref) <= 1e-11 * abs(ref), (n, v, sigma)


# --- angle_profile ---------------------------------------------------------------


def test_profile_identity_and_hermitian_pd_are_flat_zero():
    prof = angle_profile(np.eye(3), 0.3, 300, seed=1)
    assert prof.theta_max <= 1e-7
    rng = np.random.default_rng(13)
    G = random_complex(rng, 4)
    H = G.conj().T @ G + np.eye(4)
    prof = angle_profile(H, 0.5, 300, seed=1)
    assert prof.theta_max <= 1e-7
    assert prof.skipped == 0


def test_profile_deterministic():
    rng = np.random.default_rng(14)
    A = random_complex(rng, 4)
    p1 = angle_profile(A, 0.25, 400, seed=77)
    p2 = angle_profile(A, 0.25, 400, seed=77)
    assert p1 == p2
    p3 = angle_profile(A, 0.25, 400, seed=78)
    assert p1 != p3


def test_profile_is_the_same_at_every_scale_of_A():
    # theta_x does not change under A -> 2^k A, yet at 1e-200 every sampled
    # angle read as undefined for v = 0 or 1, and at 1e200 an overflow leaked
    G = random_complex(np.random.default_rng(15), 3)
    k0 = -math.frexp(np.abs(np.stack([G.real, G.imag])).max())[1]
    A = np.ldexp(G.real, k0) + 1j * np.ldexp(G.imag, k0)  # largest part in [1/2, 1)
    for v in (0.0, 1.0):
        profile = angle_profile(A, v, 200, seed=9)
        for k in (700, -700):
            Ak = np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k)
            assert angle_profile(Ak, v, 200, seed=9) == profile, (v, k)


def test_profile_nilpotent_half_weight_collapses_to_zero():
    # |A|^v = diag(0, 1) for every v in (0, 1], so both auxiliary vectors
    # align and theta_x = 0 identically; min/max agree across resolutions
    lo = angle_profile(NILPOTENT, 0.5, 1000, seed=5)
    hi = angle_profile(NILPOTENT, 0.5, 10_000, seed=6)
    assert lo.theta_max <= 1e-7 and hi.theta_max <= 1e-7
    assert abs(lo.theta_min - hi.theta_min) <= 1e-7
    assert lo.skipped == 0


def test_profile_nilpotent_zero_weight_spans():
    # at v = 0 the angle is arccos(|x_2|), which sweeps (0, pi/2)
    bin_width = (math.pi / 2.0) / 36.0
    lo = angle_profile(NILPOTENT, 0.0, 1000, seed=5)
    hi = angle_profile(NILPOTENT, 0.0, 10_000, seed=6)
    assert lo.theta_max - lo.theta_min > 1.0
    assert abs(lo.theta_min - hi.theta_min) <= bin_width
    assert abs(lo.theta_max - hi.theta_max) <= bin_width
    assert sum(c for _, c in lo.histogram) == 1000 - lo.skipped
    assert all(0.0 < center < math.pi / 2.0 for center, _ in lo.histogram)


def test_profile_counts_skips_and_rejects_empty():
    # the zero matrix leaves every angle undefined
    with pytest.raises(ValueError, match="empty"):
        angle_profile(np.zeros((2, 2)), 0.5, 50, seed=3)
    with pytest.raises(ValueError):
        angle_profile(np.eye(2), 0.5, 0, seed=3)


def test_profile_samples_the_chain_checks_theta(monkeypatch):
    # each sample's cos(theta_x) is the one the chain checks take for that
    # vector, bit for bit; cos, not theta, because np.arccos and math.acos
    # may round differently
    samples = 300
    for k, kind in enumerate(MATRIX_KINDS):
        for n, v in ((2, 0.0), (3, 0.25), (5, 0.5), (8, 0.9)):
            A = gen_instance(trial_rng(16, 3, k, n), kind, n)
            seen = []
            arccos = np.arccos
            monkeypatch.setattr(np, "arccos", lambda c: seen.append(c) or arccos(c))
            angle_profile(A, v, samples, seed=k)
            monkeypatch.undo()
            rng = _philox(k, _PROFILE_STREAM)
            Z = rng.normal(size=(samples, n)) + 1j * rng.normal(size=(samples, n))
            X = Z / np.linalg.norm(Z, axis=1)[:, None]
            frame = _polar_frames(A)
            expected = []
            for x in X:
                _, n1, n2, inner, r1, r2, _ = _schwarz_terms(A, frame, v, x, x)
                defined, _, c = _angle(n1, n2, inner, r1, r2)
                if defined:
                    expected.append(c)
            assert seen[0].tolist() == expected, (kind, n, v)
