"""Desk-scale dense complex linear algebra.

Hermitian eigendecomposition, SVD, the polar frame (one SVD that supplies
U, |A|^p and |A*|^p), fractional powers, weighted geometric means, spectral
norm, numerical radius, and the JSON interchange format for matrices.
Matrices are plain complex ndarrays; decompositions are validated against
their reconstruction contracts in the test suite.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .scalars import _scaled_back, _unit_scaled

__all__ = [
    "EigSystem",
    "PolarFrame",
    "is_unitary",
    "hermitian_eig",
    "svd",
    "polar",
    "frac_power",
    "geometric_mean",
    "spectral_norm",
    "numerical_radius",
    "matrix_from_json",
    "load_matrix",
    "DEFAULT_TOL",
    "PD_FLOOR_REL",
]

DEFAULT_TOL = 1e-10

# relative floor on eigenvalues below which a matrix is rejected as "not
# positive definite enough for congruence inversion"
PD_FLOOR_REL = 1e-10


@dataclass(frozen=True)
class EigSystem:
    """Spectral decomposition M = vectors @ diag(values) @ vectors*."""

    values: np.ndarray   # real, ascending
    vectors: np.ndarray  # orthonormal columns


# Array helpers: each takes one matrix (or vector) or a stack of them along
# leading axes. The public functions validate one matrix and call them on it.


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return M.conj().swapaxes(-1, -2)


def _from_spectrum(Q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Q diag(d) Q*, before Hermitian symmetrisation."""
    return (Q * d[..., None, :]) @ _ct(Q)


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    # halved before the sum, so finite M stays finite; halving is exact above subnormals
    return M / 2.0 + _ct(M) / 2.0


def _matvecs(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x, row by row of a stack."""
    return (M @ x[..., :, None])[..., 0]


def _moduli(z: np.ndarray) -> np.ndarray:
    """|z| elementwise as abs() of a numpy complex scalar computes it (hypot);
    np.abs on a complex array may take a vectorised path with other rounding."""
    return np.hypot(z.real, z.imag)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed as np.linalg.norm sums a complex
    vector (the real parts' dot plus the imaginary parts' dot), so each value
    is bit-identical to it; np.linalg.norm(x, axis=-1) sums otherwise."""
    re, im = x.real, x.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _powers(sigma: np.ndarray, p) -> np.ndarray:
    """sigma ** p, each row of a stack raised to its own entry of p. Each
    distinct exponent is applied as one scalar, so numpy's fast paths
    (**0.5 -> sqrt, **2 -> square) act exactly as for a float p."""
    if not isinstance(p, np.ndarray):
        return sigma**p
    out = np.empty_like(sigma)
    for q in dict.fromkeys(p.tolist()):
        rows = p == q
        out[rows] = sigma[rows] ** q
    return out


def _rolled(x: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(x, shift, axis=-1) as one take: on rows of 16-64 entries,
    np.roll's argument handling costs several times the copy."""
    n = x.shape[-1]
    return x.take((np.arange(n) - shift) % n, axis=-1)


@dataclass(frozen=True, eq=False)
class PolarFrame:
    """Polar decomposition A = U |A| held as the one SVD A = W diag(sigma) V*.

    Every power of |A| and |A*| comes from the same factors:
    U = W V*, |A|^p = V diag(sigma^p) V* and |A*|^p = W diag(sigma^p) W*.
    A frame from `_polar_frames` holds a stack of them, one per matrix.
    """

    W: np.ndarray
    sigma: np.ndarray  # descending
    V: np.ndarray

    @property
    def unitary(self) -> np.ndarray:
        return self.W @ _ct(self.V)

    @property
    def positive(self) -> np.ndarray:
        """|A| = (A*A)^(1/2)."""
        return _hermitian_part(_from_spectrum(self.V, self.sigma))


def _as_matrix(M, who: str) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"{who}: expected a nonempty 2-D matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{who}: matrix has non-finite entries")
    return A


def _as_square(M, who: str) -> np.ndarray:
    A = _as_matrix(M, who)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{who}: expected a square matrix, got shape {A.shape}")
    return A


def _as_vector(x, who: str) -> np.ndarray:
    v = np.asarray(x, dtype=complex).ravel()
    if v.size == 0:
        raise ValueError(f"{who}: empty vector")
    if not np.isfinite(v).all():
        raise ValueError(f"{who}: vector has non-finite entries")
    return v


def _fro(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def is_unitary(M, tol: float = DEFAULT_TOL) -> bool:
    A = _as_matrix(M, "is_unitary")
    if A.shape[0] != A.shape[1]:
        return False
    n = A.shape[0]
    return _fro(A.conj().T @ A - np.eye(n)) <= tol


def hermitian_eig(M, tol: float = DEFAULT_TOL) -> EigSystem:
    """Full spectral decomposition of a Hermitian matrix.

    Eigenvalues come back ascending with orthonormal eigenvector columns.
    Rejects non-square input and input whose Hermiticity defect
    ||M - M*|| exceeds tol * ||M||.
    """
    A = _require_hermitian(_as_square(M, "hermitian_eig"), tol, "hermitian_eig")
    w, V = np.linalg.eigh(_hermitian_part(A))
    return EigSystem(values=w, vectors=V)


def _require_hermitian(A: np.ndarray, tol: float, who: str) -> np.ndarray:
    defect = _fro(A - A.conj().T)
    if defect > tol * _fro(A):
        raise ValueError(
            f"{who}: matrix is not Hermitian: defect ||M - M*|| = {defect:.3e} "
            f"exceeds tol*||M|| = {tol * _fro(A):.3e}"
        )
    return A


def svd(M):
    """Singular value decomposition M = W @ diag(sigma) @ V*.

    Returns (W, sigma, V) with sigma descending and W, V unitary (full,
    also for singular M).
    """
    frame = _polar_frames(_as_square(M, "svd"))
    return frame.W, frame.sigma, frame.V


def _polar_frames(A: np.ndarray) -> PolarFrame:
    """The polar frame of A, or of every matrix of a stack, from one SVD call."""
    W, sigma, Vh = np.linalg.svd(A)
    return PolarFrame(W, sigma, _ct(Vh))


def polar(A) -> PolarFrame:
    """Polar decomposition A = U |A| through one SVD.

    With A = W diag(sigma) V*, the factors are U = W V* and
    |A| = V diag(sigma) V*. U is always a full unitary (the SVD supplies a
    unitary completion when A is singular), which makes the transport
    identity U |A|^p U* = |A*|^p hold for every p > 0.
    """
    return _polar_frames(_as_square(A, "polar"))


def frac_power(P, p: float) -> np.ndarray:
    """Spectral power P^p of a positive semidefinite matrix.

    Eigenvalues map to lambda^p with the conventions 0^p = 0 for p > 0 and
    p = 0 -> identity (also on the kernel). Eigenvalues in [-tol, 0) are
    clamped to 0 first; anything below -tol is rejected as not PSD, with
    tol = PD_FLOOR_REL * ||P||, relative as the rounding of the eigenvalues is.
    """
    A = _as_square(P, "frac_power")
    if not (np.isfinite(p) and p >= 0.0):
        raise ValueError(f"frac_power: exponent must be >= 0, got {p!r}")
    lam, Q = np.linalg.eigh(_hermitian_part(_require_hermitian(A, 1e-8, "frac_power")))
    clamp = float(_pd_floor(lam))
    if lam[0] < -clamp:
        raise ValueError(
            f"frac_power: matrix is not positive semidefinite "
            f"(min eigenvalue {lam[0]:.3e} < -{clamp:.3e})"
        )
    n = A.shape[0]
    if p == 0.0:
        return np.eye(n, dtype=complex)
    lam = np.where(lam < 0.0, 0.0, lam)
    return _hermitian_part(_from_spectrum(Q, lam**p))


def geometric_mean(A, B, t: float) -> np.ndarray:
    """Weighted geometric mean A #_t B = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2).

    Both arguments must be Hermitian with smallest eigenvalue above
    PD_FLOOR_REL times their spectral norm; otherwise the congruence
    inversion is refused. t = 1/2 gives the (symmetric) geometric mean.
    """
    A = _as_square(A, "geometric_mean")
    B = _as_square(B, "geometric_mean")
    if A.shape != B.shape:
        raise ValueError(f"geometric_mean: shape mismatch {A.shape} vs {B.shape}")
    if not (np.isfinite(t) and 0.0 <= t <= 1.0):
        raise ValueError(f"geometric_mean: weight t must lie in [0, 1], got {t!r}")
    lam_a, Va = np.linalg.eigh(_hermitian_part(_require_hermitian(A, 1e-8, "geometric_mean")))
    _require_pd(lam_a, "first operand")
    B = _require_hermitian(B, 1e-8, "geometric_mean")
    _require_pd(np.linalg.eigvalsh(_hermitian_part(B)), "second operand")
    root = _from_spectrum(Va, np.sqrt(lam_a))
    inv_root = _from_spectrum(Va, 1.0 / np.sqrt(lam_a))
    wi, Vi = np.linalg.eigh(_hermitian_part(inv_root @ B @ inv_root))
    wi = np.where(wi < 0.0, 0.0, wi)  # round-off guard; inner is PD here
    return _hermitian_part(root @ _from_spectrum(Vi, wi**t) @ root)


def _pd_floor(lam: np.ndarray) -> np.ndarray:
    """The eigenvalue floor of positive definiteness, per ascending spectrum
    (last axis): PD_FLOOR_REL times the spectral norm."""
    return PD_FLOOR_REL * np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))


def _pd_refused(lam: np.ndarray) -> np.ndarray:
    """Whether each ascending spectrum falls to its `_pd_floor` or below; the
    floor is relative, and the zero spectrum meets its floor of 0."""
    return lam[..., 0] <= _pd_floor(lam)


def _require_pd(lam: np.ndarray, label: str) -> None:
    """Refuse one ascending spectrum at or below its `_pd_floor`, naming the operand."""
    if _pd_refused(lam):
        raise ValueError(
            f"geometric_mean: {label} is not positive definite enough for "
            f"congruence inversion (min eigenvalue {lam[0]:.3e} <= {_pd_floor(lam):.3e})"
        )


def spectral_norm(M) -> float:
    """Largest singular value of M; the singular values alone, as
    np.linalg.norm(M, 2) computes them."""
    return float(np.linalg.svd(_as_matrix(M, "spectral_norm"), compute_uv=False)[0])


# Cap on the stacked eigh calls of the Newton phase; the stop rules end it
# after a handful.
_NEWTON_STEPS = 40

# Scan points on [0, 2*pi) of the support function, and the phi step at or
# below which a Newton candidate stops.
_RADIUS_GRID = 64
_REFINE_TOL = 1e-10

# Hermitian matrices per stacked eigvalsh of the scan in `_numerical_radii`:
# this bounds the scan's memory; it changes no value.
_RADIUS_SCAN_CHUNK = 128

# Rounding margin of the scan's pruning, per unit of n, relative to the best
# scan value L: eigvalsh's backward error is O(n u)||A||, with ||A|| <= 2w and
# w <= L / cos(pi/16) (no cap of a 2 pi/16 cell exceeds its larger end more),
# and a cap or a Newton value carries a few such errors. 2^-40 = 2^13 u leaves
# a thousandfold over those constants. It decides which angles are solved only.
_SCAN_ROUNDING = 2.0**-40

# Margin of the radius's certificates, per unit of n, relative to the bound:
# a value that reaches (1 - 16 n u) of ||A||, or of ||Re A|| + ||Im A||_F
# (u = 2^-53), is the radius, and the matrix's other scan levels and Newton
# starts are not run. The margin must exceed the rounding of both computed
# ends, or a normal matrix (w = ||A||) could not close: a value carries the
# four roundings per entry of forming H(phi) and the eigensolver's backward
# error, a Rayleigh quotient that error squared, ||A|| the SVD's and
# ||Re A|| the eigvalsh's, each near n u ||A|| after LAPACK's Householder
# reductions. 16 u per unit n leaves fourfold over them: unitary,
# Hermitian, PSD and diagonal matrices of dims 1-48 close within 3.8 n u
# ||A|| of ||A||.
_CERTIFICATE_ROUNDING = 2.0**-49


def _sinusoid_caps(f0: np.ndarray, f1: np.ndarray, half: float) -> np.ndarray:
    """Cap of a support function f on cells of half-width `half` < pi/2 with end
    values f0, f1: the top on the cell of the sinusoid s through them. f - s is
    a maximum of sinusoids, each <= 0 at both ends, so none is positive inside
    (a sinusoid's positive set is an interval of length pi). An end of -inf
    gives the other end. The top, one libm hypot a cell, is taken only on the
    cells that use it."""
    with np.errstate(invalid="ignore"):
        p, q = (f0 + f1) / (2.0 * np.cos(half)), (f1 - f0) / (2.0 * np.sin(half))
        inside = np.abs(q) < p * np.tan(half)  # the sinusoid's top lies inside
        caps = np.maximum(f0, f1)
        caps[inside] = np.maximum(caps[inside], np.hypot(p[inside], q[inside]))
        return caps


def numerical_radius(A) -> float:
    """Numerical radius w(A) = sup over unit x of |<Ax, x>|.

    w(A) is the maximum over phi of f(phi), the top eigenvalue of
    H(phi) = (e^{i*phi} A + e^{-i*phi} A*)/2: f is the support function of
    the numerical range. f is scanned on a grid of 64 angles, only where its
    maximum can lie: each eigvalsh at phi in [0, pi) gives f(phi) and, as
    minus its smallest eigenvalue, f(phi + pi). From 16 grid angles, each
    cell whose cap (`_sinusoid_caps`: f lies below it) reaches the best value
    L, less a rounding margin, is bisected on the grid, twice. Every local
    maximum of the values found (an unsolved one counts as -inf) whose two
    cells' caps reach L is a Newton start: it takes safeguarded Newton steps
    on phi, all candidates through one stacked eigh per step. With top
    eigenpair (f, x), the other pairs (lambda_k, q_k) and
    K = dH/dphi = H(phi + pi/2), the slope is f' = x* K x (Hellmann-Feynman)
    and the curvature f'' = -f + 2 sum_k |q_k* K x|^2 / (f - lambda_k). A
    candidate never leaves the two scan cells around its scan point. Where
    f'' >= 0 or is not finite it takes the gradient step f'/|f|: the Newton
    step for f'' = -f, the most negative curvature a support function can
    have (f + f'' >= 0), hence the shortest one. A candidate stops once its
    step is at most 1e-10 or its f gains no more than rounding.

    The result is the largest value found: every f evaluated and the
    Rayleigh quotients at phi = 0 below (a dropped start could only reach
    values below L). Each is attained, so the result is a lower estimate of
    w(A). Two upper bounds close it where that can pay: a value that reaches
    the certificate level (1 - 16 n u) of a bound (u = 2^-53) is the result,
    since w(A) lies between it and the bound (up to their rounding), within
    16 n u of both. The grid angle phi = 0 is solved first, alone.

    - w(A) <= ||Re A|| + ||Im A|| <= max(f(0), f(pi)) + ||Im A||_F, by the
      triangle inequality for w. A matrix with ||Im A||_F <= 8 u sqrt(n)
      ||Re A||_F, which reaches that level whatever its spectrum since
      ||Re A|| >= ||Re A||_F / sqrt(n), solves phi = 0 by one eigvalsh and
      closes there: so does every Hermitian, PSD or real-diagonal A, also
      one Hermitian only up to rounding, with no SVD.
    - Every other matrix solves phi = 0 by one eigh. For its bottom and top
      eigenvectors x of H(0), |x* A x| / ||x||^2 is an attained value. For a
      normal A they are eigenvectors of A, so for a unitary the quotient is
      ||A||, and the bound w(A) <= ||A|| closes it after that one eigh.

    A matrix that closes on neither solves the first level's other 7
    angles. One whose largest cap of the first level (16 angles) reaches
    the level of ||A|| skips both bisections and tries Newton from its best
    first-level angle alone, within that angle's two first-level cells (4
    grid steps either way); if the try reaches the level, it is the result.
    A normal matrix whose quotients miss ||A|| closes this way. Otherwise
    the try's values are dropped, and the matrix takes the rest of the scan
    and all its starts, exactly as without the bound. ||A|| comes from the
    SVD of `polar`, computed only for a matrix whose phi = 0 value or
    first-level caps reach the level of ||A x|| <= ||A|| (`_norm_floors`,
    one power step on A*A, itself taken only where the structural bound
    did not close), so a matrix that cannot close, such as a 2 x 2
    nilpotent (caps near ||A||/2), takes no SVD.

    w(A) has degree 1 in A. An A whose largest real or imaginary part lies
    outside [2^-256, 2^256], where |q_k* K x|^2 can leave the double range and
    stop Newton early, is taken to unit scale (`scalars._unit_scaled`) and its
    radius read back.
    """
    A = _as_square(A, "numerical_radius")
    k, (A,) = _unit_scaled((A,), max(np.abs(A.real).max(), np.abs(A.imag).max()))
    return _scaled_back(float(_numerical_radii(A[None])[0]), k)


def _norm_floors(A: np.ndarray) -> np.ndarray:
    """||A x|| <= ||A|| for a unit x, per matrix: one power step on A*A from
    A's largest column y, x = A*y/||A*y||. Each vector is normalised before
    it is multiplied, so no square of a norm leaves the double range where
    A's parts lie in [2^-256, 2^256]; a zero vector (A = 0) stays 0."""
    cols = A.swapaxes(-1, -2)  # the rows are A's columns
    x = cols[np.arange(len(A)), np.argmax(_norms(cols), axis=1)]
    for M in (_ct(A), A):
        size = _norms(x)
        x = _matvecs(M, x / np.where(size > 0.0, size, 1.0)[:, None])
    return _norms(x)


def _fro_over(M: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """||M||_F / scale per matrix of the stack M, each part divided before it
    is squared: where scale is about M's largest part, no square leaves the
    double range (a complex quotient by a subnormal scale would overflow)."""
    re, im = (P.reshape(len(M), -1) / scale[:, None] for P in (M.real, M.imag))
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _numerical_radii(A: np.ndarray, norms=None) -> np.ndarray:
    """`numerical_radius` of each matrix of the stack A (m, n, n).

    `norms` holds each ||A||, the top singular value of `_polar_frames(A)`,
    or is None to compute it, by that SVD, only for a matrix whose phi = 0
    value or first-level caps reach the certificate level of its
    `_norm_floors`; an infinite norm never closes. Both routes close alike
    at phi = 0: the matrices that the bound ||Hr|| + ||Hi||_F must close
    (Hi = -Im A) take one stacked eigvalsh there, and close with no
    `_norm_floors` and no SVD; the others take one stacked eigh, whose
    bottom and top eigenvectors give Rayleigh quotients that join their
    best value before it is tested against ||A||. The call returns once
    every matrix has closed. The others solve the rest of the first level.
    The certificate's tries climb with every other matrix's starts; a
    matrix whose try stays below the level finishes its scan and climbs
    again, as with an infinite norm. Every matrix keeps its own scan
    levels, its own best value and its own stop rule; only the
    eigen-solver calls are shared. So each value is bit-identical to
    `numerical_radius` of that matrix alone where its largest part lies in
    [2^-256, 2^256]; the sweep draws none beyond, so this harness path
    takes no unit scale of its own.
    """
    # H(phi) = cos(phi) Hr + sin(phi) Hi and K(phi) = cos(phi) Hi - sin(phi) Hr
    Hr, Hi = _hermitian_part(A), _hermitian_part(1j * A)
    m, n = A.shape[0], A.shape[-1]
    step, half = 2.0 * np.pi / _RADIUS_GRID, _RADIUS_GRID // 2
    width = _RADIUS_GRID // 16  # grid steps per cell of the first level
    margin, certain = 1.0 - _SCAN_ROUNDING * n, 1.0 - _CERTIFICATE_ROUNDING * n

    def parts(owner):  # a lone matrix broadcasts, not copied per angle: it stays in cache
        return (Hr, Hi) if m == 1 else (Hr[owner], Hi[owner])

    tops = np.full((m, _RADIUS_GRID), -np.inf)  # -inf: not solved

    def solve(todo):  # solve the grid angles `todo` of [0, pi): f there and pi further on
        owner, cell = np.nonzero(todo)
        for lo in range(0, owner.size, _RADIUS_SCAN_CHUNK):
            o, j = owner[lo:lo + _RADIUS_SCAN_CHUNK], cell[lo:lo + _RADIUS_SCAN_CHUNK]
            hr, hi = parts(o)
            H = np.cos(step * j)[:, None, None] * hr
            H += np.sin(step * j)[:, None, None] * hi
            lam = np.linalg.eigvalsh(H)
            del H  # before the next chunk's product is allocated
            tops[o, j], tops[o, j + half] = lam[:, -1], -lam[:, 0]

    def cell_caps(span):  # the caps of the cells [i, i + span] of the grid
        f0 = tops[:, ::span]
        return _sinusoid_caps(f0, _rolled(f0, -1), span * step / 2.0)

    def scan(rows, caps):  # bisect the live first-level cells of `rows` on the grid, twice
        for span in (width, width // 2):
            live = (caps >= margin * tops.max(axis=1)[:, None]) & rows[:, None]
            todo = np.zeros((m, half), dtype=bool)  # the live cells' midpoints, read mod pi
            todo[:, span // 2::span] = live[:, :half // span] | live[:, half // span:]
            solve(todo)
            caps = cell_caps(span // 2)
        return caps

    def starts(caps, rows):  # the peaks of `rows` whose two cells' caps reach their best value
        peak = (tops >= _rolled(tops, 1)) & (tops >= _rolled(tops, -1))
        live = caps >= margin * tops.max(axis=1)[:, None]
        return peak & (live | _rolled(live, 1)) & rows[:, None]

    def climb(start, reach):  # Newton from the grid angles of `start`, raising each owner's best
        owner, cell = np.nonzero(start)
        phi = step * cell
        ends = phi + np.multiply.outer((-1.0, 1.0), reach[owner])  # the owner's reach either way
        f_prev = np.full(phi.shape, -np.inf)
        for _ in range(_NEWTON_STEPS):
            if not owner.size:
                return
            cos, sin = np.cos(phi)[:, None, None], np.sin(phi)[:, None, None]
            hr, hi = parts(owner)
            lam, Q = np.linalg.eigh(cos * hr + sin * hi)
            f, x = lam[:, -1], Q[:, :, -1:]
            np.fmax.at(best, owner, f)  # each owner's best, NaN ignored as by max()
            c = (_ct(Q) @ (cos * (hi @ x) - sin * (hr @ x)))[:, :, 0]  # q_k* K x
            slope = c[:, -1].real
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                curv = 2.0 * (np.abs(c[:, :-1]) ** 2 / (f[:, None] - lam[:, :-1])).sum(axis=1) - f
                dphi = np.where(curv < 0.0, -slope / curv, slope / np.abs(f))
            # A = 0 gives the step 0/0 = NaN, which fails the step test below
            nxt = np.minimum(np.maximum(phi + dphi, ends[0]), ends[1])
            # rounding: four units in the last place of the owner's best value so far
            live = ((f - f_prev > 4.0 * np.spacing(np.abs(best[owner])))
                    & (np.abs(nxt - phi) > _REFINE_TOL))
            phi, ends, f_prev, owner = nxt[live], ends[:, live], f[live], owner[live]

    floors = None
    if norms is None:  # w <= ||A||: the SVD only where a value reaches the level of a lower
        # bound, with the margin twice: a computed ||A x|| may exceed the SVD's ||A|| by rounding
        norms, floors = np.full(m, np.inf), np.full(m, np.nan)  # NaN: not computed yet

    def closes(value, rows):  # whether each of `rows` reaches its certificate level by ||A||
        if floors is not None:
            new = rows & np.isnan(floors)
            if new.any():
                floors[new] = certain * certain * _norm_floors(A[new])
            near = rows & (value >= floors) & np.isinf(norms)  # not computed yet
            if near.any():
                norms[near] = _polar_frames(A[near]).sigma[:, 0]
        return rows & (value >= certain * norms)

    # phi = 0 alone. w = w(Hr - i Hi) <= ||Hr|| + ||Hi||_F, and ||Hr|| = max(f(0), f(pi)) >=
    # ||Hr||_F / sqrt(n): a `flat` row reaches that bound's level (margin halved for rounding)
    scale = np.maximum(np.abs(A.real).max(axis=(1, 2)), np.abs(A.imag).max(axis=(1, 2)))
    scale = np.where(scale > 0.0, scale, 1.0)  # A's largest part, divided out by `_fro_over`
    hr_f, hi_f = _fro_over(Hr, scale), _fro_over(Hi, scale)
    flat = hi_f <= (1.0 - certain) / 2.0 * hr_f / np.sqrt(n)
    H, lam = Hr + 0.0 * Hi, np.empty((m, n))  # H(0) as `solve` builds it
    quot = np.full(m, -np.inf)  # the larger Rayleigh quotient |x* A x| / ||x||^2: attained
    if flat.any():
        lam[flat] = np.linalg.eigvalsh(H[flat])
    if not flat.all():  # a normal A's eigenvectors of H(0) are its own: a unitary's give ||A||
        lam[~flat], Q = np.linalg.eigh(H[~flat])
        X = Q[..., [0, -1]]  # the bottom and top eigenvectors
        with np.errstate(over="ignore"):  # inf only where ||A|| leaves the double range
            XAX = _moduli(np.vecdot(X, A[~flat] @ X, axis=-2))
        quot[~flat] = (XAX / np.vecdot(X, X, axis=-2).real).max(axis=1)
    tops[:, 0], tops[:, half] = lam[:, -1], -lam[:, 0]
    best = np.maximum(np.maximum(tops[:, 0], tops[:, half]), quot)
    done = flat & (best / scale >= certain * (best / scale + hi_f))
    rest = ~done & ~closes(best, ~done)
    if not rest.any():
        return best
    todo = np.zeros((m, half), dtype=bool)
    todo[:, width::width] = rest[:, None]  # the first level's other angles
    solve(todo)
    first = cell_caps(width)
    # Newton from the best first-level angle, over its cells
    trying = closes(first.max(axis=1), rest)
    search = rest & ~trying  # no empty scan where every matrix tries
    start = starts(scan(search, first), search) if search.any() else np.zeros(tops.shape, bool)
    best = np.maximum(tops.max(axis=1), quot)
    start[trying, np.argmax(tops[trying], axis=1)] = True
    climb(start, np.where(trying, width * step, step))
    failed = trying & (best < certain * norms)
    if failed.any():  # the try dropped: the rest of the scan and all starts, as with no bound
        caps = scan(failed, first)
        best[failed] = np.maximum(tops[failed].max(axis=1), quot[failed])
        climb(starts(caps, failed), np.full(m, step))
    return best


# --- matrix JSON interchange -------------------------------------------------
#
# {"rows": R, "cols": C, "data": [[[re, im], ...], ...]}  (row-major)
#
# A double written as json emits it, the shortest decimal repr that reparses
# to the same double, reads back bit-exactly.


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"matrix JSON: expected an object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ValueError(f"matrix JSON: missing key {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise ValueError(f"matrix JSON: rows/cols must be positive integers, got {rows!r}/{cols!r}")
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError(f"matrix JSON: data must be a list of {rows} rows")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"matrix JSON: row {i} must be a list of {cols} entries")
        for j, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ValueError(f"matrix JSON: entry ({i},{j}) must be an [re, im] pair")
            re, im = entry
            # the bound rejects NaN, +-Infinity and integers beyond the double range
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and abs(v) <= sys.float_info.max for v in (re, im)):
                raise ValueError(f"matrix JSON: entry ({i},{j}) must hold two finite numbers")
            out[i, j] = complex(re, im)
    return out


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise OSError(f"cannot read matrix from {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed matrix JSON in {path}: {err}") from err
    return matrix_from_json(obj)
