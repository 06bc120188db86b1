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


def _spectral_norms(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix; the singular values alone, as
    np.linalg.norm(M, 2) computes them."""
    return np.linalg.svd(M, compute_uv=False)[..., 0]


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
    """Largest singular value of M."""
    return float(_spectral_norms(_as_matrix(M, "spectral_norm")))


# Cap on the stacked eigh calls of the Newton phase; the stop rules end it
# after a handful.
_NEWTON_STEPS = 40

# Scan points on [0, 2*pi) of the support function, and the phi step at or
# below which a Newton candidate stops.
_RADIUS_GRID = 64
_REFINE_TOL = 1e-10

# Matrices per stacked scan in `_numerical_radii`: each takes `_RADIUS_GRID // 2`
# Hermitian matrices, so this bounds the scan's memory; it changes no value.
_RADIUS_SCAN_CHUNK = 4


def numerical_radius(A) -> float:
    """Numerical radius w(A) = sup over unit x of |<Ax, x>|.

    w(A) is the maximum over phi of f(phi), the top eigenvalue of
    H(phi) = (e^{i*phi} A + e^{-i*phi} A*)/2: f is the support function of
    the numerical range. One stacked eigvalsh scans f on 64 points: 32 in
    [0, pi) and their antipodes, as f(phi + pi) = -lambda_min(H(phi)). Every
    local maximum of the scan then takes safeguarded Newton steps on phi, all
    candidates through one stacked eigh per step. With top eigenpair (f, x),
    the other pairs (lambda_k, q_k) and K = dH/dphi = H(phi + pi/2), the
    slope is f' = x* K x (Hellmann-Feynman) and the curvature
    f'' = -f + 2 sum_k |q_k* K x|^2 / (f - lambda_k). A candidate never
    leaves the two scan cells around its scan point. Where f'' >= 0 or is
    not finite it takes the gradient step f'/|f|: the Newton step for
    f'' = -f, the most negative curvature a support function can have
    (f + f'' >= 0), hence the shortest one. A candidate stops once its step
    is at most 1e-10 or its f gains no more than rounding. The result is the
    largest f evaluated: an attained value, so a lower estimate of w(A).

    w(A) has degree 1 in A. An A whose largest real or imaginary part lies
    outside [2^-256, 2^256], where |q_k* K x|^2 can leave the double range and
    stop Newton early, is taken to unit scale (`scalars._unit_scaled`) and its
    radius read back.
    """
    A = _as_square(A, "numerical_radius")
    k, (A,) = _unit_scaled((A,), max(np.abs(A.real).max(), np.abs(A.imag).max()))
    return _scaled_back(float(_numerical_radii(A[None])[0]), k)


def _numerical_radii(A: np.ndarray) -> np.ndarray:
    """`numerical_radius` of each matrix of the stack A (m, n, n).

    Every matrix keeps its own best value and its own stop rule; only the
    eigen-solver calls are shared. So each value is bit-identical to
    `numerical_radius` of that matrix alone where its largest part lies in
    [2^-256, 2^256]; the sweep draws none beyond, so this harness path takes
    no unit scale of its own.
    """
    # H(phi) = cos(phi) Hr + sin(phi) Hi and K(phi) = cos(phi) Hi - sin(phi) Hr
    Hr, Hi = _hermitian_part(A), _hermitian_part(1j * A)
    step = 2.0 * np.pi / _RADIUS_GRID
    phis = step * np.arange(_RADIUS_GRID // 2)  # [0, pi); f(phi + pi) = -lambda_min
    cos, sin = np.cos(phis)[:, None, None], np.sin(phis)[:, None, None]
    m = A.shape[0]
    tops = np.empty((m, _RADIUS_GRID))
    for lo in range(0, m, _RADIUS_SCAN_CHUNK):
        rows = slice(lo, lo + _RADIUS_SCAN_CHUNK)
        H = cos * Hr[rows, None]
        H += sin * Hi[rows, None]
        lam = np.linalg.eigvalsh(H)
        del H  # before the next chunk's product is allocated
        tops[rows] = np.concatenate((lam[..., -1], -lam[..., 0]), axis=-1)
    best = tops.max(axis=1)
    peak = (tops >= np.roll(tops, 1, axis=1)) & (tops >= np.roll(tops, -1, axis=1))
    owner, cell = np.nonzero(peak)
    anchor = phi = step * cell
    f_prev = np.full(phi.shape, -np.inf)
    for _ in range(_NEWTON_STEPS):
        cos, sin = np.cos(phi)[:, None, None], np.sin(phi)[:, None, None]
        # a lone matrix broadcasts over its candidates instead of being copied
        # per candidate, which keeps large matrices in cache
        hr, hi = (Hr, Hi) if m == 1 else (Hr[owner], Hi[owner])
        lam, Q = np.linalg.eigh(cos * hr + sin * hi)
        f, x = lam[:, -1], Q[:, :, -1:]
        np.fmax.at(best, owner, f)  # each owner's best, NaN ignored as by max()
        c = (_ct(Q) @ (cos * (hi @ x) - sin * (hr @ x)))[:, :, 0]  # q_k* K x
        slope = c[:, -1].real
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            curv = 2.0 * np.sum(np.abs(c[:, :-1]) ** 2 / (f[:, None] - lam[:, :-1]), axis=1) - f
            dphi = np.where(curv < 0.0, -slope / curv, slope / np.abs(f))
        # A = 0 gives the step 0/0 = NaN, which fails the step test below
        nxt = np.clip(phi + dphi, anchor - step, anchor + step)
        # rounding: four units in the last place of the owner's best value so far
        live = ((f - f_prev > 4.0 * np.spacing(np.abs(best[owner])))
                & (np.abs(nxt - phi) > _REFINE_TOL))
        if not live.any():
            break
        phi, anchor, f_prev, owner = nxt[live], anchor[live], f[live], owner[live]
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
