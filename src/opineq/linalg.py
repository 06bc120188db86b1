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
    "matrix_to_json",
    "matrix_from_json",
    "save_matrix",
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


def _from_spectrum(Q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Q diag(d) Q*, before Hermitian symmetrisation."""
    return (Q * d) @ Q.conj().T


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class PolarFrame:
    """Polar decomposition A = U |A| held as the one SVD A = W diag(sigma) V*.

    Every power of |A| and |A*| comes from the same factors:
    U = W V*, |A|^p = V diag(sigma^p) V* and |A*|^p = W diag(sigma^p) W*.
    """

    W: np.ndarray
    sigma: np.ndarray  # descending
    V: np.ndarray

    @property
    def unitary(self) -> np.ndarray:
        return self.W @ self.V.conj().T

    @property
    def positive(self) -> np.ndarray:
        """|A| = (A*A)^(1/2)."""
        return self.abs_power(1.0)

    def abs_power(self, p: float) -> np.ndarray:
        """|A|^p, Hermitian."""
        return _hermitian_part(_from_spectrum(self.V, self.sigma**p))

    def abs_star_power(self, p: float) -> np.ndarray:
        """|A*|^p = U |A|^p U*, Hermitian."""
        return _hermitian_part(_from_spectrum(self.W, self.sigma**p))


def _as_matrix(M, who: str) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"{who}: expected a nonempty 2-D matrix, got shape {A.shape}")
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
    A = _as_square(M, "hermitian_eig")
    defect = _fro(A - A.conj().T)
    if defect > tol * _fro(A):
        raise ValueError(
            f"hermitian_eig: matrix is not Hermitian: defect ||M - M*|| = {defect:.3e} "
            f"exceeds tol*||M|| = {tol * _fro(A):.3e}"
        )
    w, V = np.linalg.eigh(_hermitian_part(A))
    return EigSystem(values=w, vectors=V)


def svd(M):
    """Singular value decomposition M = W @ diag(sigma) @ V*.

    Returns (W, sigma, V) with sigma descending and W, V unitary (full,
    also for singular M).
    """
    A = _as_square(M, "svd")
    W, sigma, Vh = np.linalg.svd(A)
    return W, sigma, Vh.conj().T


def polar(A) -> PolarFrame:
    """Polar decomposition A = U |A| through one SVD.

    With A = W diag(sigma) V*, the factors are U = W V* and
    |A| = V diag(sigma) V*. U is always a full unitary (the SVD supplies a
    unitary completion when A is singular), which makes the transport
    identity U |A|^p U* = |A*|^p hold for every p > 0.
    """
    return PolarFrame(*svd(A))


def frac_power(P, p: float) -> np.ndarray:
    """Spectral power P^p of a positive semidefinite matrix.

    Eigenvalues map to lambda^p with the conventions 0^p = 0 for p > 0 and
    p = 0 -> identity (also on the kernel). Eigenvalues in [-tol, 0) are
    clamped to 0 first; anything below -tol is rejected as not PSD, with
    tol = PD_FLOOR_REL * max(1, ||P||).
    """
    A = _as_square(P, "frac_power")
    if not (np.isfinite(p) and p >= 0.0):
        raise ValueError(f"frac_power: exponent must be >= 0, got {p!r}")
    eig = hermitian_eig(A, tol=1e-8)
    lam = eig.values
    scale = max(abs(float(lam[0])), abs(float(lam[-1])))
    clamp = PD_FLOOR_REL * max(1.0, scale)
    if lam[0] < -clamp:
        raise ValueError(
            f"frac_power: matrix is not positive semidefinite "
            f"(min eigenvalue {lam[0]:.3e} < -{clamp:.3e})"
        )
    n = A.shape[0]
    if p == 0.0:
        return np.eye(n, dtype=complex)
    lam = np.where(lam < 0.0, 0.0, lam)
    return _hermitian_part(_from_spectrum(eig.vectors, lam**p))


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

    def _pd_eig(M, label):
        eig = hermitian_eig(M, tol=1e-8)
        scale = max(abs(float(eig.values[0])), abs(float(eig.values[-1])), 1e-300)
        floor = PD_FLOOR_REL * scale
        if eig.values[0] < floor:
            raise ValueError(
                f"geometric_mean: {label} is not positive definite enough for "
                f"congruence inversion (min eigenvalue {eig.values[0]:.3e} < {floor:.3e})"
            )
        return eig

    ea = _pd_eig(A, "first operand")
    _pd_eig(B, "second operand")
    Va = ea.vectors
    root = _from_spectrum(Va, np.sqrt(ea.values))
    inv_root = _from_spectrum(Va, 1.0 / np.sqrt(ea.values))
    wi, Vi = np.linalg.eigh(_hermitian_part(inv_root @ B @ inv_root))
    wi = np.where(wi < 0.0, 0.0, wi)  # round-off guard; inner is PD here
    return _hermitian_part(root @ _from_spectrum(Vi, wi**t) @ root)


def spectral_norm(M) -> float:
    """Largest singular value of M."""
    A = _as_matrix(M, "spectral_norm")
    return float(np.linalg.norm(A, 2))


# Cap on the stacked eigh calls of the Newton phase; the stop rules end it
# after a handful.
_NEWTON_STEPS = 40


def numerical_radius(A, grid: int = 64, refine_tol: float = 1e-10) -> float:
    """Numerical radius w(A) = sup over unit x of |<Ax, x>|.

    w(A) is the maximum over phi of f(phi), the top eigenvalue of
    H(phi) = (e^{i*phi} A + e^{-i*phi} A*)/2: f is the support function of
    the numerical range. One stacked eigvalsh scans f on `grid` points.
    Every local maximum of the scan then takes safeguarded Newton steps on
    phi, all candidates through one stacked eigh per step. With top
    eigenpair (f, x), the other pairs (lambda_k, q_k) and
    K = dH/dphi = H(phi + pi/2), the slope is f' = x* K x (Hellmann-Feynman)
    and the curvature f'' = -f + 2 sum_k |q_k* K x|^2 / (f - lambda_k).
    A candidate never leaves the two scan cells around its scan point.
    Where f'' >= 0 or is not finite it takes the gradient step f'/|f|: the
    Newton step for f'' = -f, the most negative curvature a support
    function can have (f + f'' >= 0), hence the shortest one. A candidate
    stops once its step is at most refine_tol or its f gains no more than
    rounding, and candidates that land within refine_tol of each other
    merge. The result is the largest f evaluated: an attained value, so a
    lower estimate of w(A).
    """
    A = _as_square(A, "numerical_radius")
    if not np.isfinite(A).all():
        raise ValueError("numerical_radius: matrix has non-finite entries")
    grid = int(grid)
    if grid < 8:
        raise ValueError(f"numerical_radius: grid must be at least 8, got {grid}")
    if not (np.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError(f"numerical_radius: refine_tol must be positive, got {refine_tol!r}")
    # H(phi) = cos(phi) Hr + sin(phi) Hi and K(phi) = cos(phi) Hi - sin(phi) Hr
    Hr, Hi = _hermitian_part(A), _hermitian_part(1j * A)
    step = 2.0 * np.pi / grid
    phis = step * np.arange(grid)
    tops = np.linalg.eigvalsh(np.cos(phis)[:, None, None] * Hr
                              + np.sin(phis)[:, None, None] * Hi)[:, -1]
    best = float(tops.max())
    ring = np.concatenate((tops[-1:], tops, tops[:1]))
    anchor = phi = phis[(tops >= ring[:-2]) & (tops >= ring[2:])]
    f_prev = np.full(phi.shape, -np.inf)
    for _ in range(_NEWTON_STEPS):
        cos, sin = np.cos(phi)[:, None, None], np.sin(phi)[:, None, None]
        lam, Q = np.linalg.eigh(cos * Hr + sin * Hi)
        f, x = lam[:, -1], Q[:, :, -1:]
        best = max(best, float(f.max()))
        c = (Q.conj().transpose(0, 2, 1) @ (cos * (Hi @ x) - sin * (Hr @ x)))[:, :, 0]  # q_k* K x
        slope = c[:, -1].real
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            curv = 2.0 * np.sum(np.abs(c[:, :-1]) ** 2 / (f[:, None] - lam[:, :-1]), axis=1) - f
            dphi = np.where(curv < 0.0, -slope / curv, slope / np.abs(f))
        # A = 0 gives the step 0/0 = NaN, which fails the step test below
        nxt = np.clip(phi + dphi, anchor - step, anchor + step)
        # rounding: four units in the last place of the best value so far
        live = (f - f_prev > 4.0 * np.spacing(abs(best))) & (np.abs(nxt - phi) > refine_tol)
        if not live.any():
            break
        keep = np.flatnonzero(live)[np.argsort(nxt[live], kind="stable")]
        keep = keep[np.concatenate(([True], np.diff(nxt[keep]) > refine_tol))]
        phi, anchor, f_prev = nxt[keep], anchor[keep], f[keep]
    return best


# --- matrix JSON interchange -------------------------------------------------
#
# {"rows": R, "cols": C, "data": [[[re, im], ...], ...]}  (row-major)
#
# Floats survive the round trip bit-exactly: json emits the shortest decimal
# repr that reparses to the same double.


def matrix_to_json(M) -> dict:
    A = _as_matrix(M, "matrix_to_json")
    rows, cols = A.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }


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


def save_matrix(M, path) -> None:
    obj = matrix_to_json(M)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
            fh.write("\n")
    except OSError as err:
        raise OSError(f"cannot write matrix to {path}: {err}") from err


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise OSError(f"cannot read matrix from {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed matrix JSON in {path}: {err}") from err
    return matrix_from_json(obj)
