"""Minimal dense linear algebra: Cholesky, triangular solves, and the whitening kernel.

Everything is float64 and desk-scale (d up to ~128), so factorizations are
unblocked and solves are plain substitution. Every Mahalanobis distance goes
through ``whiten``, which inverts the factor once by substitution and maps
all residuals with one matmul. Lower-triangular factors are represented as
full (d, d) arrays with an explicitly zero upper triangle and a strictly
positive diagonal; ``cholesky`` produces factors in that form.
"""

from __future__ import annotations

import numpy as np

SYMMETRY_TOL = 1e-10


class NotPositiveDefinite(ValueError):
    """A Cholesky pivot was <= 0, i.e. the matrix is degenerate or indefinite."""


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} needs a square matrix, got shape {a.shape}")
    return a


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == a for SPD ``a``.

    The input is symmetrized as (a + a.T) / 2 before factoring; asymmetry
    beyond SYMMETRY_TOL (relative to the largest entry) is rejected.

    Raises:
        NotPositiveDefinite: if any pivot is <= 0.
    """
    a = _as_square(a, "cholesky")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("cholesky input must be finite")
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    if float(np.max(np.abs(a - a.T), initial=0.0)) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    sym = 0.5 * (a + a.T)
    n = sym.shape[0]
    lower = np.zeros_like(sym)
    for j in range(n):
        pivot = sym[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise NotPositiveDefinite(f"pivot {float(pivot)!r} at column {j}")
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (sym[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def tri_solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve lower @ x = b by forward substitution.

    ``b`` may be a vector or a matrix whose columns are independent
    right-hand sides.
    """
    lower = _as_square(lower, "tri_solve_lower")
    b = np.asarray(b, dtype=float)
    n = lower.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"dimension mismatch: L is {n}x{n}, b has leading dim {b.shape[0]}")
    x = np.empty_like(b)
    for i in range(n):
        x[i] = (b[i] - lower[i, :i] @ x[:i]) / lower[i, i]
    return x


def whiten(lower: np.ndarray, centers: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitened residuals v[b, k] = L^-1 (z_b - m_k), and L^-1 itself.

    ``centers`` is (K, d) and ``z`` is (B, d); v is (B, K, d), so |v[b, k]|^2
    is the squared Mahalanobis distance of row b to center k under L L.T.
    L^-1 is formed once and applied to all B*K residuals in one 2-D matmul.
    """
    inverse = tri_solve_lower(lower, np.eye(len(lower)))
    diff = np.asarray(z, dtype=float)[:, None, :] - np.asarray(centers, dtype=float)[None, :, :]
    b, k, d = diff.shape
    return (diff.reshape(b * k, d) @ inverse.T).reshape(b, k, d), inverse
