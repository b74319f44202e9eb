"""Minimal dense linear algebra: Cholesky, the factor inverse, the whitening kernel and the row maximum.

Everything is float64 and desk-scale (d up to ~128), so the factorization is
unblocked and the inverse is plain substitution. ``cholesky`` returns a full
(d, d) lower factor with an explicitly zero upper triangle and a strictly
positive diagonal. The inverse and the whitening kernel read a factor L in
its raw form instead: a (d, d) array whose strictly lower entries are L's and
whose diagonal holds the logs of L's diagonal, as ``heads.GaussianHeadParams``
stores it. Every Mahalanobis distance goes through ``whiten``, which inverts
the factor once and maps all residuals with one matmul. ``row_max`` is the
one maximum over the short class axis of head scores.
"""

from __future__ import annotations

import numpy as np

SYMMETRY_TOL = 1e-10


class NotPositiveDefinite(ValueError):
    """A Cholesky pivot was <= 0, i.e. the matrix is degenerate or indefinite."""


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == a for SPD ``a``.

    The input is symmetrized as (a + a.T) / 2 before factoring; asymmetry
    beyond SYMMETRY_TOL (relative to the largest entry) is rejected.

    Raises:
        NotPositiveDefinite: if any pivot is <= 0.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky needs a square matrix, got shape {a.shape}")
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


def tri_solve_lower(tri_raw: np.ndarray) -> np.ndarray:
    """L^-1 by forward substitution on L @ X = I, with L read from its raw form.

    L's strictly lower entries are ``tri_raw``'s as stored and its diagonal is
    exp(diag(``tri_raw``)); the upper triangle of ``tri_raw`` is ignored, and
    that of the result is exactly zero.
    """
    diag = np.exp(np.diag(tri_raw))
    inverse = np.eye(len(diag))
    for i in range(len(diag)):
        inverse[i] = (inverse[i] - tri_raw[i, :i] @ inverse[:i]) / diag[i]
    return inverse


def whiten(tri_raw: np.ndarray, centers: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitened residuals v[b, k] = L^-1 (z_b - m_k), and L^-1 itself.

    L is the factor whose raw form is ``tri_raw``. ``centers`` is (K, d) and
    ``z`` is (B, d); v is (B, K, d), so |v[b, k]|^2 is the squared Mahalanobis
    distance of row b to center k under L L.T. L^-1 is formed once and
    applied to all B*K residuals in one 2-D matmul.
    """
    inverse = tri_solve_lower(tri_raw)
    diff = np.asarray(z, dtype=float)[:, None, :] - np.asarray(centers, dtype=float)[None, :, :]
    b, k, d = diff.shape
    return (diff.reshape(b * k, d) @ inverse.T).reshape(b, k, d), inverse


def row_max(values: np.ndarray) -> np.ndarray:
    """``values.max(axis=-1)`` bit for bit, as a fold over the last axis's columns.

    Column 0 is copied and every further column is folded in with
    ``np.maximum`` in place, which propagates NaN and keeps ties exactly as
    the reduction does. On the few class columns of a score matrix this is
    several times faster than ``max`` over the short last axis. A 1-D
    ``values`` gives a 0-d array.
    """
    out = values[..., 0].copy()
    for col in range(1, values.shape[-1]):
        np.maximum(out, values[..., col], out=out)
    return out
