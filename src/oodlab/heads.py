"""Classification heads: linear logits and Gaussian (Mahalanobis) scores.

``forward`` and ``backward`` are the one interface to both heads' math: batch
scores and hand-derived gradients with respect to the input features and
every parameter, keyed by the params dataclass's field names. ``forward``
returns its scores with a cache, as ``backbone.forward_batch`` does, and
``backward`` reads that cache instead of the features. Training, checkpoints
and the drift simulation reach a head only through them, its fields and its
class constants (``KIND``, ``GRAD_NORM_BOUND``). ``nonpositive_scores`` is
the one check that scores can be Gaussian-head scores, for
``ice_confidence`` and the criteria that need that head.

The Gaussian head parameterizes the covariance through a lower-triangular
factor whose diagonal is stored as unconstrained values and read through exp,
so plain gradient descent can never leave the positive-definite cone. Its
params type is also the fitted tied-covariance model of ``gda.fit_gda``.

Index conventions used by the Gaussian-head math, with u_i = z - m_i:
    v_i = L^-1 u_i            whitened by ``linalg.whiten`` on tri_raw; h_i = -|v_i|^2
    g_i = (L L.T)^-1 u_i      the "natural" residual L^-T v_i; as a row, v_i.T L^-1
    dh_i/dz = -2 g_i,  dh_i/dm_i = 2 g_i,  dh_i/dL = 2 g_i v_i.T (lower part)
The forward caches v and L^-1, so a step whitens once. L^-1 is read straight
from ``tri_raw`` by ``linalg.tri_solve_lower``; L itself is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import linalg


def _check_classes(per_class: np.ndarray) -> None:
    if per_class.shape[0] < 2:
        raise ValueError(f"need at least two classes, got {per_class.shape[0]}")


@dataclass
class LinearHeadParams:
    KIND: ClassVar[str] = "linear"
    # Unbounded, so a diverging objective still ends in a non-finite loss.
    GRAD_NORM_BOUND: ClassVar[float] = math.inf

    weight: np.ndarray  # (K, d)
    bias: np.ndarray  # (K,)

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("weight must be (K, d) with a K-length bias")
        _check_classes(self.weight)
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("head parameters must be finite")

    @staticmethod
    def shapes(n_classes: int, dim: int) -> dict[str, tuple[int, ...]]:
        return {"weight": (n_classes, dim), "bias": (n_classes,)}


@dataclass
class GaussianHeadParams:
    """Class centers plus an unconstrained triangular factor L of the tied covariance L L.T.

    ``tri_raw`` is a (d, d) array of which only the lower triangle is used.
    Off-diagonal entries are the factor entries themselves; diagonal entries
    are logs, read through exp so the factor diagonal stays positive.
    """

    KIND: ClassVar[str] = "gaussian"
    # Far from every center the tri_raw gradient grows with the squared
    # distance; unclipped, one step can make exp overflow the factor.
    GRAD_NORM_BOUND: ClassVar[float] = 10.0

    means: np.ndarray  # (K, d)
    tri_raw: np.ndarray  # (d, d), lower triangle meaningful

    def __post_init__(self) -> None:
        self.means = np.asarray(self.means, dtype=float)
        self.tri_raw = np.asarray(self.tri_raw, dtype=float)
        d = self.means.shape[1] if self.means.ndim == 2 else -1
        if self.means.ndim != 2 or self.tri_raw.shape != (d, d):
            raise ValueError("means must be (K, d) and tri_raw (d, d)")
        _check_classes(self.means)
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.tri_raw))):
            raise ValueError("head parameters must be finite")

    @staticmethod
    def shapes(n_classes: int, dim: int) -> dict[str, tuple[int, ...]]:
        return {"means": (n_classes, dim), "tri_raw": (dim, dim)}

    @classmethod
    def from_factor(cls, means: np.ndarray, lower: np.ndarray) -> "GaussianHeadParams":
        """Build params whose factor L is ``lower``, up to exp(log(.)) rounding on the diagonal."""
        lower = np.asarray(lower, dtype=float)
        if np.any(np.diag(lower) <= 0):
            raise ValueError("factor diagonal must be strictly positive")
        tri_raw = np.tril(lower, -1)
        np.fill_diagonal(tri_raw, np.log(np.diag(lower)))
        return cls(means=np.array(means, dtype=float), tri_raw=tri_raw)


HEAD_TYPES = {cls.KIND: cls for cls in (LinearHeadParams, GaussianHeadParams)}


def forward(
    head: LinearHeadParams | GaussianHeadParams, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """(B, K) scores of (B, d) features, and the cache ``backward`` takes.

    Linear scores are the logits w_i.T z + b_i, cached as z itself. Gaussian
    scores are h_i = -(z - m_i).T (L L.T)^-1 (z - m_i), all <= 0, cached as
    the whitened residuals v (B, K, d) and L^-1.
    """
    z = np.asarray(z, dtype=float)
    if isinstance(head, LinearHeadParams):
        return z @ head.weight.T + head.bias, z
    v, inverse = linalg.whiten(head.tri_raw, head.means, z)
    return -np.einsum("bkj,bkj->bk", v, v), (v, inverse)


def backward(
    head: LinearHeadParams | GaussianHeadParams,
    cache: np.ndarray | tuple[np.ndarray, np.ndarray],
    upstream: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients of a loss with (B, K) upstream dL/dscores through ``forward``.

    ``cache`` is what ``forward`` returned for the same head and features.
    Returns d_z (B, d) and one gradient per parameter field, keyed by field
    name and summed over rows. The Gaussian tri_raw gradient is chained
    through the exp on the diagonal.
    """
    upstream = np.asarray(upstream, dtype=float)
    if isinstance(head, LinearHeadParams):
        z = cache
        return upstream @ head.weight, {"weight": upstream.T @ z, "bias": upstream.sum(axis=0)}
    v, inverse = cache
    b, k, d = v.shape
    flat_v = v.reshape(b * k, d)
    weighted_g = upstream.reshape(b * k, 1) * (flat_v @ inverse)  # one upstream-weighted g per (row, class)
    d_z = -2.0 * weighted_g.reshape(b, k, d).sum(axis=1)
    d_means = 2.0 * weighted_g.reshape(b, k, d).sum(axis=0)
    d_factor = 2.0 * (weighted_g.T @ flat_v)
    d_tri = np.tril(d_factor, -1)
    np.fill_diagonal(d_tri, np.diag(d_factor) * np.exp(np.diag(head.tri_raw)))
    return d_z, {"means": d_means, "tri_raw": d_tri}


def nonpositive_scores(h: np.ndarray) -> np.ndarray:
    """``h`` as a float array, checked to be Gaussian-head scores: none positive.

    Raises:
        ValueError: if any score is positive.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h > 0):
        raise ValueError("expected non-positive Gaussian-head scores")
    return h


def ice_confidence(h: np.ndarray) -> np.ndarray:
    """exp(max_i h_i) over the last axis: a detection confidence in (0, 1] per row.

    ``h`` is (B, K) Gaussian-head scores, or one (K,) row for a scalar. Scores
    far below zero underflow to exactly 0.0, which is the documented
    floating-point limit of the (0, 1] range.

    Raises:
        ValueError: if any score is positive (not a Gaussian-head score).
    """
    return np.exp(linalg.row_max(nonpositive_scores(h)))
