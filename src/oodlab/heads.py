"""Classification heads: linear logits and Gaussian (Mahalanobis) scores.

Both heads expose forward scores and hand-derived gradients with respect to
the input feature and every parameter. The Gaussian head parameterizes the
covariance through a lower-triangular factor whose diagonal is stored as
unconstrained values and materialized through exp, so plain gradient descent
can never leave the positive-definite cone.

Index conventions used by the Gaussian-head math, with u_i = z - m_i:
    v_i = L^-1 u_i            whitened by ``linalg.whiten``; h_i = -|v_i|^2
    g_i = (L L.T)^-1 u_i      the "natural" residual L^-T v_i; as a row, v_i.T L^-1
    dh_i/dz = -2 g_i,  dh_i/dm_i = 2 g_i,  dh_i/dL = 2 g_i v_i.T (lower part)
The backward re-whitens instead of caching the forward's v: one matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


class InvalidScore(ValueError):
    """A Gaussian-head operation received a score above zero."""


@dataclass
class LinearHeadParams:
    weight: np.ndarray  # (K, d)
    bias: np.ndarray  # (K,)

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("weight must be (K, d) with a K-length bias")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("head parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.weight, self.bias)


@dataclass
class GaussianHeadParams:
    """Trainable class centers plus an unconstrained triangular factor.

    ``tri_raw`` is a (d, d) array of which only the lower triangle is used.
    Off-diagonal entries are the factor entries themselves; diagonal entries
    are logs, materialized as exp so the factor diagonal stays positive.
    """

    means: np.ndarray  # (K, d)
    tri_raw: np.ndarray  # (d, d), lower triangle meaningful

    def __post_init__(self) -> None:
        self.means = np.asarray(self.means, dtype=float)
        self.tri_raw = np.asarray(self.tri_raw, dtype=float)
        d = self.means.shape[1] if self.means.ndim == 2 else -1
        if self.means.ndim != 2 or self.tri_raw.shape != (d, d):
            raise ValueError("means must be (K, d) and tri_raw (d, d)")
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.tri_raw))):
            raise ValueError("head parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.means, self.tri_raw)

    def materialize(self) -> np.ndarray:
        """The lower-triangular factor L with exp applied to the stored diagonal."""
        lower = np.tril(self.tri_raw, -1)
        np.fill_diagonal(lower, np.exp(np.diag(self.tri_raw)))
        return lower

    @classmethod
    def from_factor(cls, means: np.ndarray, lower: np.ndarray) -> "GaussianHeadParams":
        """Build params whose materialized factor equals ``lower`` exactly."""
        lower = np.asarray(lower, dtype=float)
        if np.any(np.diag(lower) <= 0):
            raise ValueError("factor diagonal must be strictly positive")
        tri_raw = np.tril(lower, -1)
        np.fill_diagonal(tri_raw, np.log(np.diag(lower)))
        return cls(means=np.array(means, dtype=float), tri_raw=tri_raw)


@dataclass(frozen=True)
class HeadGradients:
    """Gradient of a scalar loss with respect to the head input and parameters.

    ``d_params`` matches the owning params' ``arrays()`` order.
    """

    d_input: np.ndarray
    d_params: tuple[np.ndarray, ...]


def init_linear_head(dim: int, n_classes: int, rng: np.random.Generator) -> LinearHeadParams:
    weight = 0.1 * rng.standard_normal((n_classes, dim))
    return LinearHeadParams(weight=weight, bias=np.zeros(n_classes))


def init_gaussian_head(
    dim: int,
    n_classes: int,
    rng: np.random.Generator | None = None,
    class_means: np.ndarray | None = None,
) -> GaussianHeadParams:
    """Means from supplied per-class feature means, else a small seeded normal.

    The factor starts at the identity (tri_raw = 0), so initial scores read as
    negative squared Euclidean distances.
    """
    if class_means is not None:
        means = np.array(class_means, dtype=float)
        if means.shape != (n_classes, dim):
            raise ValueError(f"class_means must be ({n_classes}, {dim})")
    else:
        if rng is None:
            raise ValueError("need an rng when class_means is not supplied")
        means = 0.1 * rng.standard_normal((n_classes, dim))
    return GaussianHeadParams(means=means, tri_raw=np.zeros((dim, dim)))


# Linear head


def linear_forward_batch(params: LinearHeadParams, z: np.ndarray) -> np.ndarray:
    return np.asarray(z, dtype=float) @ params.weight.T + params.bias


def linear_forward(params: LinearHeadParams, z: np.ndarray) -> np.ndarray:
    """Logits w_i.T z + b_i for one feature vector."""
    z = np.asarray(z, dtype=float)
    if z.shape != (params.dim,):
        raise ValueError(f"feature has shape {z.shape}, head expects ({params.dim},)")
    return linear_forward_batch(params, z[None, :])[0]

def linear_backward_batch(
    params: LinearHeadParams, z: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch gradients: returns (d_z, d_weight, d_bias), parameter grads summed over rows."""
    z = np.asarray(z, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    d_z = upstream @ params.weight
    d_weight = upstream.T @ z
    d_bias = upstream.sum(axis=0)
    return d_z, d_weight, d_bias


def linear_backward(params: LinearHeadParams, z: np.ndarray, upstream: np.ndarray) -> HeadGradients:
    """Gradients of a loss with upstream dL/df through the linear head."""
    d_z, d_w, d_b = linear_backward_batch(params, np.asarray(z, float)[None, :], np.asarray(upstream, float)[None, :])
    return HeadGradients(d_input=d_z[0], d_params=(d_w, d_b))


# Gaussian head


def gaussian_forward_batch(params: GaussianHeadParams, z: np.ndarray) -> np.ndarray:
    v, _ = linalg.whiten(params.materialize(), params.means, z)
    return -np.einsum("bkj,bkj->bk", v, v)


def gaussian_forward(params: GaussianHeadParams, z: np.ndarray) -> np.ndarray:
    """Scores h_i = -(z - m_i).T (L L.T)^-1 (z - m_i); all entries <= 0."""
    z = np.asarray(z, dtype=float)
    if z.shape != (params.dim,):
        raise ValueError(f"feature has shape {z.shape}, head expects ({params.dim},)")
    return gaussian_forward_batch(params, z[None, :])[0]


def gaussian_backward_batch(
    params: GaussianHeadParams, z: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch gradients: returns (d_z, d_means, d_tri_raw), parameter grads summed over rows.

    The tri_raw gradient is chained through the exp materialization of the
    diagonal.
    """
    upstream = np.asarray(upstream, dtype=float)
    v, inverse = linalg.whiten(params.materialize(), params.means, z)
    b, k, d = v.shape
    flat_v = v.reshape(b * k, d)
    weighted_g = upstream.reshape(b * k, 1) * (flat_v @ inverse)  # one upstream-weighted g per (row, class)
    d_z = -2.0 * weighted_g.reshape(b, k, d).sum(axis=1)
    d_means = 2.0 * weighted_g.reshape(b, k, d).sum(axis=0)
    d_factor = 2.0 * (weighted_g.T @ flat_v)
    d_tri = np.tril(d_factor, -1)
    lower_diag = np.exp(np.diag(params.tri_raw))
    np.fill_diagonal(d_tri, np.diag(d_factor) * lower_diag)
    return d_z, d_means, d_tri


def gaussian_backward(params: GaussianHeadParams, z: np.ndarray, upstream: np.ndarray) -> HeadGradients:
    """Gradients of a loss with upstream dL/dh through the Gaussian head."""
    z = np.asarray(z, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (params.n_classes,):
        raise ValueError(f"upstream has shape {upstream.shape}, expected ({params.n_classes},)")
    if not np.all(np.isfinite(upstream)):
        raise ValueError("upstream gradient must be finite")
    d_z, d_means, d_tri = gaussian_backward_batch(params, z[None, :], upstream[None, :])
    return HeadGradients(d_input=d_z[0], d_params=(d_means, d_tri))


def ice_confidence(h: np.ndarray) -> np.ndarray:
    """exp(max_i h_i) over the last axis: a detection confidence in (0, 1] per row.

    ``h`` is (B, K) Gaussian-head scores, or one (K,) row for a scalar. Scores
    far below zero underflow to exactly 0.0, which is the documented
    floating-point limit of the (0, 1] range.

    Raises:
        InvalidScore: if any score is positive (not a Gaussian-head score).
    """
    h = np.asarray(h, dtype=float)
    if np.any(h > 0):
        raise InvalidScore("confidence needs non-positive scores")
    return np.exp(h.max(axis=-1))
