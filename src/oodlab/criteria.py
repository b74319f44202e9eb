"""Training criteria: values and analytic gradients with respect to head scores.

Every loss (sce, oe_uniform, energy, ice_id, ice_ood, bce_outlier) is one
batch kernel over scores whose last axis holds the K classes. It returns a
LossReport with one value per row and dL/dscores of the scores' shape, so a
(B, K) batch gives B values and a single (K,) score vector is the per-sample
case with a scalar value. The branch dispatchers id_loss and ood_loss map a
criterion kind to its in-distribution and outlier terms, balance weight
included, so the trainer and the shift simulation share one batch code path.

Sign conventions worth keeping in mind:
  - sce pushes the ground-truth score up and every other score down;
  - the uniform-target outlier loss pushes a score down exactly when its
    softmax mass exceeds 1/K, and up when it is below (the "contradictory"
    regime);
  - energy as an outlier loss pushes every score down; its negated
    in-distribution counterpart pushes every score up;
  - ice_id touches only the ground-truth score and ice_ood only the argmax
    score, so neither opposes the sce direction on any other class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heads import InvalidScore

KINDS = ("plain", "oe", "energy", "ice", "ice_minus", "bce")

# Balance-weight defaults per criterion kind. The two ablation kinds reuse the
# weight of the method they ablate.
DEFAULT_LAMBDA = {
    "plain": 0.0,
    "oe": 0.5,
    "energy": 0.1,
    "ice": 1.0,
    "ice_minus": 1.0,
    "bce": 0.5,
}

ICE_OOD_EPS = 1e-12
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class LossReport:
    """Per-row loss values (shape ``scores.shape[:-1]``) and dL/dscores."""

    value: np.ndarray
    d_scores: np.ndarray


@dataclass(frozen=True)
class CriterionConfig:
    kind: str
    lam: float | None = None  # None means the per-kind default

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.lam is not None and self.lam < 0:
            raise ValueError("lambda must be >= 0")

    @property
    def weight(self) -> float:
        return DEFAULT_LAMBDA[self.kind] if self.lam is None else self.lam

    def needs_gaussian_head(self) -> bool:
        return self.kind in ("ice", "ice_minus")


def _check_nonpositive(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if np.any(h > 0):
        raise InvalidScore("expected non-positive Gaussian-head scores")
    return h


def _one_hot(scores: np.ndarray, y) -> np.ndarray:
    """Boolean (..., K) mask of each row's label, after a range check."""
    y = np.asarray(y)
    k = scores.shape[-1]
    if y.shape != scores.shape[:-1]:
        raise ValueError(f"need one label per score row, got labels of shape {y.shape}")
    bad = (y < 0) | (y >= k)
    if np.any(bad):
        raise ValueError(f"label {y[bad].flat[0]} out of range for K={k}")
    return np.arange(k) == y[..., None]


def _row_entries(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The entry of each row that a one-hot ``mask`` selects."""
    return scores[mask].reshape(scores.shape[:-1])


def sce(scores: np.ndarray, y) -> LossReport:
    """Softmax cross-entropy against the one-hot target ``y``."""
    scores = np.asarray(scores, dtype=float)
    onehot = _one_hot(scores, y)
    rep = energy(scores)
    return LossReport(rep.value - _row_entries(scores, onehot), rep.d_scores - onehot)


def oe_uniform(scores: np.ndarray) -> LossReport:
    """Cross-entropy to the uniform distribution over classes.

    The gradient is softmax - 1/K per coordinate, i.e. the literal gradient of
    the value; positive exactly where the softmax mass exceeds 1/K.
    """
    scores = np.asarray(scores, dtype=float)
    k = scores.shape[-1]
    if k < 2:
        raise ValueError("need at least two classes")
    rep = energy(scores)
    return LossReport(rep.value - scores.mean(axis=-1), rep.d_scores - 1.0 / k)


def energy(scores: np.ndarray) -> LossReport:
    """logsumexp of the scores; its gradient is the softmax, strictly positive."""
    scores = np.asarray(scores, dtype=float)
    top = scores.max(axis=-1, keepdims=True)
    expd = np.exp(scores - top)
    total = expd.sum(axis=-1, keepdims=True)
    return LossReport((top + np.log(total))[..., 0], expd / total)


def ice_id(h: np.ndarray, y) -> LossReport:
    """Negated ground-truth score, -h_y: pulls the sample onto its class center."""
    h = _check_nonpositive(h)
    onehot = _one_hot(h, y)
    return LossReport(-_row_entries(h, onehot), np.where(onehot, -1.0, 0.0))


def ice_ood(h: np.ndarray) -> LossReport:
    """-log(1 - exp(max_i h_i)): pushes an outlier off its nearest class center.

    Singular as the max score approaches 0; when 1 - exp(max h) drops below
    ICE_OOD_EPS both the value and the gradient are computed with the floored
    denominator, so the loss tops out at -log(ICE_OOD_EPS).
    """
    h = _check_nonpositive(h)
    top = np.arange(h.shape[-1]) == np.argmax(h, axis=-1)[..., None]
    h_star = h.max(axis=-1)
    denom = np.maximum(-np.expm1(h_star), ICE_OOD_EPS)  # exact 1 - exp(h*), floored
    # log(1 - exp(h*)) split at -ln 2 for relative accuracy; the far branch is
    # evaluated at min(h*, -ln 2) so rows on the near side never reach log1p(-1).
    far = np.log1p(-np.exp(np.minimum(h_star, -_LN2)))
    value = -np.where(h_star > -_LN2, np.log(denom), far)
    return LossReport(value, np.where(top, (np.exp(h_star) / denom)[..., None], 0.0))


def bce_outlier(scores: np.ndarray, targets: np.ndarray) -> LossReport:
    """Per-class sigmoid binary cross-entropy summed over classes.

    In-distribution samples use one-hot targets, outliers all-zero targets.
    """
    scores = np.asarray(scores, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != scores.shape:
        raise ValueError("targets must match scores in shape")
    if not np.all((targets == 0.0) | (targets == 1.0)):
        raise ValueError("targets must be binary")
    # -[t log sig(s) + (1-t) log(1 - sig(s))] = t*softplus(-s) + (1-t)*softplus(s)
    softplus = np.logaddexp(0.0, scores)
    softplus_neg = np.logaddexp(0.0, -scores)
    value = (targets * softplus_neg + (1.0 - targets) * softplus).sum(axis=-1)
    sigmoid = 1.0 / (1.0 + np.exp(-scores))
    return LossReport(value, sigmoid - targets)


def id_loss(config: CriterionConfig, scores: np.ndarray, y, weight: float | None = None) -> LossReport:
    """The in-distribution branch of ``config.kind``, balance terms included.

    ``scores`` is (B, K) with B labels ``y``, or one (K,) row with a scalar label.
    """
    scores = np.asarray(scores, dtype=float)
    w = config.weight if weight is None else weight
    if config.kind in ("plain", "oe"):
        return sce(scores, y)
    if config.kind == "energy":
        sce_rep = sce(scores, y)
        e_rep = energy(scores)
        return LossReport(sce_rep.value - w * e_rep.value, sce_rep.d_scores - w * e_rep.d_scores)
    if config.kind == "ice":
        sce_rep = sce(_check_nonpositive(scores), y)
        id_rep = ice_id(scores, y)
        return LossReport(sce_rep.value + w * id_rep.value, sce_rep.d_scores + w * id_rep.d_scores)
    if config.kind == "ice_minus":
        return sce(_check_nonpositive(scores), y)
    if config.kind == "bce":
        return bce_outlier(scores, _one_hot(scores, y).astype(float))
    raise AssertionError(config.kind)


def ood_loss(config: CriterionConfig, scores: np.ndarray, weight: float | None = None) -> LossReport:
    """The outlier branch of ``config.kind``, scaled by the balance weight."""
    scores = np.asarray(scores, dtype=float)
    w = config.weight if weight is None else weight
    if config.kind == "plain":
        return LossReport(np.zeros(scores.shape[:-1]), np.zeros_like(scores))
    if config.kind == "oe":
        rep = oe_uniform(scores)
    elif config.kind == "energy":
        rep = energy(scores)
    elif config.kind in ("ice", "ice_minus"):
        rep = ice_ood(scores)
    elif config.kind == "bce":
        rep = bce_outlier(scores, np.zeros_like(scores))
    else:
        raise AssertionError(config.kind)
    return LossReport(w * rep.value, w * rep.d_scores)
