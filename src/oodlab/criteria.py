"""Training criteria: values and analytic gradients with respect to head scores.

Every loss (sce, oe_uniform, energy, ice_id, ice_ood, bce_outlier) is one
batch kernel over scores whose last axis holds the K classes. It returns a
LossReport with one value per row and dL/dscores of the scores' shape, so a
(B, K) batch gives B values and a single (K,) score vector is the per-sample
case with a scalar value. One table row per criterion kind holds its default
weight, whether it needs the Gaussian head, its in-distribution term and its
outlier term, which id_loss and ood_loss call. They take the weight as an
argument: the caller passes ``TrainConfig.outlier_weight`` (lambda * gamma),
the one place it is formed. Their one caller outside this module is
``trainer.row_losses``, which gives the leading rows of an in-first labelled
batch (labelled >= 0) the first term and the outlier rows after them the
second, for the training step and the shift simulation alike. Every maximum
over the class axis goes through ``linalg.row_max``.

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
from typing import Callable

import numpy as np

from . import heads, linalg

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
    lam: float | None = None  # None resolves to the per-kind default on construction

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"criterion kind must be one of {KINDS}, got {self.kind!r}")
        if self.lam is None:
            object.__setattr__(self, "lam", _CRITERIA[self.kind].default_lam)
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")

    def needs_gaussian_head(self) -> bool:
        return _CRITERIA[self.kind].gaussian_head

    def has_outlier_term(self) -> bool:
        return _CRITERIA[self.kind].ood_term is not None


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
    top = linalg.row_max(scores)[..., None]
    expd = np.exp(scores - top)
    total = expd.sum(axis=-1, keepdims=True)
    return LossReport((top + np.log(total))[..., 0], expd / total)


def ice_id(h: np.ndarray, y) -> LossReport:
    """Negated ground-truth score, -h_y: pulls the sample onto its class center."""
    h = heads.nonpositive_scores(h)
    onehot = _one_hot(h, y)
    return LossReport(-_row_entries(h, onehot), np.where(onehot, -1.0, 0.0))


def ice_ood(h: np.ndarray) -> LossReport:
    """-log(1 - exp(max_i h_i)): pushes an outlier off its nearest class center.

    Singular as the max score approaches 0; when 1 - exp(max h) drops below
    ICE_OOD_EPS both the value and the gradient are computed with the floored
    denominator, so the loss tops out at -log(ICE_OOD_EPS).
    """
    h = heads.nonpositive_scores(h)
    top = np.arange(h.shape[-1]) == np.argmax(h, axis=-1)[..., None]
    h_star = linalg.row_max(h)
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


def _plus(base: LossReport, weight: float, extra: LossReport) -> LossReport:
    """``base + weight * extra``, value and gradient alike."""
    return LossReport(base.value + weight * extra.value, base.d_scores + weight * extra.d_scores)


@dataclass(frozen=True)
class _Criterion:
    default_lam: float
    gaussian_head: bool  # scores must be non-positive
    id_term: Callable[[np.ndarray, np.ndarray, float], LossReport]  # (scores, labels, weight)
    ood_term: Callable[[np.ndarray], LossReport] | None  # unscaled; None when there is none


# One row per kind, in the order KINDS lists them. The two ablation kinds
# reuse the weight of the method they ablate.
_CRITERIA = {
    "plain": _Criterion(0.0, False, lambda s, y, w: sce(s, y), None),
    "oe": _Criterion(0.5, False, lambda s, y, w: sce(s, y), oe_uniform),
    # Energy raises the ID rows' logsumexp: sce - w * energy.
    "energy": _Criterion(0.1, False, lambda s, y, w: _plus(sce(s, y), -w, energy(s)), energy),
    "ice": _Criterion(1.0, True, lambda s, y, w: _plus(sce(s, y), w, ice_id(s, y)), ice_ood),
    "ice_minus": _Criterion(1.0, True, lambda s, y, w: sce(s, y), ice_ood),
    "bce": _Criterion(
        0.5, False, lambda s, y, w: bce_outlier(s, _one_hot(s, y)), lambda s: bce_outlier(s, np.zeros_like(s))
    ),
}
KINDS = tuple(_CRITERIA)


def id_loss(config: CriterionConfig, scores: np.ndarray, y, weight: float) -> LossReport:
    """The in-distribution term of ``config.kind``, balance terms scaled by ``weight``.

    ``scores`` is (B, K) with B labels ``y``, or one (K,) row with a scalar label.
    """
    row = _CRITERIA[config.kind]
    scores = heads.nonpositive_scores(scores) if row.gaussian_head else np.asarray(scores, dtype=float)
    return row.id_term(scores, y, weight)


def ood_loss(config: CriterionConfig, scores: np.ndarray, weight: float) -> LossReport:
    """The outlier term of ``config.kind`` scaled by ``weight``; zeros when it has none."""
    scores = np.asarray(scores, dtype=float)
    term = _CRITERIA[config.kind].ood_term
    if term is None:
        return LossReport(np.zeros(scores.shape[:-1]), np.zeros_like(scores))
    rep = term(scores)
    return LossReport(weight * rep.value, weight * rep.d_scores)
