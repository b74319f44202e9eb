"""Detector evaluation metrics: AUROC, AUPR, FPR at a TPR target, histograms.

Every metric takes two float arrays, the in-distribution scores and the
out-of-distribution scores, following the convention "higher means more
in-distribution". The fast implementations here are sort-based; their O(n^2)
pairwise and exhaustive threshold-sweep twins live in the test suite and must
agree to 1e-12.

Conventions pinned here because they change the numbers:
  - AUROC counts ties between the domains as one half.
  - AUPR takes the positive class as an explicit argument (default "out") and
    integrates step-wise, sum of (R_k - R_{k-1}) * P_k over descending
    thresholds with ties grouped - no interpolation.
  - The FPR threshold is the smallest k-th largest in-score whose inclusive
    tail reaches the TPR target; "score >= threshold" counts as predicted-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gda import DOMAIN_IN, DOMAIN_OUT


class MissingDomain(ValueError):
    """One of the two score arrays is empty."""


@dataclass(frozen=True)
class MetricsReport:
    auroc: float
    aupr: float
    fpr95: float
    n_in: int
    n_out: int


@dataclass(frozen=True)
class Histogram:
    counts: np.ndarray
    clamped: int  # values outside the range, folded into the end bins
    edges: np.ndarray


def _score_arrays(s_in: Sequence[float], s_out: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Both domains' scores as 1-D float arrays, each nonempty and finite."""
    s_in = np.asarray(s_in, dtype=float)
    s_out = np.asarray(s_out, dtype=float)
    if s_in.ndim != 1 or s_out.ndim != 1:
        raise ValueError("scores must be 1-D arrays")
    if s_in.size == 0 or s_out.size == 0:
        raise MissingDomain("need at least one score per domain")
    if not (np.all(np.isfinite(s_in)) and np.all(np.isfinite(s_out))):
        raise ValueError("scores must be finite")
    return s_in, s_out


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the mean rank of their group.

    A group of ``count`` tied values ending at 1-based rank ``end`` has mean
    rank ``end - (count - 1) / 2``, an exact half-integer.
    """
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[group]


def auroc(s_in: Sequence[float], s_out: Sequence[float]) -> float:
    """Probability an in-score outranks an out-score, ties counting one half."""
    in_scores, out_scores = _score_arrays(s_in, s_out)
    ranks = _average_ranks(np.concatenate([in_scores, out_scores]))
    n_in, n_out = len(in_scores), len(out_scores)
    rank_sum = float(ranks[:n_in].sum())
    return (rank_sum - n_in * (n_in + 1) / 2.0) / (n_in * n_out)


def aupr(s_in: Sequence[float], s_out: Sequence[float], positive: str = DOMAIN_OUT) -> float:
    """Step-wise area under the precision-recall curve for the chosen positive class."""
    if positive not in (DOMAIN_IN, DOMAIN_OUT):
        raise ValueError(f"positive must be 'in' or 'out', got {positive!r}")
    in_scores, out_scores = _score_arrays(s_in, s_out)
    if positive == DOMAIN_IN:
        pos, neg = in_scores, out_scores
    else:
        # Low scores flag the out class, so sweep the negated axis.
        pos, neg = -out_scores, -in_scores
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(len(pos), dtype=bool), np.zeros(len(neg), dtype=bool)])
    order = np.argsort(-scores, kind="mergesort")
    scores, labels = scores[order], labels[order]
    # Group tied scores at a single threshold.
    distinct = np.nonzero(np.diff(scores))[0]
    group_ends = np.concatenate([distinct, [len(scores) - 1]])
    tp = np.cumsum(labels)[group_ends]
    predicted = group_ends + 1.0
    precision = tp / predicted
    recall = tp / len(pos)
    recall_steps = np.diff(recall, prepend=0.0)
    return float((recall_steps * precision).sum())


def fpr_at_tpr(s_in: Sequence[float], s_out: Sequence[float], tpr_target: float = 0.95) -> float:
    """False-positive rate at the threshold where in-recall first reaches the target."""
    if not 0.0 <= tpr_target <= 1.0:
        raise ValueError("tpr_target must be in [0, 1]")
    in_scores, out_scores = _score_arrays(s_in, s_out)
    n_in = len(in_scores)
    k = int(np.ceil(tpr_target * n_in))
    while k > 0 and (k - 1) / n_in >= tpr_target:
        k -= 1
    while k / n_in < tpr_target:
        k += 1
    if k == 0:
        return 0.0
    threshold = np.sort(in_scores)[n_in - k]
    return float(np.mean(out_scores >= threshold))


def compute_report(
    s_in: Sequence[float], s_out: Sequence[float], aupr_positive: str = DOMAIN_OUT, tpr_target: float = 0.95
) -> MetricsReport:
    in_scores, out_scores = _score_arrays(s_in, s_out)
    return MetricsReport(
        auroc=auroc(in_scores, out_scores),
        aupr=aupr(in_scores, out_scores, positive=aupr_positive),
        fpr95=fpr_at_tpr(in_scores, out_scores, tpr_target=tpr_target),
        n_in=len(in_scores),
        n_out=len(out_scores),
    )


def histogram(scores: Sequence[float], bins: int, value_range: tuple[float, float]) -> Histogram:
    """Equal-width counts; bins are left-closed, the final bin also right-closed.

    Values outside the range land in the nearest end bin and are tallied in
    ``clamped``.
    """
    lo, hi = float(value_range[0]), float(value_range[1])
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not lo < hi:
        raise ValueError("range must satisfy lo < hi")
    scores = np.asarray(scores, dtype=float)
    counts = np.zeros(bins, dtype=int)
    clamped = int(np.sum(scores < lo) + np.sum(scores > hi))
    if scores.size:
        idx = np.floor((scores - lo) / (hi - lo) * bins).astype(int)
        idx = np.clip(idx, 0, bins - 1)
        np.add.at(counts, idx, 1)
    edges = np.linspace(lo, hi, bins + 1)
    return Histogram(counts=counts, clamped=clamped, edges=edges)
