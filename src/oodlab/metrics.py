"""Detector evaluation metrics: AUROC, AUPR, FPR at a TPR target, histograms.

``compute_report`` takes two float arrays, the in-distribution scores and the
out-of-distribution scores, following the convention "higher means more
in-distribution". It groups tied scores once, counts each domain's scores per
group, and reads all three metrics from those counts. Their O(n^2) pairwise
and exhaustive threshold-sweep twins live in ``tests/oracles.py`` and must
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
    edges: np.ndarray


def _score_arrays(s_in: Sequence[float], s_out: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Both domains' scores as 1-D float arrays, each nonempty and finite."""
    s_in = np.asarray(s_in, dtype=float)
    s_out = np.asarray(s_out, dtype=float)
    if s_in.ndim != 1 or s_out.ndim != 1:
        raise ValueError("scores must be 1-D arrays")
    if s_in.size == 0 or s_out.size == 0:
        raise ValueError("need at least one score per domain")
    if not (np.all(np.isfinite(s_in)) and np.all(np.isfinite(s_out))):
        raise ValueError("scores must be finite")
    return s_in, s_out


def compute_report(
    s_in: Sequence[float], s_out: Sequence[float], aupr_positive: str = DOMAIN_OUT, tpr_target: float = 0.95
) -> MetricsReport:
    """AUROC, AUPR and the FPR at ``tpr_target``, all read from one grouping of the tied scores."""
    in_scores, out_scores = _score_arrays(s_in, s_out)
    if aupr_positive not in (DOMAIN_IN, DOMAIN_OUT):
        raise ValueError(f"positive must be 'in' or 'out', got {aupr_positive!r}")
    if not 0.0 <= tpr_target <= 1.0:
        raise ValueError("tpr_target must be in [0, 1]")
    n_in, n_out = len(in_scores), len(out_scores)
    # Group g holds the g-th largest distinct score; -0.0 and 0.0 share a group.
    distinct, group = np.unique(-np.concatenate([in_scores, out_scores]), return_inverse=True)
    in_count = np.bincount(group[:n_in], minlength=distinct.size)
    out_count = np.bincount(group[n_in:], minlength=distinct.size)
    in_above = np.cumsum(in_count)  # in-scores at or above each group's score
    # Each out-score loses to the in-scores of higher groups and to half of its own.
    # The sum is of half-integers below 2**52, so it is exact.
    wins = float((out_count * (in_above - 0.5 * in_count)).sum())
    if aupr_positive == DOMAIN_IN:
        pos_count, neg_count, n_pos = in_count, out_count, n_in
    else:
        # Low scores flag the out class, so sweep the groups from the lowest up.
        pos_count, neg_count, n_pos = out_count[::-1], in_count[::-1], n_out
    tp = np.cumsum(pos_count)
    precision = tp / (tp + np.cumsum(neg_count))
    k = int(np.ceil(tpr_target * n_in))
    while k > 0 and (k - 1) / n_in >= tpr_target:
        k -= 1
    while k / n_in < tpr_target:
        k += 1
    # The threshold is the k-th largest in-score, the first group whose in-tail reaches k.
    out_reached = np.cumsum(out_count)[np.searchsorted(in_above, k)] if k else 0
    return MetricsReport(
        auroc=wins / (n_in * n_out),
        aupr=float((np.diff(tp / n_pos, prepend=0.0) * precision).sum()),
        fpr95=float(out_reached / n_out),
        n_in=n_in,
        n_out=n_out,
    )


def histogram(scores: Sequence[float], bins: int, value_range: tuple[float, float]) -> Histogram:
    """Equal-width counts over left-closed bins, the last also right-closed; outside values fold into the end bins."""
    lo, hi = float(value_range[0]), float(value_range[1])
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not lo < hi:
        raise ValueError("range must satisfy lo < hi")
    scores = np.asarray(scores, dtype=float)
    idx = np.clip(np.floor((scores - lo) / (hi - lo) * bins).astype(int), 0, bins - 1)
    return Histogram(counts=np.bincount(idx, minlength=bins), edges=np.linspace(lo, hi, bins + 1))
