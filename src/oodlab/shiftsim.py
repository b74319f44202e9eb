"""Feature-space demonstrations: likelihood-vs-logit disagreement and drift.

Two experiments live here. The first searches a dataset for an (in, out) pair
that the closed-form linear score ranks one way and the Gaussian likelihood
the other. The second treats the feature vectors themselves as the trainable
parameters, freezes a head at the fitted Gaussian model, and descends each
feature on its own branch of a criterion, recording how the in- and
out-of-distribution populations move.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import criteria, heads, linalg
from .gda import DOMAIN_IN, GdaModel, LabeledSet, closed_form_discriminant, density_max, sample_synthetic


class NonFiniteState(RuntimeError):
    """A feature became non-finite during the simulation."""

    def __init__(self, step: int):
        super().__init__(f"non-finite feature state at step {step}")
        self.step = step


@dataclass(frozen=True)
class FalseLikelihoodPair:
    """An in-sample A and out-sample B with f_i(B) > f_i(A) but p(B|i) < p(A|i)."""

    a_index: int
    b_index: int
    f_a: float
    f_b: float
    lik_a: float
    lik_b: float


@dataclass(frozen=True)
class ShiftStats:
    """Population summaries of one feature snapshot.

    Center distances are squared Mahalanobis distances under the frozen model.
    The out-side fields are NaN when the snapshot holds no outliers.
    """

    mean_norm_out: float
    mean_nearest_center_out: float
    mean_own_center_in: float
    mixed_fraction: float


@dataclass(frozen=True)
class ShiftTrajectory:
    snapshots: np.ndarray  # (steps + 1, n, d)
    labels: np.ndarray  # (n,)
    domain: np.ndarray  # (n,)
    stats: list[ShiftStats]

    @property
    def steps(self) -> int:
        return self.snapshots.shape[0] - 1


def find_false_likelihood_pair(
    model: GdaModel, data: LabeledSet, class_i: int
) -> FalseLikelihoodPair | None:
    """First (by index order) pair where the linear score and likelihood disagree.

    Returns None when no such pair exists, which is a valid outcome (for
    example when the data sits exactly on the class centers).
    """
    w_hat, b_hat = closed_form_discriminant(model)
    f_scores = data.features @ w_hat[class_i] + b_hat[class_i]
    centered = (data.features - model.means[class_i]).T
    solved = linalg.tri_solve_lower(model.chol, centered)
    quad = np.einsum("ji,ji->i", solved, solved)
    log_det = 2.0 * float(np.sum(np.log(np.diag(model.chol))))
    liks = np.exp(-0.5 * (quad + log_det + model.dim * math.log(2.0 * math.pi)))

    in_mask = data.in_mask()
    in_idx = np.nonzero(in_mask)[0]
    out_idx = np.nonzero(~in_mask)[0]

    def pair(a: int, b: int) -> FalseLikelihoodPair:
        return FalseLikelihoodPair(
            a_index=int(a),
            b_index=int(b),
            f_a=float(f_scores[a]),
            f_b=float(f_scores[b]),
            lik_a=float(liks[a]),
            lik_b=float(liks[b]),
        )

    if in_idx.size and out_idx.size:
        # Showcase candidate: the outlier the linear score trusts most against
        # the most likely in-sample it still outranks.
        b = out_idx[int(np.argmax(f_scores[out_idx]))]
        eligible = in_idx[f_scores[in_idx] < f_scores[b]]
        if eligible.size:
            a = eligible[int(np.argmax(liks[eligible]))]
            if liks[a] > liks[b]:
                return pair(a, b)
    for b in out_idx:
        candidates = in_idx[(f_scores[in_idx] < f_scores[b]) & (liks[in_idx] > liks[b])]
        if candidates.size:
            return pair(int(candidates[0]), int(b))
    return None


def make_shift_bank(mu: float, zeta: float, n_in: int, n_out: int, seed: int, dims: int = 2) -> LabeledSet:
    """A feature bank with exactly n_in in-tagged and n_out out-tagged samples.

    Draws through the alternating two-cluster sampler and keeps the first
    n_in / n_out of each tag, drawing more as needed. Deterministic per seed.
    """
    batch = max(256, 4 * (n_in + n_out))
    for _ in range(24):
        data = sample_synthetic(mu, zeta, batch, seed, dims=dims)
        in_rows = np.nonzero(data.in_mask())[0]
        out_rows = np.nonzero(~data.in_mask())[0]
        if len(in_rows) >= n_in and len(out_rows) >= n_out:
            keep = np.concatenate([in_rows[:n_in], out_rows[:n_out]])
            return LabeledSet(data.features[keep], data.labels[keep], data.domain[keep])
        batch *= 2
    raise ValueError("could not collect the requested tag counts; zeta is too one-sided")


def shift_stats(
    features: np.ndarray, labels: np.ndarray, domain: np.ndarray, model: GdaModel, zeta: float
) -> ShiftStats:
    """Summaries of one snapshot against the frozen model and threshold."""
    features = np.asarray(features, dtype=float)
    in_mask = np.asarray(domain) == DOMAIN_IN
    diff = features[:, None, :] - model.means[None, :, :]
    b, k, d = diff.shape
    solved = linalg.tri_solve_lower(model.chol, diff.reshape(b * k, d).T)
    sq_mahal = np.einsum("ji,ji->i", solved, solved).reshape(b, k)

    out_rows = ~in_mask
    if out_rows.any():
        mean_norm_out = float(np.linalg.norm(features[out_rows], axis=1).mean())
        mean_nearest_center_out = float(sq_mahal[out_rows].min(axis=1).mean())
        log_det = 2.0 * float(np.sum(np.log(np.diag(model.chol))))
        best_log_dens = -0.5 * (sq_mahal[out_rows].min(axis=1) + log_det + d * math.log(2.0 * math.pi))
        mixed_fraction = float(np.mean(np.exp(best_log_dens) > zeta))
    else:
        mean_norm_out = math.nan
        mean_nearest_center_out = math.nan
        mixed_fraction = math.nan
    if in_mask.any():
        own = sq_mahal[in_mask, np.asarray(labels)[in_mask]]
        mean_own_center_in = float(own.mean())
    else:
        mean_own_center_in = math.nan
    return ShiftStats(mean_norm_out, mean_nearest_center_out, mean_own_center_in, mixed_fraction)


def _frozen_head(criterion: criteria.CriterionConfig, model: GdaModel):
    if criterion.needs_gaussian_head():
        return heads.GaussianHeadParams.from_factor(model.means, model.chol)
    w_hat, b_hat = closed_form_discriminant(model)
    return heads.LinearHeadParams(weight=w_hat, bias=b_hat)


def run_shift_sim(
    criterion: criteria.CriterionConfig,
    bank: LabeledSet,
    head_source: GdaModel,
    steps: int,
    lr: float,
    zeta: float | None = None,
) -> ShiftTrajectory:
    """Descend every feature on its own criterion branch under a frozen head.

    The head is pinned to the fitted model (closed-form linear scores, or the
    Gaussian head at the model's means and factor). Updates are simultaneous
    full-batch gradient steps, so the trajectory is deterministic and draws
    no randomness.

    Raises:
        NonFiniteState: when any feature stops being finite, which the
            unbounded energy objective can produce at large weights.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if zeta is None:
        zeta = 0.5 * density_max(bank.dim)
    head = _frozen_head(criterion, head_source)
    gaussian = isinstance(head, heads.GaussianHeadParams)

    feats = bank.features.copy()
    in_mask = bank.in_mask()
    labels = bank.labels
    snapshots = np.empty((steps + 1, feats.shape[0], feats.shape[1]))
    snapshots[0] = feats
    stats = [shift_stats(feats, labels, bank.domain, head_source, zeta)]

    for step in range(steps):
        # Overflow is reported through NonFiniteState, so silence the warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            if gaussian:
                scores = heads.gaussian_forward_batch(head, feats)
            else:
                scores = heads.linear_forward_batch(head, feats)
            upstream = np.empty_like(scores)
            upstream[in_mask] = criteria.id_loss(criterion, scores[in_mask], labels[in_mask]).d_scores
            upstream[~in_mask] = criteria.ood_loss(criterion, scores[~in_mask]).d_scores
            if gaussian:
                d_feats, _, _ = heads.gaussian_backward_batch(head, feats, upstream)
            else:
                d_feats = upstream @ head.weight
            feats = feats - lr * d_feats
        if not np.all(np.isfinite(feats)):
            raise NonFiniteState(step)
        snapshots[step + 1] = feats
        stats.append(shift_stats(feats, labels, bank.domain, head_source, zeta))

    return ShiftTrajectory(snapshots=snapshots, labels=labels.copy(), domain=bank.domain.copy(), stats=stats)


def _format_cell(x: float) -> str:
    return "NaN" if math.isnan(x) else repr(float(x))


def trajectory_to_csv(trajectory: ShiftTrajectory, path) -> None:
    dim = trajectory.snapshots.shape[2]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "idx", "domain"] + [f"x{j}" for j in range(dim)])
        for step in range(trajectory.snapshots.shape[0]):
            for idx in range(trajectory.snapshots.shape[1]):
                row = trajectory.snapshots[step, idx]
                writer.writerow([step, idx, trajectory.domain[idx]] + [repr(float(v)) for v in row])


def stats_to_csv(trajectory: ShiftTrajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_norm_out", "mean_nearest_center_out", "mean_own_center_in", "mixed_fraction"])
        for step, st in enumerate(trajectory.stats):
            writer.writerow(
                [
                    step,
                    _format_cell(st.mean_norm_out),
                    _format_cell(st.mean_nearest_center_out),
                    _format_cell(st.mean_own_center_in),
                    _format_cell(st.mixed_fraction),
                ]
            )
