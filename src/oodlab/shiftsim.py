"""Feature-space demonstrations: likelihood-vs-logit disagreement and drift.

Two experiments live here. The first searches a dataset for an (in, out) pair
that the closed-form linear score ranks one way and the Gaussian likelihood
the other. The second treats the feature vectors themselves as the trainable
parameters, freezes a head at the fitted Gaussian model, and descends each
feature on the branch of a criterion that its label picks
(``trainer.row_losses``, as in training), recording how the in- and
out-of-distribution populations move. As a training batch does, the bank
holds its in-distribution rows first and its outliers after them, the order
``make_shift_bank`` draws. Like training, it takes the head kind,
the criterion and the outlier weight (lambda * gamma) from a resolved
``TrainConfig``, so the head and the loss can be varied apart. A trajectory
is written as two CSV files: every snapshot's features, one snapshot per
write through ``floatrows.write_csv_rows``, and the per-step population
statistics. The statistics are computed after the descent, in one
``shift_stats`` call over every snapshot, and a failure is raised in step
order: bank statistics that overflow first, then the earlier of a non-finite
statistic and a non-finite feature, the feature first at the same step.
Every distance, nearest center and likelihood here is read off the frozen
model's Gaussian-head scores h_i (``heads.forward``): a squared Mahalanobis
distance is -h_i, the nearest center has the largest h_i (``linalg.row_max``)
and the likelihood is ``gda.log_density`` of h_i.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import heads, linalg
from .errors import ConfigError, NonFiniteState
from .floatrows import CSV_END, format_cell, join_cells, write_csv_rows, write_csv_table
from .gda import DOMAIN_IN, LabeledSet, closed_form_discriminant, log_density, sample_synthetic
from .trainer import TrainConfig, in_first_count, row_losses


# Rows that all shift-bank draws together may use, per requested row. Redraws
# double from 4 rows per requested row, so the largest holds 128; a threshold
# that tags (almost) every draw the same way then fails fast instead of
# exhausting memory.
BANK_DRAW_BUDGET = 256

# Rows that ``shift_stats`` whitens at once: a block is as many whole
# snapshots as fit, at least one. Whitening a full trajectory at once would
# hold every snapshot's (rows, classes, dims) residuals in memory together.
STATS_BLOCK_ROWS = 4096


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
    """Population summaries of one feature snapshot, or per snapshot of a stack.

    Center distances are squared Mahalanobis distances under the frozen model.
    The out-side fields are NaN when the snapshot holds no outliers, and the
    in-side field when it holds no in-distribution rows.
    """

    mean_norm_out: float
    mean_nearest_center_out: float
    mean_own_center_in: float
    mixed_fraction: float


@dataclass(frozen=True)
class ShiftTrajectory:
    snapshots: np.ndarray  # (steps + 1, n, d)
    domain: np.ndarray  # (n,) str, each row's "in"/"out" tag
    stats: list[ShiftStats]

    @property
    def steps(self) -> int:
        return self.snapshots.shape[0] - 1


def find_false_likelihood_pair(
    model: heads.GaussianHeadParams, data: LabeledSet, class_i: int
) -> FalseLikelihoodPair | None:
    """A pair where the linear score and the likelihood disagree, showcase pair first.

    The showcase pair is the outlier the linear score trusts most and the most
    likely in-sample it still outranks; if they agree, the first outlier by
    index that any in-sample disagrees with is paired with the first such
    in-sample. None when no pair disagrees, a valid outcome (for example when
    the data sits exactly on the class centers).
    """
    w_hat, b_hat = closed_form_discriminant(model)
    f_scores = data.features @ w_hat[class_i] + b_hat[class_i]
    liks = np.exp(log_density(model, heads.forward(model, data.features)[0][:, class_i]))

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
    """A feature bank with exactly n_in in-tagged and n_out out-tagged samples, the in-tagged first.

    Draws through the alternating two-cluster sampler and keeps the first
    n_in / n_out of each tag, redrawing at twice the size as needed.
    Deterministic per seed.

    Raises:
        ConfigError: the draws allowed by ``BANK_DRAW_BUDGET`` hold too few
            rows of one tag, because the density threshold tags (almost)
            every draw the same way.
    """
    wanted = n_in + n_out
    budget = max(256, BANK_DRAW_BUDGET * wanted)
    batch = max(256, 4 * wanted)
    drawn = 0
    while drawn + batch <= budget:
        drawn += batch
        data = sample_synthetic(mu, zeta, batch, seed, dims=dims)
        in_rows = np.nonzero(data.in_mask())[0]
        out_rows = np.nonzero(~data.in_mask())[0]
        if len(in_rows) >= n_in and len(out_rows) >= n_out:
            keep = np.concatenate([in_rows[:n_in], out_rows[:n_out]])
            return data.subset(keep)
        batch *= 2
    raise ConfigError(
        f"zeta={zeta!r} tags {len(in_rows)} in and {len(out_rows)} out rows of {len(data)} draws; "
        f"the shift bank needs n_in={n_in} and n_out={n_out}"
    )


def _row_means(values: np.ndarray) -> np.ndarray:
    """Means over the last axis, summed and divided as ``ndarray.mean`` does, without its per-call dispatch."""
    return np.add.reduce(values, axis=-1, dtype=float) / values.shape[-1]


def shift_stats(
    features: np.ndarray, labels: np.ndarray, domain: np.ndarray, model: heads.GaussianHeadParams, zeta: float
) -> ShiftStats:
    """Summaries of a snapshot, or of a stack of them, against the frozen model and threshold.

    ``features`` is one (n, d) snapshot, which gives float fields, or a stack
    (..., n, d), which gives fields of shape ``features.shape[:-2]``. The
    stack is whitened in blocks of whole snapshots holding at most
    ``STATS_BLOCK_ROWS`` rows (at least one snapshot), and every mean is taken
    per snapshot, so a snapshot's statistics are bit-identical whether it comes
    alone or in a stack. A statistic that overflows comes back as inf or NaN,
    with no numpy warning; ``run_shift_sim`` reports it.
    """
    features = np.asarray(features, dtype=float)
    lead, (n, dim) = features.shape[:-2], features.shape[-2:]
    stack = features.reshape(-1, n, dim)
    classes = model.means.shape[0]
    in_mask = np.asarray(domain) == DOMAIN_IN
    in_rows, out_rows = np.flatnonzero(in_mask), np.flatnonzero(~in_mask)
    # each in row's own-class entry in a snapshot's flattened (n * classes) scores
    own_entries = in_rows * classes + np.asarray(labels)[in_rows]
    per_block = max(1, STATS_BLOCK_ROWS // max(n, 1))
    table = np.full((len(fields(ShiftStats)), len(stack)), math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(stack), per_block):
            block = stack[start : start + per_block]
            h = heads.forward(model, block.reshape(-1, dim))[0].reshape(len(block), n, classes)
            norm_out, nearest_out, own_in, mixed = table[:, start : start + len(block)]
            # np.take gathers each snapshot's rows into one contiguous run, so
            # every per-snapshot mean sums in the order a lone snapshot's does.
            if out_rows.size:
                out_feats = np.take(block, out_rows, axis=1)
                norm_out[:] = _row_means(np.sqrt(np.add.reduce(out_feats * out_feats, axis=-1)))
                # the nearest center has the highest score; a distance is a negated score
                nearest = linalg.row_max(np.take(h, out_rows, axis=1))
                np.negative(_row_means(nearest), out=nearest_out)
                mixed[:] = _row_means(np.exp(log_density(model, nearest)) > zeta)
            if in_rows.size:
                np.negative(_row_means(np.take(h.reshape(len(block), -1), own_entries, axis=1)), out=own_in)
    if not lead:
        return ShiftStats(*table[:, 0].tolist())
    return ShiftStats(*table.reshape(-1, *lead))


def _frozen_head(head_kind: str, model: heads.GaussianHeadParams):
    if head_kind == heads.GaussianHeadParams.KIND:
        return model
    w_hat, b_hat = closed_form_discriminant(model)
    return heads.LinearHeadParams(weight=w_hat, bias=b_hat)


def run_shift_sim(
    config: TrainConfig,
    bank: LabeledSet,
    head_source: heads.GaussianHeadParams,
    steps: int,
    lr: float,
    zeta: float,
) -> ShiftTrajectory:
    """Descend every feature on its branch of ``config.criterion`` under a frozen head.

    The head of kind ``config.head`` is pinned to the fitted model (its
    closed-form linear scores, or the model itself as the Gaussian head), and
    the outlier terms are scaled by ``config.outlier_weight``.
    Updates are simultaneous full-batch gradient steps, so the trajectory is
    deterministic and draws no randomness. The descent runs first and stops
    at the first step that makes a feature non-finite; then one
    ``shift_stats`` call computes the statistics of every snapshot written.

    Raises:
        ValueError: a bank row labelled >= 0 follows an outlier row; the bank
            is checked once, before the descent.
        ConfigError: a statistic of the bank itself (snapshot 0) overflows;
            this wins over any failure of the descent.
        NonFiniteState: a step makes a statistic of a side that has rows
            non-finite, or makes any feature non-finite; the earlier step is
            reported, and at the same step the features. The unbounded
            energy objective at large weights and a huge ``lr`` both do.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lr < 0:
        raise ValueError("lr must be >= 0")
    in_first_count(bank.labels)
    criterion, weight = config.criterion, config.outlier_weight
    head = _frozen_head(config.head, head_source)

    feats = bank.features.copy()
    labels = bank.labels
    snapshots = np.empty((steps + 1, feats.shape[0], feats.shape[1]))
    snapshots[0] = feats
    failed_step = None
    for step in range(steps):
        # Overflow is reported through NonFiniteState, so silence the warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            scores, head_cache = heads.forward(head, feats)
            upstream = row_losses(criterion, scores, labels, weight).d_scores
            d_feats, _ = heads.backward(head, head_cache, upstream)
            feats = feats - lr * d_feats
        if not np.all(np.isfinite(feats)):
            failed_step = step
            break
        snapshots[step + 1] = feats

    # The statistics of every snapshot written, in one call. A side with no
    # rows has NaN statistics by design; any other non-finite statistic is an
    # overflow. ``filled`` follows the ShiftStats field order.
    written = steps + 1 if failed_step is None else failed_step + 1
    columns = np.array(astuple(shift_stats(snapshots[:written], labels, bank.domain, head_source, zeta)))
    in_mask = bank.in_mask()
    has_in, has_out = in_mask.any(), not in_mask.all()
    filled = np.array([has_out, has_out, has_in, has_out])
    finite = np.isfinite(columns[filled]).all(axis=0)
    if not finite[0]:
        raise ConfigError("shift bank statistics overflow the float range")
    if not finite.all():
        step = int(np.argmin(finite)) - 1
        raise NonFiniteState(f"non-finite shift statistics at step {step}", step)
    if failed_step is not None:
        raise NonFiniteState(f"non-finite feature state at step {failed_step}", failed_step)
    stats = [ShiftStats(*row) for row in columns.T.tolist()]
    return ShiftTrajectory(snapshots=snapshots, domain=bank.domain, stats=stats)


def trajectory_to_csv(trajectory: ShiftTrajectory, path) -> None:
    """One CSV row per (step, sample): ``step,idx,domain,x0,...``, one snapshot per write."""
    dim = trajectory.snapshots.shape[2]
    idx_domain = [join_cells([idx, tag]) for idx, tag in enumerate(trajectory.domain.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write(join_cells(["step", "idx", "domain"] + [f"x{j}" for j in range(dim)]) + CSV_END)
        for step, snapshot in enumerate(trajectory.snapshots):
            write_csv_rows(fh, snapshot, lead=[f"{step},{cells}" for cells in idx_domain])


def stats_to_csv(trajectory: ShiftTrajectory, path) -> None:
    """One CSV row of ``ShiftStats`` per step; a statistic with no rows to average is ``NaN``."""
    rows = [["step", *(field.name for field in fields(ShiftStats))]]
    rows += [[step, *map(format_cell, astuple(st))] for step, st in enumerate(trajectory.stats)]
    write_csv_table(path, rows)
