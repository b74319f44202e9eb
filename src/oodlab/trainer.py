"""Desk-scale training: SGD with momentum over backbone + head under any criterion.

Each step draws a batch of in-distribution samples and an independent batch of
outliers (the dual-loader protocol), forms the criterion's two branches, and
applies one momentum-SGD update to every parameter. Evaluation runs per epoch:
it forwards each eval set once and reads accuracy, the detector metrics and a
confidence (Gaussian-head methods) or max-logit (linear heads) histogram from
those scores.

The effective outlier weight is lambda * gamma: gamma rescales a criterion's
default balance weight for sweep experiments without touching the criterion
config itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import criteria, heads, metrics
from .gda import DOMAIN_IN, DOMAIN_OUT, LabeledSet
from .seeding import component_rng

SCHEDULES = ("cosine", "stairwise")
SCORERS = ("msp", "max_logit", "energy_score", "ice_conf")
HEAD_KINDS = ("linear", "gaussian")

STAIRWISE_MILESTONES = (0.5, 0.75)  # fractions of total steps; each multiplies lr by 0.1


class NonFiniteLoss(RuntimeError):
    """Training hit a non-finite loss; the step index is attached."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


class IncompatibleScorer(ValueError):
    """The requested scorer cannot be computed on this head kind."""


class DegenerateData(ValueError):
    """The training or eval sets cannot support the configured run."""


class MalformedCheckpoint(ValueError):
    """A checkpoint file is truncated or holds values that do not parse."""


@dataclass(frozen=True)
class TrainConfig:
    criterion: criteria.CriterionConfig
    schedule: str = "cosine"
    initial_lr: float = 0.01
    epochs: int = 10
    batch_in: int = 128
    batch_out: int = 256
    momentum: float = 0.9
    seed: int = 0
    gamma: float = 1.0
    head: str = "auto"  # auto | linear | gaussian
    hidden: tuple[int, ...] = (64, 64)
    feature_dim: int = 8
    scorer: str = "auto"  # auto | one of SCORERS
    aupr_positive: str = DOMAIN_OUT
    hist_bins: int = 20

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.epochs < 1 or self.batch_in < 1 or self.batch_out < 1:
            raise ValueError("epochs and batch sizes must be >= 1")
        if self.feature_dim < 1 or any(width < 1 for width in self.hidden):
            raise ValueError("feature_dim and hidden widths must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.initial_lr <= 0:
            raise ValueError("initial_lr must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.head not in ("auto",) + HEAD_KINDS:
            raise ValueError(f"unknown head kind {self.head!r}")
        if self.scorer not in ("auto",) + SCORERS:
            raise ValueError(f"unknown scorer {self.scorer!r}")
        if self.aupr_positive not in (DOMAIN_IN, DOMAIN_OUT):
            raise ValueError("aupr_positive must be 'in' or 'out'")
        if self.hist_bins < 1:
            raise ValueError("hist_bins must be >= 1")
        resolve_head_kind(self.head, self.criterion)

    @property
    def outlier_weight(self) -> float:
        return self.criterion.weight * self.gamma


def resolve_head_kind(head: str, criterion: criteria.CriterionConfig) -> str:
    if head == "auto":
        return "gaussian" if criterion.needs_gaussian_head() else "linear"
    if criterion.needs_gaussian_head() and head != "gaussian":
        raise ValueError(f"criterion {criterion.kind!r} needs the gaussian head, got {head!r}")
    return head


def resolve_scorer(scorer: str, head_kind: str, criterion: criteria.CriterionConfig) -> str:
    if scorer == "auto":
        scorer = "ice_conf" if criterion.needs_gaussian_head() else "msp"
    if scorer == "ice_conf" and head_kind != "gaussian":
        raise IncompatibleScorer("ice_conf needs the gaussian head")
    return scorer


@dataclass
class Model:
    backbone: bb.MlpParams
    head_kind: str
    head: heads.LinearHeadParams | heads.GaussianHeadParams

    @property
    def n_classes(self) -> int:
        return self.head.n_classes


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    loss_in: float
    loss_out: float
    acc_in: float
    report: metrics.MetricsReport
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    conf_mean_in: float
    conf_mean_out: float

    def to_json_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "loss_in": self.loss_in,
            "loss_out": self.loss_out,
            "acc_in": self.acc_in,
            "auroc": self.report.auroc,
            "aupr": self.report.aupr,
            "fpr95": self.report.fpr95,
            "hist_bins": [float(e) for e in self.hist_edges],
            "hist_counts": [int(c) for c in self.hist_counts],
            "conf_mean_in": self.conf_mean_in,
            "conf_mean_out": self.conf_mean_out,
        }


def write_epoch_logs(logs: list[EpochLog], path) -> None:
    with open(path, "w") as fh:
        for log in logs:
            fh.write(json.dumps(log.to_json_dict()) + "\n")


def lr_at(schedule: str, initial_lr: float, step: int, total_steps: int) -> float:
    """Learning rate at a zero-based step of a ``total_steps``-long run."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    if schedule == "cosine":
        return initial_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
    if schedule == "stairwise":
        factor = 1.0
        for milestone in STAIRWISE_MILESTONES:
            if step >= milestone * total_steps:
                factor *= 0.1
        return initial_lr * factor
    raise ValueError(f"unknown schedule {schedule!r}")


def param_items(model: Model) -> list[tuple[str, np.ndarray]]:
    items = []
    for i, layer in enumerate(model.backbone.layers):
        items.append((f"backbone.{i}.weight", layer.weight))
        items.append((f"backbone.{i}.bias", layer.bias))
    if model.head_kind == "linear":
        items.append(("head.weight", model.head.weight))
        items.append(("head.bias", model.head.bias))
    else:
        items.append(("head.means", model.head.means))
        items.append(("head.tri_raw", model.head.tri_raw))
    return items


def build_model(config: TrainConfig, train_in: LabeledSet) -> Model:
    """Seeded backbone and head; Gaussian means start at the class feature means."""
    n_classes = int(train_in.labels.max()) + 1
    if n_classes < 2:
        raise DegenerateData("need at least two classes")
    widths = (train_in.dim,) + tuple(config.hidden) + (config.feature_dim,)
    net = bb.init_mlp(widths, component_rng(config.seed, "backbone_init"))
    head_kind = resolve_head_kind(config.head, config.criterion)
    head_rng = component_rng(config.seed, "head_init")
    if head_kind == "gaussian":
        feats, _ = bb.forward_batch(net, train_in.features)
        class_means = np.zeros((n_classes, config.feature_dim))
        for k in range(n_classes):
            rows = feats[train_in.labels == k]
            if rows.shape[0] == 0:
                raise DegenerateData(f"class {k} has no training samples")
            class_means[k] = rows.mean(axis=0)
        head = heads.init_gaussian_head(config.feature_dim, n_classes, class_means=class_means)
    else:
        head = heads.init_linear_head(config.feature_dim, n_classes, head_rng)
    return Model(backbone=net, head_kind=head_kind, head=head)


def head_scores_batch(model: Model, feats: np.ndarray) -> np.ndarray:
    if model.head_kind == "linear":
        return heads.linear_forward_batch(model.head, feats)
    return heads.gaussian_forward_batch(model.head, feats)


def features_batch(model: Model, x: np.ndarray) -> np.ndarray:
    feats, _ = bb.forward_batch(model.backbone, x)
    return feats


def scores_batch(model: Model, x: np.ndarray) -> np.ndarray:
    return head_scores_batch(model, features_batch(model, x))


def score_samples(model: Model, x: np.ndarray, scorer: str) -> np.ndarray:
    """Per-sample detector confidence, higher meaning more in-distribution."""
    if scorer not in SCORERS:
        raise IncompatibleScorer(f"unknown scorer {scorer!r}")
    if scorer == "ice_conf" and model.head_kind != "gaussian":
        raise IncompatibleScorer("ice_conf needs the gaussian head")
    return _scorer_values(scores_batch(model, x), scorer)


def _scorer_values(scores: np.ndarray, scorer: str) -> np.ndarray:
    """One ``scorer`` value per row of ``(N, K)`` head scores."""
    if scorer == "max_logit":
        return scores.max(axis=1)
    if scorer == "ice_conf":
        return heads.ice_confidence(scores)
    # msp is the largest softmax mass, energy_score the logsumexp
    rep = criteria.energy(scores)
    return rep.d_scores.max(axis=1) if scorer == "msp" else rep.value


def evaluate(
    model: Model,
    eval_in: LabeledSet,
    eval_out: LabeledSet,
    scorer: str,
    aupr_positive: str = DOMAIN_OUT,
) -> metrics.MetricsReport:
    """Score both eval sets with ``scorer`` and compute the detection metrics."""
    s_in = score_samples(model, eval_in.features, scorer)
    s_out = score_samples(model, eval_out.features, scorer)
    return metrics.compute_report(s_in, s_out, aupr_positive=aupr_positive)


def batch_gradients(
    model: Model,
    criterion: criteria.CriterionConfig,
    weight: float,
    in_x: np.ndarray,
    in_y: np.ndarray,
    out_x: np.ndarray,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Branch losses and the gradient of their sum for one dual batch.

    Both branches are means over their batch; the same code path serves the
    training step and the finite-difference audit.
    """
    n_in = in_x.shape[0]
    n_out = out_x.shape[0]
    x = np.vstack([in_x, out_x]) if n_out else np.asarray(in_x, dtype=float)
    # Overflow here shows up as a non-finite loss, which the caller handles;
    # the runtime warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        feats, cache = bb.forward_batch(model.backbone, x)
        scores = head_scores_batch(model, feats)
        in_rep = criteria.id_loss(criterion, scores[:n_in], in_y, weight)
        out_rep = criteria.ood_loss(criterion, scores[n_in:], weight)
        upstream = np.concatenate([in_rep.d_scores / n_in, out_rep.d_scores / max(n_out, 1)])
        loss_in = float(in_rep.value.mean())
        loss_out = float(out_rep.value.mean()) if n_out else 0.0

        grads: dict[str, np.ndarray] = {}
        if model.head_kind == "linear":
            d_feats, d_w, d_b = heads.linear_backward_batch(model.head, feats, upstream)
            grads["head.weight"] = d_w
            grads["head.bias"] = d_b
        else:
            d_feats, d_means, d_tri = heads.gaussian_backward_batch(model.head, feats, upstream)
            grads["head.means"] = d_means
            grads["head.tri_raw"] = d_tri
        layer_grads, _ = bb.backward_batch(model.backbone, cache, d_feats)
        for i, (d_weight, d_bias) in enumerate(layer_grads):
            grads[f"backbone.{i}.weight"] = d_weight
            grads[f"backbone.{i}.bias"] = d_bias
    return loss_in, loss_out, grads


class _OutlierCycler:
    """Hands out outlier indices, reshuffling each time the pool is exhausted."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.queue: list[int] = []

    def take(self, count: int) -> np.ndarray:
        picked: list[int] = []
        while len(picked) < count:
            if not self.queue:
                self.queue = list(self.rng.permutation(self.n))
            need = count - len(picked)
            picked.extend(self.queue[:need])
            del self.queue[:need]
        return np.asarray(picked, dtype=int)


def _hist_scorer(model: Model, criterion: criteria.CriterionConfig) -> str:
    if model.head_kind == "gaussian" and criterion.needs_gaussian_head():
        return "ice_conf"
    return "max_logit"


def _epoch_log(
    model: Model,
    config: TrainConfig,
    scorer: str,
    epoch: int,
    loss_in: float,
    loss_out: float,
    eval_in: LabeledSet,
    eval_out: LabeledSet,
    step: int = 0,
) -> EpochLog:
    # Each eval set is forwarded once; every per-epoch figure reads these two
    # score matrices. They stay separate calls so the BLAS results match
    # score_samples on each set bit for bit.
    scores_in = scores_batch(model, eval_in.features)
    scores_out = scores_batch(model, eval_out.features)
    hist_scorer = _hist_scorer(model, config.criterion)
    conf_in = _scorer_values(scores_in, hist_scorer)
    conf_out = _scorer_values(scores_out, hist_scorer)
    combined = np.concatenate([conf_in, conf_out])
    if not np.all(np.isfinite(combined)):
        raise NonFiniteLoss(step)
    report = metrics.compute_report(
        _scorer_values(scores_in, scorer),
        _scorer_values(scores_out, scorer),
        aupr_positive=config.aupr_positive,
    )
    acc = float(np.mean(scores_in.argmax(axis=1) == eval_in.labels))
    if hist_scorer == "ice_conf":
        value_range = (0.0, 1.0)
    else:
        lo, hi = float(combined.min()), float(combined.max())
        if lo == hi:
            pad = max(0.5, abs(lo) * 1e-9)
            lo, hi = lo - pad, hi + pad
        value_range = (lo, hi)
    hist = metrics.histogram(combined, config.hist_bins, value_range)
    return EpochLog(
        epoch=epoch,
        loss_in=loss_in,
        loss_out=loss_out,
        acc_in=acc,
        report=report,
        hist_edges=hist.edges,
        hist_counts=hist.counts,
        conf_mean_in=float(conf_in.mean()),
        conf_mean_out=float(conf_out.mean()),
    )


def train(
    config: TrainConfig,
    train_in: LabeledSet,
    train_out: LabeledSet,
    eval_in: LabeledSet,
    eval_out: LabeledSet,
) -> tuple[Model, list[EpochLog]]:
    """Run the full training protocol; returns the model and one log per epoch.

    In-distribution batches are drawn without replacement within an epoch;
    the outlier set is cycled independently on its own stream. Everything is
    deterministic given the config (including its seed).

    Raises:
        NonFiniteLoss: training is aborted the first time a batch loss is
            not finite (the expected failure mode of the unbounded energy
            objective at large gamma).
    """
    if len(train_in) == 0 or len(eval_in) == 0 or len(eval_out) == 0:
        raise DegenerateData("training and eval sets must be nonempty")
    weight = config.outlier_weight
    # A zero effective weight removes every outlier term from the objective,
    # so the outlier loader is skipped entirely; this makes zero-weight runs
    # match plain training step for step.
    use_out = config.criterion.kind != "plain" and weight > 0.0
    if use_out and len(train_out) == 0:
        raise DegenerateData(f"criterion {config.criterion.kind!r} needs outlier training data")
    head_kind = resolve_head_kind(config.head, config.criterion)
    scorer = resolve_scorer(config.scorer, head_kind, config.criterion)
    model = build_model(config, train_in)

    velocity = {name: np.zeros_like(arr) for name, arr in param_items(model)}
    in_rng = component_rng(config.seed, "batch_in")
    out_rng = component_rng(config.seed, "batch_out")
    cycler = _OutlierCycler(len(train_out), out_rng) if use_out else None

    n_in = len(train_in)
    steps_per_epoch = math.ceil(n_in / config.batch_in)
    total_steps = config.epochs * steps_per_epoch
    empty_out = np.zeros((0, train_in.dim))

    logs: list[EpochLog] = []
    global_step = 0
    for epoch in range(config.epochs):
        perm = in_rng.permutation(n_in)
        epoch_loss_in = 0.0
        epoch_loss_out = 0.0
        for start in range(0, n_in, config.batch_in):
            chunk = perm[start : start + config.batch_in]
            batch_x = train_in.features[chunk]
            batch_y = train_in.labels[chunk]
            out_x = train_out.features[cycler.take(config.batch_out)] if use_out else empty_out
            loss_in, loss_out, grads = batch_gradients(
                model, config.criterion, weight, batch_x, batch_y, out_x
            )
            if not math.isfinite(loss_in + loss_out):
                raise NonFiniteLoss(global_step)
            lr = lr_at(config.schedule, config.initial_lr, global_step, total_steps)
            for name, arr in param_items(model):
                vel = velocity[name]
                vel *= config.momentum
                vel += grads[name]
                arr -= lr * vel
            if any(not np.all(np.isfinite(arr)) for _, arr in param_items(model)):
                raise NonFiniteLoss(global_step)
            epoch_loss_in += loss_in
            epoch_loss_out += loss_out
            global_step += 1
        logs.append(
            _epoch_log(
                model,
                config,
                scorer,
                epoch,
                epoch_loss_in / steps_per_epoch,
                epoch_loss_out / steps_per_epoch,
                eval_in,
                eval_out,
                step=global_step - 1,
            )
        )
    return model, logs


# Checkpoint text format: one "name=value-list" line per tensor, floats in
# row-major order, plus the few meta lines needed to rebuild shapes.

CHECKPOINT_SCHEMA = "oodlab-checkpoint-v1"


def save_checkpoint(model: Model, path) -> None:
    lines = [f"schema={CHECKPOINT_SCHEMA}", f"head.kind={model.head_kind}"]
    lines.append("backbone.widths=" + " ".join(str(w) for w in model.backbone.widths))
    for name, arr in param_items(model):
        lines.append(name + "=" + " ".join(repr(float(v)) for v in np.asarray(arr).ravel()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Model:
    """Rebuild a model from ``save_checkpoint`` output.

    Raises:
        MalformedCheckpoint: the file is truncated (every line of a complete
            file ends in a newline), lacks an entry, or holds a value that
            does not parse or is not finite.
        OSError: the file cannot be read.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        if not text.endswith("\n"):
            raise ValueError("truncated: no final newline")
        return _model_from_entries(dict(line.partition("=")[::2] for line in text.splitlines() if line))
    except KeyError as exc:
        raise MalformedCheckpoint(f"checkpoint {path} has no {exc} entry") from exc
    except ValueError as exc:
        raise MalformedCheckpoint(f"checkpoint {path}: {exc}") from exc


def _model_from_entries(entries: dict[str, str]) -> Model:
    if entries.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema {entries.get('schema')!r}")
    head_kind = entries["head.kind"]
    if head_kind not in HEAD_KINDS:
        raise ValueError(f"unknown head kind {head_kind!r} in checkpoint")
    widths = tuple(int(w) for w in entries["backbone.widths"].split())

    def tensor(key: str, shape: tuple[int, ...]) -> np.ndarray:
        raw = entries[key].split()
        values = np.array([float(v) for v in raw], dtype=float)
        if values.size != int(np.prod(shape)):
            raise ValueError(f"checkpoint tensor {key} has {values.size} values, expected {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"checkpoint tensor {key} is not finite")
        return values.reshape(shape)

    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        activation = "none" if i == len(widths) - 2 else "relu"
        layers.append(
            bb.Layer(
                weight=tensor(f"backbone.{i}.weight", (fan_out, fan_in)),
                bias=tensor(f"backbone.{i}.bias", (fan_out,)),
                activation=activation,
            )
        )
    net = bb.MlpParams(layers=layers)
    dim = widths[-1]
    if head_kind == "linear":
        flat = entries["head.weight"].split()
        n_classes = len(flat) // dim
        head = heads.LinearHeadParams(
            weight=tensor("head.weight", (n_classes, dim)),
            bias=tensor("head.bias", (n_classes,)),
        )
    else:
        flat = entries["head.means"].split()
        n_classes = len(flat) // dim
        head = heads.GaussianHeadParams(
            means=tensor("head.means", (n_classes, dim)),
            tri_raw=tensor("head.tri_raw", (dim, dim)),
        )
    return Model(backbone=net, head_kind=head_kind, head=head)
