"""Desk-scale training: SGD with momentum over backbone + head under any criterion.

Each step draws a batch of in-distribution samples and an independent batch of
outliers (the dual-loader protocol) as one in-first labelled batch: its rows
labelled >= 0 lead and take the criterion's in-distribution branch, and the
outliers after them take its outlier branch, so each branch is one slice
(``row_losses``). It applies one momentum-SGD update, with the global
gradient norm clipped at the head's ``GRAD_NORM_BOUND``. Every parameter is a
view of one float64 vector, ``Model.flat``, and ``batch_gradients`` returns
one fresh gradient vector in the same layout (``Model.views``), into whose
views the backbone's backward writes, so the norm, the clip, the momentum
update and the finiteness check are one array operation each. Training
reaches the head only through ``heads.forward``/``heads.backward`` and its
params' fields; only the head's initialisation, the scorer check and the
histogram scorer depend on its kind. Evaluation runs per epoch: one forward
scores both eval sets, and accuracy, the detector metrics and a confidence
(Gaussian head) or max-logit (linear head) histogram are read from those
scores, each a row of ``SCORERS``; a histogram has at most one bin per eval
score. Every forward that no backward follows (the
initial class means, eval scoring, feature export) runs through
``backbone.forward_features``, the cache-free forward in row blocks, so its
features match the training path's bit for bit.

A resolved ``TrainConfig`` is the one place that decides the head kind, the
scorer and the outlier weight; training, the epoch log and the shift
simulation read its fields. The outlier weight is lambda * gamma: gamma
rescales a criterion's balance weight for sweep experiments without touching
the criterion config itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import criteria, heads, linalg, metrics
from .errors import ConfigError, MalformedData, NonFiniteState
from .floatrows import float_rows
from .gda import DOMAIN_IN, DOMAIN_OUT, LabeledSet
from .seeding import component_rng

SCHEDULES = ("cosine", "stairwise")
# One detector value per row of (N, K) head scores, higher meaning more in-distribution (msp: largest
# softmax mass, energy_score: logsumexp). Kernels are called through their module, as perfbench traces.
SCORERS = {
    "msp": lambda scores: linalg.row_max(criteria.energy(scores).d_scores),
    "max_logit": lambda scores: linalg.row_max(scores),
    "energy_score": lambda scores: criteria.energy(scores).value,
    "ice_conf": lambda scores: heads.ice_confidence(scores),
}

STAIRWISE_MILESTONES = (0.5, 0.75)  # fractions of total steps; each multiplies lr by 0.1


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
    head: str = "auto"  # auto | linear | gaussian; auto is resolved on construction
    hidden: tuple[int, ...] = (64, 64)
    feature_dim: int = 8
    scorer: str = "auto"  # auto | one of SCORERS; auto is resolved on construction
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
        if self.head != "auto" and self.head not in heads.HEAD_TYPES:
            raise ValueError(f"unknown head kind {self.head!r}")
        if self.scorer != "auto" and self.scorer not in SCORERS:
            raise ValueError(f"unknown scorer {self.scorer!r}")
        if self.aupr_positive not in (DOMAIN_IN, DOMAIN_OUT):
            raise ValueError("aupr_positive must be 'in' or 'out'")
        if self.hist_bins < 1:
            raise ValueError("hist_bins must be >= 1")
        object.__setattr__(self, "head", resolve_head_kind(self.head, self.criterion))
        object.__setattr__(self, "scorer", resolve_scorer(self.scorer, self.head, self.criterion))

    @property
    def outlier_weight(self) -> float:
        return self.criterion.lam * self.gamma


def resolve_head_kind(head: str, criterion: criteria.CriterionConfig) -> str:
    if head == "auto":
        return "gaussian" if criterion.needs_gaussian_head() else "linear"
    if criterion.needs_gaussian_head() and head != "gaussian":
        raise ValueError(f"criterion {criterion.kind!r} needs the gaussian head, got {head!r}")
    return head


def resolve_scorer(scorer: str, head_kind: str, criterion: criteria.CriterionConfig) -> str:
    if scorer == "auto":
        scorer = "ice_conf" if criterion.needs_gaussian_head() else "msp"
    return _check_scorer(scorer, head_kind)


def _check_scorer(scorer: str, head_kind: str) -> str:
    if scorer not in SCORERS:
        raise ConfigError(f"unknown scorer {scorer!r}")
    if scorer == "ice_conf" and head_kind != heads.GaussianHeadParams.KIND:
        raise ConfigError("ice_conf needs the gaussian head")
    return scorer


@dataclass
class Model:
    """Backbone and head whose parameters are views of one float64 buffer.

    Construction copies every parameter into ``flat``, laid out in
    ``param_items`` order, and rebinds each field to its view (``views``). An
    in-place update of ``flat`` moves every weight, and the gradient vector of
    ``batch_gradients`` lines up with it index for index.
    """

    backbone: bb.MlpParams
    head: heads.LinearHeadParams | heads.GaussianHeadParams
    flat: np.ndarray = dataclasses.field(init=False, repr=False)
    # (start, stop, shape) of each parameter in ``flat``, in param_items order
    _layout: list[tuple[int, int, tuple[int, ...]]] = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        slots = _param_slots(self)
        arrays = [getattr(owner, attr) for _, owner, attr in slots]
        stops = np.cumsum([arr.size for arr in arrays]).tolist()
        self._layout = [(stop - arr.size, stop, arr.shape) for arr, stop in zip(arrays, stops)]
        self.flat = np.concatenate([np.ravel(arr) for arr in arrays])
        for (_, owner, attr), view in zip(slots, self.views(self.flat)):
            setattr(owner, attr, view)

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out as ``flat``, one per parameter, shaped and ordered as ``param_items``.

        The one definition of the layout: construction binds each parameter to
        its view of ``flat``, and ``batch_gradients`` writes each gradient
        into its view of the gradient vector.
        """
        return [vector[start:stop].reshape(shape) for start, stop, shape in self._layout]

    @property
    def head_kind(self) -> str:
        return self.head.KIND


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


def _param_slots(model: Model) -> list[tuple[str, object, str]]:
    """(name, owner, attribute) of every parameter, in ``Model.flat`` order."""
    layers = enumerate(model.backbone.layers)
    slots = [(f"backbone.{i}.{attr}", layer, attr) for i, layer in layers for attr in ("weight", "bias")]
    return slots + [(f"head.{field.name}", model.head, field.name) for field in dataclasses.fields(model.head)]


def param_items(model: Model) -> list[tuple[str, np.ndarray]]:
    """(name, array) of every parameter in ``Model.flat`` order; each array is a view of it."""
    return [(name, getattr(owner, attr)) for name, owner, attr in _param_slots(model)]


def build_model(config: TrainConfig, train_in: LabeledSet) -> Model:
    """Seeded backbone and head; Gaussian means start at the class feature means.

    Either head is rejected with ConfigError when a class has no training
    sample or the initial class feature means overflow the float range.
    """
    n_classes = int(train_in.labels.max()) + 1
    if n_classes < 2:
        raise ConfigError("need at least two classes")
    widths = (train_in.dim,) + tuple(config.hidden) + (config.feature_dim,)
    net = bb.init_mlp(widths, component_rng(config.seed, "backbone_init"))
    with np.errstate(over="ignore", invalid="ignore"):
        feats = bb.forward_features(net, train_in.features)
        class_means = np.zeros((n_classes, config.feature_dim))
        for k in range(n_classes):
            rows = feats[train_in.labels == k]
            if rows.shape[0] == 0:
                raise ConfigError(f"class {k} has no training samples")
            class_means[k] = rows.mean(axis=0)
    if not np.all(np.isfinite(class_means)):
        raise ConfigError("class feature means overflow the float range")
    if config.head == heads.GaussianHeadParams.KIND:
        # tri_raw = 0 is the identity factor: initial scores are negative squared distances.
        head = heads.GaussianHeadParams(means=class_means, tri_raw=np.zeros((config.feature_dim,) * 2))
    else:
        weight = 0.1 * component_rng(config.seed, "head_init").standard_normal((n_classes, config.feature_dim))
        head = heads.LinearHeadParams(weight=weight, bias=np.zeros(n_classes))
    return Model(backbone=net, head=head)


def features_batch(model: Model, x: np.ndarray) -> np.ndarray:
    return bb.forward_features(model.backbone, x)


def scores_batch(model: Model, x: np.ndarray) -> np.ndarray:
    return heads.forward(model.head, features_batch(model, x))[0]


def score_samples(model: Model, x: np.ndarray, scorer: str) -> np.ndarray:
    """Per-sample detector confidence, higher meaning more in-distribution."""
    return SCORERS[_check_scorer(scorer, model.head_kind)](scores_batch(model, x))


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


def in_first_count(labels: np.ndarray) -> int:
    """Rows of a labelled batch on the in-distribution branch: those labelled >= 0, which lead it.

    Raises:
        ValueError: a row labelled >= 0 follows an outlier row.
    """
    in_rows = np.asarray(labels) >= 0
    n_in = int(np.count_nonzero(in_rows))
    if np.count_nonzero(in_rows[:n_in]) != n_in:
        raise ValueError("a labelled batch must hold its rows labelled >= 0 first, then its outliers")
    return n_in


def row_losses(
    criterion: criteria.CriterionConfig, scores: np.ndarray, labels: np.ndarray, weight: float
) -> criteria.LossReport:
    """Per-row values and dL/dscores of an in-first labelled batch, each row on its label's branch.

    The rows labelled >= 0 come first (``in_first_count``) and take the
    criterion's in-distribution term against their labels; the rows after
    them take its outlier term, scaled by ``weight``. Each branch is one slice
    of the batch, and each row keeps its place in the report's new arrays.
    """
    n_in = in_first_count(labels)
    in_rep = criteria.id_loss(criterion, scores[:n_in], labels[:n_in], weight)
    out_rep = criteria.ood_loss(criterion, scores[n_in:], weight)
    value = np.concatenate([in_rep.value, out_rep.value])
    return criteria.LossReport(value, np.concatenate([in_rep.d_scores, out_rep.d_scores]))


def batch_gradients(
    model: Model,
    criterion: criteria.CriterionConfig,
    weight: float,
    x: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, float, np.ndarray]:
    """Branch losses and the gradient of their sum for one in-first labelled batch.

    The rows labelled >= 0 come first and the outliers after them
    (``row_losses``), and each branch is a mean over its own slice (0.0 when
    it is empty); the same code path serves the training step and the
    finite-difference audit. The gradient is a new 1-D vector laid out as
    ``model.flat``: the backbone's backward writes each layer's weight and
    bias gradient straight into its view, and the head's field gradients are
    copied into theirs.
    """
    n_in = in_first_count(labels)
    n_out = len(labels) - n_in
    grad = np.empty_like(model.flat)
    views = model.views(grad)
    n_backbone = 2 * len(model.backbone.layers)  # a weight and a bias per layer
    # Overflow here shows up as a non-finite loss, which the caller handles;
    # the runtime warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        feats, cache = bb.forward_batch(model.backbone, x)
        scores, head_cache = heads.forward(model.head, feats)
        rep = row_losses(criterion, scores, labels, weight)
        # row_losses builds d_scores afresh, so each branch's slice is scaled in place.
        upstream = rep.d_scores
        upstream[:n_in] /= n_in
        upstream[n_in:] /= n_out
        loss_in = float(rep.value[:n_in].mean()) if n_in else 0.0
        loss_out = float(rep.value[n_in:].mean()) if n_out else 0.0

        d_feats, head_grads = heads.backward(model.head, head_cache, upstream)
        bb.backward_batch(model.backbone, cache, d_feats, views[:n_backbone])
    for field, view in zip(dataclasses.fields(model.head), views[n_backbone:]):
        view[...] = head_grads[field.name]
    return loss_in, loss_out, grad


class _OutlierCycler:
    """Hands out outlier indices, reshuffling each time the pool is exhausted."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.queue = np.zeros(0, dtype=int)

    def take(self, count: int) -> np.ndarray:
        parts = [np.zeros(0, dtype=int)]
        while count > 0:
            if not self.queue.size:
                self.queue = self.rng.permutation(self.n)
            parts.append(self.queue[:count])
            self.queue = self.queue[count:]
            count -= parts[-1].size
        return np.concatenate(parts)


def _epoch_log(
    model: Model,
    config: TrainConfig,
    epoch: int,
    loss_in: float,
    loss_out: float,
    eval_in: LabeledSet,
    eval_out: LabeledSet,
    step: int,
) -> EpochLog:
    # One forward scores both eval sets, eval_in rows first; every per-epoch
    # figure reads this score matrix or its slices. A row's scores do not
    # depend on the rows forwarded with it, so each slice equals
    # score_samples on its own set bit for bit.
    # The Gaussian head's confidence lies in (0, 1] under any criterion.
    hist_scorer = "ice_conf" if config.head == heads.GaussianHeadParams.KIND else "max_logit"
    n_in = len(eval_in)
    # As in batch_gradients, overflow surfaces as the NonFiniteState below.
    # Both scorers are checked: ice_conf = exp(max h) stays finite when h is -inf.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = scores_batch(model, np.concatenate([eval_in.features, eval_out.features]))
        conf = SCORERS[hist_scorer](scores)
        detector = conf if config.scorer == hist_scorer else SCORERS[config.scorer](scores)
    if not (np.all(np.isfinite(conf)) and np.all(np.isfinite(detector))):
        raise NonFiniteState(f"non-finite eval score after step {step}", step)
    report = metrics.compute_report(detector[:n_in], detector[n_in:], aupr_positive=config.aupr_positive)
    acc = float(np.mean(scores[:n_in].argmax(axis=1) == eval_in.labels))
    if hist_scorer == "ice_conf":
        value_range = (0.0, 1.0)
    else:
        lo, hi = float(conf.min()), float(conf.max())
        if lo == hi:
            pad = max(0.5, abs(lo) * 1e-9)
            lo, hi = lo - pad, hi + pad
        value_range = (lo, hi)
    hist = metrics.histogram(conf, config.hist_bins, value_range)
    return EpochLog(
        epoch=epoch,
        loss_in=loss_in,
        loss_out=loss_out,
        acc_in=acc,
        report=report,
        hist_edges=hist.edges,
        hist_counts=hist.counts,
        conf_mean_in=float(conf[:n_in].mean()),
        conf_mean_out=float(conf[n_in:].mean()),
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

    Each step's gradient vector is clipped to the head's global-norm bound
    after the finite-loss check; ``batch_gradients`` itself stays raw. The
    momentum update then runs on ``model.flat`` and one velocity vector of
    the same layout.

    Raises:
        ConfigError: the data cannot support the run (an empty set, fewer
            than two classes, no outliers for an outlier criterion, a
            train_in row without a class label or a train_out row with one,
            more histogram bins than eval scores, or initial class feature
            means that overflow); raised before the first step.
        NonFiniteState: training is aborted the first time a batch loss, a
            parameter or an epoch's eval score is not finite (the expected
            failure mode of the unbounded energy objective at large gamma);
            its message says which, naming the first non-finite parameter,
            and its ``step`` is the zero-based update step.
    """
    if len(train_in) == 0 or len(eval_in) == 0 or len(eval_out) == 0:
        raise ConfigError("training and eval sets must be nonempty")
    n_eval = len(eval_in) + len(eval_out)
    if config.hist_bins > n_eval:
        raise ConfigError(
            f"hist_bins={config.hist_bins} exceeds the {n_eval} eval scores; allow at most one bin per eval score"
        )
    weight = config.outlier_weight
    # A zero effective weight removes every outlier term from the objective,
    # so the outlier loader is skipped entirely; this makes zero-weight runs
    # match plain training step for step.
    use_out = config.criterion.has_outlier_term() and weight > 0.0
    if use_out and len(train_out) == 0:
        raise ConfigError(f"criterion {config.criterion.kind!r} needs outlier training data")
    if not np.all(train_in.in_mask()) or np.any(train_out.in_mask()):
        raise ConfigError("every train_in row needs a class label and no train_out row may have one")
    model = build_model(config, train_in)
    bound = model.head.GRAD_NORM_BOUND
    velocity = np.zeros_like(model.flat)
    in_rng = component_rng(config.seed, "batch_in")
    out_rng = component_rng(config.seed, "batch_out")
    cycler = _OutlierCycler(len(train_out), out_rng) if use_out else None

    n_in = len(train_in)
    steps_per_epoch = math.ceil(n_in / config.batch_in)
    total_steps = config.epochs * steps_per_epoch
    # One labelled pool, the train_in rows then any train_out rows; each batch
    # indexes it, and each row's label picks its branch.
    pool = (train_in, train_out) if use_out else (train_in,)
    pool_x = np.concatenate([part.features for part in pool])
    pool_y = np.concatenate([part.labels for part in pool])

    logs: list[EpochLog] = []
    global_step = 0
    for epoch in range(config.epochs):
        perm = in_rng.permutation(n_in)
        epoch_loss_in = 0.0
        epoch_loss_out = 0.0
        for start in range(0, n_in, config.batch_in):
            rows = perm[start : start + config.batch_in]
            if use_out:
                rows = np.concatenate([rows, n_in + cycler.take(config.batch_out)])
            loss_in, loss_out, grad = batch_gradients(model, config.criterion, weight, pool_x[rows], pool_y[rows])
            if not math.isfinite(loss_in + loss_out):
                raise NonFiniteState(f"non-finite loss at step {global_step}", global_step)
            grad_norm = math.sqrt(float(np.vdot(grad, grad)))
            if grad_norm > bound:
                grad *= bound / grad_norm
            lr = lr_at(config.schedule, config.initial_lr, global_step, total_steps)
            velocity *= config.momentum
            velocity += grad
            model.flat -= lr * velocity
            if not np.all(np.isfinite(model.flat)):
                name = next(name for name, arr in param_items(model) if not np.all(np.isfinite(arr)))
                raise NonFiniteState(f"parameter {name} is non-finite after step {global_step}", global_step)
            epoch_loss_in += loss_in
            epoch_loss_out += loss_out
            global_step += 1
        logs.append(
            _epoch_log(
                model,
                config,
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
        lines.append(name + "=" + float_rows(np.reshape(arr, (1, -1)), sep=" ")[0])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Model:
    """Rebuild a model from ``save_checkpoint`` output.

    Raises:
        MalformedData: the file is truncated (every line of a complete
            file ends in a newline), lacks an entry, records widths that
            need an array larger than the file or a head of fewer than two
            classes, or holds a value that does not parse, is not finite or
            does not fit its array.
        OSError: the file cannot be read.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        if not text.endswith("\n"):
            raise ValueError("truncated: no final newline")
        return _model_from_entries(dict(line.partition("=")[::2] for line in text.splitlines() if line))
    except KeyError as exc:
        raise MalformedData(f"checkpoint {path} has no {exc} entry") from exc
    except ValueError as exc:
        raise MalformedData(f"checkpoint {path}: {exc}") from exc


def _model_from_entries(entries: dict[str, str]) -> Model:
    if entries.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema {entries.get('schema')!r}")
    head_type = heads.HEAD_TYPES.get(entries["head.kind"])
    if head_type is None:
        raise ValueError(f"unknown head kind {entries['head.kind']!r} in checkpoint")
    widths = tuple(int(w) for w in entries["backbone.widths"].split())
    if any(w < 1 for w in widths):
        raise ValueError(f"backbone widths {widths} must all be >= 1")
    if len(widths) < 2:
        raise ValueError("need at least one layer")

    # A zero model is filled view by view. The first head entry is the per-class (K, d) array, fixing K;
    # the head type rejects fewer than two classes.
    first = "head." + next(iter(head_type.shapes(0, widths[-1])))
    head_shapes = head_type.shapes(len(entries[first].split()) // widths[-1], widths[-1])
    # Every value takes at least one character, so no array may outgrow the
    # file; this bounds what the widths can make the zero model allocate.
    sizes = [fan_in * fan_out for fan_in, fan_out in zip(widths, widths[1:])]
    sizes += [math.prod(shape) for shape in head_shapes.values()]
    if max(sizes) > sum(map(len, entries.values())):
        raise ValueError(f"backbone widths {widths} need more values than the checkpoint holds")

    pairs = zip(widths, widths[1:])
    layers = [bb.Layer(weight=np.zeros((fan_out, fan_in)), bias=np.zeros(fan_out)) for fan_in, fan_out in pairs]
    head = head_type(**{name: np.zeros(shape) for name, shape in head_shapes.items()})
    model = Model(backbone=bb.MlpParams(layers=layers), head=head)
    for name, view in param_items(model):
        values = np.array([float(v) for v in entries[name].split()], dtype=float)
        if values.size != view.size:
            raise ValueError(f"checkpoint tensor {name} has {values.size} values, expected {view.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"checkpoint tensor {name} is not finite")
        view[...] = values.reshape(view.shape)
    return model
