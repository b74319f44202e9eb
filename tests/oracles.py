"""Independent oracles the fast implementations are tested against.

Everything here is deliberately brute force: central finite differences,
O(n^2) pairwise counting, exhaustive threshold sweeps, and Bayes' rule spelled
out with explicit densities. None of it shares code with the package paths it
checks, except the one-row helpers at the end. ``head_row``,
``head_row_backward``, ``mlp_row`` and ``mlp_row_backward`` push a single
vector through the package's batch kernels, so finite differences can probe
those kernels one input at a time (``layer_grad_arrays`` allocates the
arrays that ``backbone.backward_batch`` fills); ``pre_activations``
recomputes the hidden pre-activations from the layer inputs a backbone cache
holds. ``batch_gradients_oracle`` is the training step with boolean-mask
branches, an allocating backward and concatenated parts, which
``trainer.batch_gradients`` must match bit for bit.
``class_likelihood``, ``posterior`` and ``density_at_radius`` are the
per-sample Gaussian forms, built on the Gaussian head's scores
(``head_row``)/``gda.log_density``, ``gda.closed_form_discriminant`` and
``gda.density_max``, so the explicit-density oracles above can check them.
``shift_stats_oracle`` is ``shiftsim.shift_stats`` row by row, with Sigma^-1
from ``tied_cov``, a Python ``min`` over the classes and ``gaussian_density``
against the threshold. ``outlier_take_oracle`` is the
list-based outlier cycler that the array-based ``trainer._OutlierCycler`` must
match index for index. ``materialize`` builds the factor L that a raw
``tri_raw`` stands for, ``tied_cov`` is a model's covariance L L.T, and
``tri_inverse_oracle`` inverts L by forward substitution on the materialized
factor, the path that ``linalg.tri_solve_lower`` must match bit for bit.
"""

import csv
import dataclasses
import io
import math

import numpy as np

from oodlab import backbone, criteria, gda, heads


def central_difference(f, x, step=1e-5):
    """Central finite-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += step
        xm.flat[i] -= step
        grad.flat[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric, floor=1e-6):
    """Max absolute deviation, scaled by the numeric gradient's magnitude."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(floor, float(np.max(np.abs(numeric), initial=0.0)))
    return float(np.max(np.abs(analytic - numeric), initial=0.0)) / scale


def pairwise_auroc(in_scores, out_scores):
    """Mann-Whitney statistic by explicit pair enumeration, ties as one half."""
    wins = 0.0
    for a in in_scores:
        for b in out_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(in_scores) * len(out_scores))


def sweep_aupr(in_scores, out_scores, positive):
    """Step-wise PR area via an exhaustive threshold sweep with full rescans."""
    if positive == "in":
        pos = list(in_scores)
        neg = list(out_scores)
    else:
        pos = [-s for s in out_scores]
        neg = [-s for s in in_scores]
    thresholds = sorted(set(pos + neg), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for tau in thresholds:
        tp = sum(1 for s in pos if s >= tau)
        fp = sum(1 for s in neg if s >= tau)
        precision = tp / (tp + fp)
        recall = tp / len(pos)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def sweep_fpr_at_tpr(in_scores, out_scores, tpr_target):
    """Largest threshold whose inclusive in-tail reaches the target, by full scan.

    The scan starts above every score (tau = +inf, TPR 0), so a target of 0 is met
    with no in-score counted.
    """
    best_tau = None
    for tau in [math.inf, *sorted(set(in_scores), reverse=True)]:
        tpr = sum(1 for s in in_scores if s >= tau) / len(in_scores)
        if tpr >= tpr_target:
            best_tau = tau
            break
    if best_tau is None:
        # No finite threshold reaches the target; only tau = -inf would.
        return 1.0
    return sum(1 for s in out_scores if s >= best_tau) / len(out_scores)


def gaussian_density(z, mean, cov):
    z = np.asarray(z, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = len(z)
    diff = z - mean
    quad = diff @ np.linalg.inv(cov) @ diff
    norm = (2.0 * np.pi) ** (d / 2.0) * np.sqrt(np.linalg.det(cov))
    return float(np.exp(-0.5 * quad) / norm)


def bayes_posterior(z, means, cov):
    """Posterior over classes from explicit densities under uniform priors."""
    dens = np.array([gaussian_density(z, mu, cov) for mu in means])
    return dens / dens.sum()


def float_cells(values):
    """One cell per value: repr of the value converted to a Python float."""
    return [repr(float(v)) for v in np.asarray(values).ravel()]


def csv_writer_text(rows):
    """The bytes csv.writer's excel dialect writes for ``rows``, one writerow per row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def head_row(head, z):
    """``heads.forward`` scores of one (d,) feature vector, as a (K,) row."""
    return heads.forward(head, np.asarray(z, dtype=float)[None, :])[0][0]


def head_row_backward(head, z, upstream):
    """``heads.backward`` for one row: (d_z, {param name: grad})."""
    _, cache = heads.forward(head, np.asarray(z, dtype=float)[None, :])
    d_z, grads = heads.backward(head, cache, np.asarray(upstream, dtype=float)[None, :])
    return d_z[0], grads


def mlp_row(net, x):
    """``backbone.forward_batch`` on one (in_dim,) input: its feature vector and cache."""
    z, cache = backbone.forward_batch(net, np.asarray(x, dtype=float)[None, :])
    return z[0], cache


def pre_activations(net, cache):
    """Each layer's pre-activation ``inp @ W.T + b``, from the inputs a forward cache holds."""
    return [inp @ layer.weight.T + layer.bias for layer, inp in zip(net.layers, cache)]


def outlier_take_oracle(n, rng, counts):
    """Index batches of a list-based outlier cycler: a fresh ``rng.permutation(n)`` when the queue runs dry."""
    queue = []
    batches = []
    for count in counts:
        picked = []
        while len(picked) < count:
            if not queue:
                queue = list(rng.permutation(n))
            need = count - len(picked)
            picked.extend(queue[:need])
            del queue[:need]
        batches.append(np.asarray(picked, dtype=int))
    return batches


def layer_grad_arrays(net):
    """Freshly allocated arrays for ``backbone.backward_batch`` to fill: each layer's d_weight, then its d_bias."""
    return [np.empty_like(param) for layer in net.layers for param in (layer.weight, layer.bias)]


def mlp_row_backward(net, cache, d_z):
    """``backbone.backward_batch`` for a one-row cache, into arrays of its own: per-layer (d_weight, d_bias) and d_x."""
    grads = layer_grad_arrays(net)
    d_x = backbone.backward_batch(net, cache, np.asarray(d_z, dtype=float)[None, :], grads)
    return list(zip(grads[::2], grads[1::2])), d_x[0]


def batch_gradients_oracle(model, criterion, weight, x, labels):
    """The training step as it was before in-first batches: ``trainer.batch_gradients``'s reference.

    Boolean masks put each row on its label's branch, in any row order, and
    scatter the branch reports back; each branch's rows are divided by their
    count through one per-row divisor; the backbone backward allocates every
    gradient and masks a copy of its upstream; the parts are concatenated in
    ``Model.flat`` order. Run it with ``linalg.row_max`` patched to
    ``max(axis=-1)`` to reproduce the step of that code exactly.
    """
    labels = np.asarray(labels)
    in_rows = labels >= 0
    n_in = int(in_rows.sum())
    n_out = in_rows.size - n_in
    with np.errstate(over="ignore", invalid="ignore"):
        feats, cache = backbone.forward_batch(model.backbone, x)
        scores, head_cache = heads.forward(model.head, feats)
        in_rep = criteria.id_loss(criterion, scores[in_rows], labels[in_rows], weight)
        out_rep = criteria.ood_loss(criterion, scores[~in_rows], weight)
        value = np.empty(labels.shape)
        d_scores = np.empty_like(scores)
        value[in_rows], value[~in_rows] = in_rep.value, out_rep.value
        d_scores[in_rows], d_scores[~in_rows] = in_rep.d_scores, out_rep.d_scores
        upstream = d_scores / np.where(in_rows, n_in, n_out)[:, None]
        loss_in = float(value[in_rows].mean()) if n_in else 0.0
        loss_out = float(value[~in_rows].mean()) if n_out else 0.0
        d_cur, head_grads = heads.backward(model.head, head_cache, upstream)
        layers = model.backbone.layers
        parts = []
        for idx in range(len(layers) - 1, -1, -1):
            d_pre = d_cur * (cache[idx + 1] > 0.0) if idx < len(layers) - 1 else d_cur
            parts[:0] = [d_pre.T @ cache[idx], d_pre.sum(axis=0)]
            d_cur = d_pre @ layers[idx].weight
    parts += [head_grads[field.name] for field in dataclasses.fields(model.head)]
    return loss_in, loss_out, np.concatenate([np.ravel(part) for part in parts])


def class_likelihood(model, z, i):
    """N(z; mu_i, Sigma) of one (d,) vector, via ``heads.forward`` and ``gda.log_density``."""
    return math.exp(gda.log_density(model, head_row(model, z)[i]))


def posterior(model, z):
    """Class posterior of one (d,) vector under uniform priors: softmax of the closed-form scores."""
    w_hat, b_hat = gda.closed_form_discriminant(model)
    scores = w_hat @ np.asarray(z, dtype=float) + b_hat
    expd = np.exp(scores - scores.max())
    return expd / expd.sum()


def density_at_radius(radius, dims=2):
    """Unit-covariance Gaussian density at distance ``radius`` from its mean."""
    return gda.density_max(dims) * math.exp(-0.5 * radius * radius)


def materialize(tri_raw):
    """The lower factor L whose raw form is ``tri_raw``: strictly lower entries as stored, exp on the diagonal."""
    lower = np.tril(tri_raw, -1)
    np.fill_diagonal(lower, np.exp(np.diag(tri_raw)))
    return lower


def tied_cov(model):
    """The shared covariance L L.T of a tied-covariance Gaussian model."""
    lower = materialize(model.tri_raw)
    return lower @ lower.T


def shift_stats_oracle(snapshot, labels, domain, model, zeta):
    """The four ``shiftsim.ShiftStats`` fields of one (n, d) snapshot, row by row.

    Squared Mahalanobis distances use Sigma^-1 from ``tied_cov``; an out row's
    nearest center is Python ``min`` over the classes, and it counts as mixed
    when ``gaussian_density`` at that center exceeds ``zeta``. A field with no
    rows to average is NaN, in the ``ShiftStats`` field order.
    """
    cov = tied_cov(model)
    precision = np.linalg.inv(cov)
    norms, nearest, own, mixed = [], [], [], []
    for z, label, tag in zip(np.asarray(snapshot, dtype=float), labels, domain):
        dists = [float((z - mean) @ precision @ (z - mean)) for mean in model.means]
        if tag == "in":
            own.append(dists[label])
            continue
        norms.append(math.sqrt(sum(float(v) * float(v) for v in z)))
        best = min(range(len(dists)), key=dists.__getitem__)
        nearest.append(dists[best])
        mixed.append(1.0 if gaussian_density(z, model.means[best], cov) > zeta else 0.0)

    def mean(values):
        return sum(values) / len(values) if values else math.nan

    return mean(norms), mean(nearest), mean(own), mean(mixed)


def tri_inverse_oracle(tri_raw):
    """L^-1 by forward substitution, row by row, on the materialized L and the identity's columns."""
    lower = materialize(tri_raw)
    rhs = np.eye(len(lower))
    inverse = np.empty_like(rhs)
    for i in range(len(lower)):
        inverse[i] = (rhs[i] - lower[i, :i] @ inverse[:i]) / lower[i, i]
    return inverse
