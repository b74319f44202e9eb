"""Class-conditional Gaussians with tied covariance, and the synthetic data generators.

A fitted model is a ``heads.GaussianHeadParams``, the same type the Gaussian
head trains: class means plus the raw form of the covariance's Cholesky
factor. Covers fitting (per-class means, pooled MLE covariance), the
closed-form linear discriminant that the Gaussian assumption induces, class
log-densities, and the two-cluster in/out sampler where a draw counts as
in-distribution when its best class-conditional density clears a threshold.
A log-density is read off the Gaussian head's score
h_i = -(z - mu_i).T Sigma^-1 (z - mu_i) from ``heads.forward``, the one
implementation of that distance. A ``LabeledSet`` row is in-distribution
exactly when its label is >= 0; out rows carry ``NO_LABEL``. The set is
stored as a CSV file (the ``gen-data`` output), written through
``floatrows.write_csv_rows`` and read back by ``LabeledSet.from_csv``, which
checks each row's tag against its label.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConfigError, MalformedData
from .floatrows import CSV_END, join_cells, write_csv_rows
from .heads import GaussianHeadParams
from .seeding import rng_from_seed

DOMAIN_IN = "in"
DOMAIN_OUT = "out"
NO_LABEL = -1


@dataclass(frozen=True)
class LabeledSet:
    """Features and class labels; a row is in-distribution exactly when its label is >= 0.

    Out rows carry ``NO_LABEL``. ``domain`` is derived once from ``labels``:
    the row's "in"/"out" tag, as the CSV files write it.
    """

    features: np.ndarray  # (n, d) float
    labels: np.ndarray  # (n,) int, NO_LABEL on out rows
    domain: np.ndarray = field(init=False)  # (n,) str, "in" or "out"

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=float)
        l = np.asarray(self.labels, dtype=int)
        if f.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {f.shape}")
        if l.shape != (f.shape[0],):
            raise ValueError("features and labels must have equal length")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        if np.any(l < NO_LABEL):
            raise ValueError(f"labels must be >= {NO_LABEL}")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)
        object.__setattr__(self, "domain", np.where(l >= 0, DOMAIN_IN, DOMAIN_OUT))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def in_mask(self) -> np.ndarray:
        return self.labels >= 0

    def subset(self, rows) -> "LabeledSet":
        """The rows selected by a boolean mask or an index array, in that order."""
        return LabeledSet(self.features[rows], self.labels[rows])

    def to_csv(self, path) -> None:
        """Write ``x0,...,label,domain`` rows; the label cell is empty on out rows."""
        tail = [
            join_cells([label if label >= 0 else "", tag])
            for label, tag in zip(self.labels.tolist(), self.domain.tolist())
        ]
        with open(path, "w", newline="") as fh:
            fh.write(join_cells([f"x{j}" for j in range(self.dim)] + ["label", "domain"]) + CSV_END)
            write_csv_rows(fh, self.features, tail=tail)

    @classmethod
    def from_csv(cls, path) -> "LabeledSet":
        """Read a ``to_csv`` file; raises MalformedData on bad content, OSError if unreadable.

        Bad content includes a domain tag that disagrees with the row's label.
        """
        feats, labels = [], []
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, [])
                if len(header) < 3 or header[-2:] != ["label", "domain"]:
                    raise ValueError(f"unexpected LabeledSet header {header}")
                dim = len(header) - 2
                for row in reader:
                    if len(row) != dim + 2:
                        raise ValueError(f"line {reader.line_num} has {len(row)} fields, expected {dim + 2}")
                    feats.append([float(v) for v in row[:dim]])
                    label = int(row[dim]) if row[dim] != "" else NO_LABEL
                    tag = row[dim + 1]
                    if tag != (DOMAIN_IN if label >= 0 else DOMAIN_OUT):
                        raise ValueError(f"line {reader.line_num}: domain {tag!r} disagrees with label {row[dim]!r}")
                    labels.append(label)
            features = np.asarray(feats, dtype=float).reshape(len(feats), dim)
            return cls(features, np.asarray(labels, dtype=int))
        except (ValueError, csv.Error) as exc:
            raise MalformedData(f"{path}: {exc}") from exc


def fit_gda(data: LabeledSet) -> GaussianHeadParams:
    """Fit per-class means and the pooled maximum-likelihood covariance.

    Only in-distribution rows participate. The pooled covariance divides by
    the total sample count N (MLE normalization, not N - K). The model is
    returned as the Gaussian head's params, holding the covariance's
    Cholesky factor.

    Raises:
        ConfigError: some class in [0, max(label)+1) has no sample, the
            class means or the pooled covariance are not finite, or the
            covariance is not positive-definite.
    """
    data = data.subset(data.in_mask())
    feats, labels = data.features, data.labels
    if feats.shape[0] == 0:
        raise ConfigError("no in-distribution samples")
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise ConfigError("need at least two classes")
    dim = feats.shape[1]
    means = np.zeros((n_classes, dim))
    scatter = np.zeros((dim, dim))
    # Overflow near the float limit is reported by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_classes):
            rows = feats[labels == k]
            if rows.shape[0] == 0:
                raise ConfigError(f"class {k} has no samples")
            means[k] = rows.mean(axis=0)
            centered = rows - means[k]
            scatter += centered.T @ centered
        cov = scatter / feats.shape[0]
        cov = 0.5 * (cov + cov.T)
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(cov))):
        raise ConfigError("class means or pooled covariance overflow the float range")
    try:
        chol = linalg.cholesky(cov)
    except linalg.NotPositiveDefinite as exc:
        raise ConfigError(f"pooled covariance is not positive-definite: {exc}") from exc
    return GaussianHeadParams.from_factor(means, chol)


def closed_form_discriminant(model: GaussianHeadParams) -> tuple[np.ndarray, np.ndarray]:
    """The linear scores a tied-covariance Gaussian model induces.

    Row i of the returned weight matrix is Sigma^-1 mu_i and the bias is
    -0.5 * mu_i.T Sigma^-1 mu_i.
    """
    inverse = linalg.tri_solve_lower(model.tri_raw)
    w_hat = model.means @ inverse.T @ inverse
    b_hat = -0.5 * np.einsum("kj,kj->k", model.means, w_hat)
    return w_hat, b_hat


def log_density(model: GaussianHeadParams, h: np.ndarray) -> np.ndarray:
    """log N(z; mu_i, Sigma) from h_i, the Gaussian head's score of z: minus its squared Mahalanobis distance to mu_i.

    log det Sigma is 2 * sum(log diag L), the trace of ``tri_raw``.
    """
    log_det = 2.0 * float(model.tri_raw.trace())
    return 0.5 * (h - log_det - model.means.shape[1] * math.log(2.0 * math.pi))


def density_max(dims: int) -> float:
    """Peak value of a unit-covariance Gaussian density in ``dims`` dimensions."""
    return (2.0 * math.pi) ** (-dims / 2.0)


def _two_cluster_densities(features: np.ndarray, mu: float) -> np.ndarray:
    dims = features.shape[1]
    centers = np.zeros((2, dims))
    centers[0, 0] = mu
    centers[1, 0] = -mu
    with np.errstate(over="ignore"):  # an overflowing distance is a density of exactly 0
        sq = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return density_max(dims) * np.exp(-0.5 * sq)  # (n, 2)


def sample_synthetic(mu: float, zeta: float, n: int, seed: int, dims: int = 2) -> LabeledSet:
    """Draw alternately from two unit-covariance Gaussians at (+-mu, 0, ...).

    A draw is in-distribution, labelled with its drawing class, when its best
    class-conditional density exceeds ``zeta``; otherwise it is an outlier
    labelled NO_LABEL.
    Deterministic for a given (mu, zeta, n, seed, dims).

    Raises:
        ConfigError: when zeta >= the class density maximum, so that no
            draw could ever be in-distribution.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if zeta >= density_max(dims):
        raise ConfigError(f"zeta={zeta!r} is at or above the density maximum {density_max(dims)!r}")
    rng = rng_from_seed(seed)
    draws = rng.standard_normal((n, dims))
    classes = np.arange(n) % 2
    features = draws.copy()
    features[:, 0] += np.where(classes == 0, mu, -mu)
    dens = _two_cluster_densities(features, mu)
    is_in = dens.max(axis=1) > zeta if n else np.zeros(0, dtype=bool)
    return LabeledSet(features, np.where(is_in, classes, NO_LABEL))


def sample_cluster_family(centers: np.ndarray, std: float, n: int, seed: int) -> LabeledSet:
    """Outlier-only draws from isotropic Gaussians placed at ``centers``.

    Used as the held-out "hard" OOD family for evaluation; every row carries
    NO_LABEL. Draws cycle through the centers in order.

    Raises:
        ConfigError: ``std`` is so large that a draw is not finite.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise ValueError("centers must be a non-empty (m, d) array")
    if std <= 0:
        raise ValueError("std must be positive")
    rng = rng_from_seed(seed)
    picks = np.arange(n) % centers.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        features = centers[picks] + std * rng.standard_normal((n, centers.shape[1]))
    if not np.all(np.isfinite(features)):
        raise ConfigError(f"std={std!r} scales the cluster draws past the float range")
    return LabeledSet(features.reshape(n, centers.shape[1]), np.full(n, NO_LABEL, dtype=int))


def ring_centers(radius: float, count: int, dims: int = 2) -> np.ndarray:
    """``count`` cluster centers evenly spaced on a circle in the first two axes."""
    if dims < 2:
        raise ValueError("need at least two dimensions")
    angles = 2.0 * math.pi * np.arange(count) / count
    centers = np.zeros((count, dims))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers
