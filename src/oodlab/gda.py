"""Class-conditional Gaussians with tied covariance, and the synthetic data generators.

Covers fitting (per-class means, pooled MLE covariance), the closed-form linear
discriminant that the Gaussian assumption induces, density/posterior
evaluation, and the two-cluster in/out sampler where a draw counts as
in-distribution when its best class-conditional density clears a threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .seeding import rng_from_seed

DOMAIN_IN = "in"
DOMAIN_OUT = "out"
NO_LABEL = -1


class EmptyClass(ValueError):
    """Some class index in [0, K) has no in-distribution sample."""


class DegenerateCovariance(ValueError):
    """The pooled covariance is not positive-definite."""


class InvalidThreshold(ValueError):
    """The in/out density threshold is at or above the class density maximum."""


class MalformedData(ValueError):
    """A data CSV has a bad header, a short or unparsable row, or a non-finite value."""


@dataclass(frozen=True)
class LabeledSet:
    """Parallel arrays of features, class labels, and in/out domain tags.

    ``labels`` is NO_LABEL wherever ``domain`` is "out".
    """

    features: np.ndarray  # (n, d) float
    labels: np.ndarray  # (n,) int
    domain: np.ndarray  # (n,) str, "in" or "out"

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=float)
        l = np.asarray(self.labels, dtype=int)
        d = np.asarray(self.domain)
        if f.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {f.shape}")
        if l.shape != (f.shape[0],) or d.shape != (f.shape[0],):
            raise ValueError("features, labels and domain must have equal length")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        if not np.all((d == DOMAIN_IN) | (d == DOMAIN_OUT)):
            raise ValueError("domain tags must be 'in' or 'out'")
        if np.any(l[d == DOMAIN_IN] < 0):
            raise ValueError("in-distribution rows need a non-negative label")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)
        object.__setattr__(self, "domain", d)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def in_mask(self) -> np.ndarray:
        return self.domain == DOMAIN_IN

    def in_features(self) -> np.ndarray:
        return self.features[self.in_mask()]

    def in_labels(self) -> np.ndarray:
        return self.labels[self.in_mask()]

    def out_features(self) -> np.ndarray:
        return self.features[~self.in_mask()]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j}" for j in range(self.dim)] + ["label", "domain"])
            for row, label, tag in zip(self.features, self.labels, self.domain):
                label_field = str(int(label)) if tag == DOMAIN_IN else ""
                writer.writerow([repr(float(v)) for v in row] + [label_field, tag])

    @classmethod
    def from_csv(cls, path) -> "LabeledSet":
        """Read a ``to_csv`` file; raises MalformedData on bad content, OSError if unreadable."""
        feats, labels, domain = [], [], []
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
                    labels.append(int(row[dim]) if row[dim] != "" else NO_LABEL)
                    domain.append(row[dim + 1])
            features = np.asarray(feats, dtype=float).reshape(len(feats), dim)
            return cls(features, np.asarray(labels, dtype=int), np.asarray(domain))
        except (ValueError, csv.Error) as exc:
            raise MalformedData(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class GdaModel:
    """Per-class means and one shared covariance with its Cholesky factor."""

    means: np.ndarray  # (K, d)
    tied_cov: np.ndarray  # (d, d)
    chol: np.ndarray  # (d, d) lower triangular

    def __post_init__(self) -> None:
        if self.means.ndim != 2 or self.means.shape[0] < 2:
            raise ValueError("need at least two class means")
        if self.tied_cov.shape != (self.dim, self.dim):
            raise ValueError("covariance shape does not match the means")

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def fit_gda(data: LabeledSet) -> GdaModel:
    """Fit per-class means and the pooled maximum-likelihood covariance.

    Only in-distribution rows participate. The pooled covariance divides by
    the total sample count N (MLE normalization, not N - K).

    Raises:
        EmptyClass: some class in [0, max(label)+1) has no sample.
        DegenerateCovariance: pooled covariance is not positive-definite.
    """
    feats = data.in_features()
    labels = data.in_labels()
    if feats.shape[0] == 0:
        raise EmptyClass("no in-distribution samples")
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise EmptyClass("need at least two classes")
    dim = feats.shape[1]
    means = np.zeros((n_classes, dim))
    scatter = np.zeros((dim, dim))
    for k in range(n_classes):
        rows = feats[labels == k]
        if rows.shape[0] == 0:
            raise EmptyClass(f"class {k} has no samples")
        means[k] = rows.mean(axis=0)
        centered = rows - means[k]
        scatter += centered.T @ centered
    cov = scatter / feats.shape[0]
    cov = 0.5 * (cov + cov.T)
    try:
        chol = linalg.cholesky(cov)
    except linalg.NotPositiveDefinite as exc:
        raise DegenerateCovariance(str(exc)) from exc
    return GdaModel(means=means, tied_cov=cov, chol=chol)


def closed_form_discriminant(model: GdaModel) -> tuple[np.ndarray, np.ndarray]:
    """The linear scores a tied-covariance Gaussian model induces.

    Row i of the returned weight matrix is Sigma^-1 mu_i and the bias is
    -0.5 * mu_i.T Sigma^-1 mu_i.
    """
    # Solve Sigma W.T = means.T via the Cholesky factor.
    w_hat = linalg.tri_solve_lower_t(model.chol, linalg.tri_solve_lower(model.chol, model.means.T)).T
    b_hat = -0.5 * np.einsum("kj,kj->k", model.means, w_hat)
    return w_hat, b_hat


def class_likelihood(model: GdaModel, z: np.ndarray, i: int) -> float:
    """Multivariate normal density N(z; mu_i, Sigma)."""
    if not 0 <= i < model.n_classes:
        raise ValueError(f"class index {i} out of range for K={model.n_classes}")
    z = np.asarray(z, dtype=float)
    quad = linalg.spd_quadform(model.chol, z - model.means[i])
    log_det = 2.0 * float(np.sum(np.log(np.diag(model.chol))))
    return math.exp(-0.5 * (quad + log_det + model.dim * math.log(2.0 * math.pi)))


def posterior(model: GdaModel, z: np.ndarray) -> np.ndarray:
    """Class posterior under uniform priors, via softmax of the closed-form scores."""
    w_hat, b_hat = closed_form_discriminant(model)
    scores = w_hat @ np.asarray(z, dtype=float) + b_hat
    shifted = scores - scores.max()
    expd = np.exp(shifted)
    return expd / expd.sum()


def density_max(dims: int) -> float:
    """Peak value of a unit-covariance Gaussian density in ``dims`` dimensions."""
    return (2.0 * math.pi) ** (-dims / 2.0)


def density_at_radius(radius: float, dims: int = 2) -> float:
    """Unit-covariance Gaussian density at distance ``radius`` from its mean."""
    return density_max(dims) * math.exp(-0.5 * radius * radius)


def _two_cluster_densities(features: np.ndarray, mu: float) -> np.ndarray:
    dims = features.shape[1]
    centers = np.zeros((2, dims))
    centers[0, 0] = mu
    centers[1, 0] = -mu
    sq = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return density_max(dims) * np.exp(-0.5 * sq)  # (n, 2)


def sample_synthetic(mu: float, zeta: float, n: int, seed: int, dims: int = 2) -> LabeledSet:
    """Draw alternately from two unit-covariance Gaussians at (+-mu, 0, ...).

    A draw is tagged "in" with the drawing class as its label when its best
    class-conditional density exceeds ``zeta``, otherwise "out" (label absent).
    Deterministic for a given (mu, zeta, n, seed, dims).

    Raises:
        InvalidThreshold: when zeta >= the class density maximum, so that no
            draw could ever be tagged in-distribution.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if zeta >= density_max(dims):
        raise InvalidThreshold(f"zeta={zeta!r} is at or above the density maximum {density_max(dims)!r}")
    rng = rng_from_seed(seed)
    draws = rng.standard_normal((n, dims))
    classes = np.arange(n) % 2
    features = draws.copy()
    features[:, 0] += np.where(classes == 0, mu, -mu)
    dens = _two_cluster_densities(features, mu)
    is_in = dens.max(axis=1) > zeta if n else np.zeros(0, dtype=bool)
    labels = np.where(is_in, classes, NO_LABEL)
    domain = np.where(is_in, DOMAIN_IN, DOMAIN_OUT)
    return LabeledSet(features, labels, domain)


def sample_cluster_family(centers: np.ndarray, std: float, n: int, seed: int) -> LabeledSet:
    """Outlier-only draws from isotropic Gaussians placed at ``centers``.

    Used as the held-out "hard" OOD family for evaluation; every row is tagged
    "out". Draws cycle through the centers in order.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise ValueError("centers must be a non-empty (m, d) array")
    if std <= 0:
        raise ValueError("std must be positive")
    rng = rng_from_seed(seed)
    picks = np.arange(n) % centers.shape[0]
    features = centers[picks] + std * rng.standard_normal((n, centers.shape[1]))
    labels = np.full(n, NO_LABEL, dtype=int)
    domain = np.full(n, DOMAIN_OUT, dtype=object).astype(str)
    return LabeledSet(features.reshape(n, centers.shape[1]), labels, domain)


def ring_centers(radius: float, count: int, dims: int = 2) -> np.ndarray:
    """``count`` cluster centers evenly spaced on a circle in the first two axes."""
    if dims < 2:
        raise ValueError("need at least two dimensions")
    angles = 2.0 * math.pi * np.arange(count) / count
    centers = np.zeros((count, dims))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers
