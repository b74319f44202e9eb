import math

import numpy as np
import pytest

from oodlab import gda, heads
from oodlab.errors import ConfigError
from oracles import (
    bayes_posterior,
    class_likelihood,
    density_at_radius,
    gaussian_density,
    materialize,
    posterior,
    tied_cov,
)


def all_in(features, labels):
    features = np.asarray(features, dtype=float)
    return gda.LabeledSet(features, np.asarray(labels))


def random_fitted_model(rng, n_classes=None, dim=None, n_per_class=None):
    n_classes = n_classes or int(rng.integers(2, 5))
    dim = dim or int(rng.integers(1, 5))
    n_per_class = n_per_class or int(rng.integers(dim + 2, 12))
    centers = 3.0 * rng.standard_normal((n_classes, dim))
    feats, labels = [], []
    for k in range(n_classes):
        feats.append(centers[k] + rng.standard_normal((n_per_class, dim)))
        labels.extend([k] * n_per_class)
    data = all_in(np.vstack(feats), labels)
    return gda.fit_gda(data), data


class TestFitGda:
    def test_pooled_mle_example(self):
        data = all_in([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 4.0]], [0, 0, 1, 1])
        model = gda.fit_gda(data)
        np.testing.assert_allclose(model.means, [[1.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(tied_cov(model), [[0.5, 0.0], [0.0, 0.5]])

    def test_single_sample_classes_degenerate(self):
        data = all_in([[1.0, 0.0], [-1.0, 0.0]], [0, 1])
        with pytest.raises(ConfigError, match="pooled covariance is not positive-definite: pivot 0.0 at column 0"):
            gda.fit_gda(data)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        model, data = random_fitted_model(rng)
        doubled = all_in(
            np.vstack([data.features, data.features]),
            np.concatenate([data.labels, data.labels]),
        )
        model2 = gda.fit_gda(doubled)
        np.testing.assert_allclose(model2.means, model.means)
        np.testing.assert_allclose(tied_cov(model2), tied_cov(model), atol=1e-12)

    def test_empty_class(self):
        data = all_in([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], [0, 0, 2])
        with pytest.raises(ConfigError, match="class 1 has no samples"):
            gda.fit_gda(data)

    def test_chol_reconstructs(self):
        model, data = random_fitted_model(np.random.default_rng(11))
        centered = data.features - model.means[data.labels]
        pooled = centered.T @ centered / len(data)
        lower = materialize(model.tri_raw)
        np.testing.assert_allclose(lower @ lower.T, pooled, atol=1e-10)


class TestClosedFormDiscriminant:
    def test_identity_covariance(self):
        model = heads.GaussianHeadParams(means=np.array([[1.0, 0.0], [0.0, 0.0]]), tri_raw=np.zeros((2, 2)))
        w_hat, b_hat = gda.closed_form_discriminant(model)
        np.testing.assert_allclose(w_hat[0], [1.0, 0.0])
        assert b_hat[0] == pytest.approx(-0.5)
        # zero mean row: zero weight and bias
        np.testing.assert_allclose(w_hat[1], [0.0, 0.0])
        assert b_hat[1] == 0.0

    def test_general_covariance(self):
        cov = np.array([[4.0, 2.0], [2.0, 3.0]])
        model = heads.GaussianHeadParams.from_factor(np.array([[1.0, 0.0], [0.0, 0.0]]), np.linalg.cholesky(cov))
        w_hat, b_hat = gda.closed_form_discriminant(model)
        np.testing.assert_allclose(w_hat[0], [0.375, -0.25], atol=1e-12)
        assert b_hat[0] == pytest.approx(-0.1875)


class TestClassLikelihood:
    def test_density_at_mean(self):
        model = heads.GaussianHeadParams(
            means=np.zeros((2, 2)) + np.array([[0.0, 0.0], [5.0, 0.0]]),
            tri_raw=np.zeros((2, 2)),
        )
        assert class_likelihood(model, np.zeros(2), 0) == pytest.approx(1.0 / (2.0 * math.pi))

    def test_unit_offset(self):
        model = heads.GaussianHeadParams(means=np.array([[0.0, 0.0], [5.0, 0.0]]), tri_raw=np.zeros((2, 2)))
        expected = (1.0 / (2.0 * math.pi)) * math.exp(-0.5)
        assert class_likelihood(model, np.array([1.0, 0.0]), 0) == pytest.approx(expected)

    def test_vanishes_far_away(self):
        model = heads.GaussianHeadParams(means=np.array([[0.0, 0.0], [5.0, 0.0]]), tri_raw=np.zeros((2, 2)))
        assert class_likelihood(model, np.array([40.0, 0.0]), 0) < 1e-200

    def test_matches_explicit_density(self):
        rng = np.random.default_rng(21)
        model, data = random_fitted_model(rng)
        for _ in range(20):
            z = data.features[int(rng.integers(len(data)))] + 0.5 * rng.standard_normal(data.dim)
            i = int(rng.integers(len(model.means)))
            expected = gaussian_density(z, model.means[i], tied_cov(model))
            assert class_likelihood(model, z, i) == pytest.approx(expected, rel=1e-10)


class TestPosterior:
    def test_symmetric_midpoint(self):
        model = heads.GaussianHeadParams(means=np.array([[3.0, 0.0], [-3.0, 0.0]]), tri_raw=np.zeros((2, 2)))
        np.testing.assert_allclose(posterior(model, np.zeros(2)), [0.5, 0.5], atol=1e-12)

    def test_two_class_logistic_closed_form(self):
        model = heads.GaussianHeadParams(means=np.array([[3.0, 0.0], [-3.0, 0.0]]), tri_raw=np.zeros((2, 2)))
        post = posterior(model, np.array([3.0, 0.0]))
        assert post[0] == pytest.approx(1.0 / (1.0 + math.exp(-18.0)))

    def test_matches_bayes_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            model, data = random_fitted_model(rng)
            z = data.features[int(rng.integers(len(data)))] + rng.standard_normal(data.dim)
            post = posterior(model, z)
            assert post.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(post > 0)
            np.testing.assert_allclose(post, bayes_posterior(z, model.means, tied_cov(model)), atol=1e-10)

    def test_linear_argmax_equals_likelihood_argmax(self):
        rng = np.random.default_rng(41)
        model, data = random_fitted_model(rng)
        w_hat, b_hat = gda.closed_form_discriminant(model)
        for z in data.features:
            linear = int(np.argmax(w_hat @ z + b_hat))
            liks = [class_likelihood(model, z, i) for i in range(len(model.means))]
            assert linear == int(np.argmax(liks))


class TestSampleSynthetic:
    def test_determinism(self):
        a = gda.sample_synthetic(3.0, 0.01, 50, seed=9)
        b = gda.sample_synthetic(3.0, 0.01, 50, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.domain, b.domain)

    def test_threshold_consistency(self):
        data = gda.sample_synthetic(3.0, density_at_radius(2.0), 500, seed=10)
        dens = np.maximum(
            np.exp(-0.5 * ((data.features - [3.0, 0.0]) ** 2).sum(axis=1)),
            np.exp(-0.5 * ((data.features - [-3.0, 0.0]) ** 2).sum(axis=1)),
        ) / (2.0 * math.pi)
        zeta = density_at_radius(2.0)
        in_mask = data.in_mask()
        assert np.all(dens[in_mask] > zeta)
        assert np.all(dens[~in_mask] <= zeta)
        # labels follow the alternating draw for in rows, absent for out rows
        idx = np.arange(len(data))
        assert np.array_equal(data.labels[in_mask], idx[in_mask] % 2)
        assert np.all(data.labels[~in_mask] == gda.NO_LABEL)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError, match="at or above the density maximum"):
            gda.sample_synthetic(3.0, gda.density_max(2) * 1.01, 10, seed=0)

    def test_mixed_tags_present(self):
        data = gda.sample_synthetic(3.0, density_at_radius(2.0), 2000, seed=3)
        assert data.in_mask().sum() > 0
        assert (~data.in_mask()).sum() > 0

    def test_csv_round_trip(self, tmp_path):
        data = gda.sample_synthetic(3.0, density_at_radius(2.5), 64, seed=4)
        path = tmp_path / "set.csv"
        data.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x0,x1,label,domain"
        loaded = gda.LabeledSet.from_csv(path)
        np.testing.assert_array_equal(loaded.features, data.features)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        np.testing.assert_array_equal(loaded.domain, data.domain)

    def test_empty_set_round_trip(self, tmp_path):
        data = gda.sample_synthetic(3.0, 0.01, 0, seed=4)
        assert len(data) == 0
        path = tmp_path / "empty.csv"
        data.to_csv(path)
        assert len(gda.LabeledSet.from_csv(path)) == 0


class TestClusterFamily:
    def test_all_out_and_deterministic(self):
        centers = gda.ring_centers(7.0, 4)
        a = gda.sample_cluster_family(centers, 0.5, 40, seed=2)
        b = gda.sample_cluster_family(centers, 0.5, 40, seed=2)
        assert np.all(a.domain == gda.DOMAIN_OUT)
        np.testing.assert_array_equal(a.features, b.features)
        # draws stay near their centers
        dists = np.linalg.norm(a.features[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert dists.max() < 5.0
