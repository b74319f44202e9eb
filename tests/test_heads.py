import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oodlab import gda, heads
from oracles import central_difference, head_row, head_row_backward, materialize, max_rel_error


def random_gaussian_head(rng, dim=3, n_classes=2):
    means = rng.standard_normal((n_classes, dim))
    tri_raw = 0.3 * rng.standard_normal((dim, dim))
    return heads.GaussianHeadParams(means=means, tri_raw=tri_raw)


class TestLinearForward:
    def test_zero_weights(self):
        params = heads.LinearHeadParams(weight=np.zeros((2, 3)), bias=np.array([1.0, 2.0]))
        np.testing.assert_allclose(head_row(params, np.ones(3)), [1.0, 2.0])

    def test_identity(self):
        params = heads.LinearHeadParams(weight=np.eye(2), bias=np.zeros(2))
        np.testing.assert_allclose(head_row(params, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_closed_form_scores(self):
        model = heads.GaussianHeadParams(means=np.array([[1.0, 0.0], [-1.0, 0.0]]), tri_raw=np.zeros((2, 2)))
        w_hat, b_hat = gda.closed_form_discriminant(model)
        params = heads.LinearHeadParams(weight=w_hat, bias=b_hat)
        np.testing.assert_allclose(head_row(params, np.array([1.0, 0.0])), [0.5, -1.5])

    def test_dim_mismatch(self):
        params = heads.LinearHeadParams(weight=np.eye(2), bias=np.zeros(2))
        with pytest.raises(ValueError):
            head_row(params, np.ones(3))


class TestGaussianForward:
    def test_at_center(self):
        params = heads.GaussianHeadParams(means=np.array([[1.0, 2.0], [0.0, 0.0]]), tri_raw=np.zeros((2, 2)))
        h = head_row(params, np.array([1.0, 2.0]))
        assert h[0] == pytest.approx(0.0, abs=1e-15)
        assert h[1] == pytest.approx(-5.0)

    def test_identity_factor_is_squared_distance(self):
        params = heads.GaussianHeadParams(means=np.array([[0.0, 0.0], [9.0, 9.0]]), tri_raw=np.zeros((2, 2)))
        h = head_row(params, np.array([3.0, 4.0]))
        assert h[0] == pytest.approx(-25.0)

    def test_matches_quadform_example(self):
        lower = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        params = heads.GaussianHeadParams.from_factor(np.zeros((2, 2)), lower)
        h = head_row(params, np.array([1.0, 0.0]))
        assert h[0] == pytest.approx(-0.375)

    def test_nonpositive_with_equality_only_at_center(self):
        rng = np.random.default_rng(0)
        params = random_gaussian_head(rng, dim=4, n_classes=3)
        for _ in range(50):
            z = rng.standard_normal(4)
            h = head_row(params, z)
            assert np.all(h <= 0)
        h_at = head_row(params, params.means[1])
        assert h_at[1] == 0.0

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        params = random_gaussian_head(rng, dim=3, n_classes=4)
        perm = np.array([2, 0, 3, 1])
        permuted = heads.GaussianHeadParams(means=params.means[perm], tri_raw=params.tri_raw.copy())
        z = rng.standard_normal(3)
        np.testing.assert_allclose(
            head_row(permuted, z), head_row(params, z)[perm], atol=1e-12
        )

    def test_argmax_agrees_with_closed_form_linear(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n_classes, dim = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            means = 2.0 * rng.standard_normal((n_classes, dim))
            base = rng.standard_normal((dim, dim))
            cov = base @ base.T + dim * np.eye(dim)
            from oodlab import linalg

            gaussian = heads.GaussianHeadParams.from_factor(means, linalg.cholesky(cov))
            w_hat, b_hat = gda.closed_form_discriminant(gaussian)
            linear = heads.LinearHeadParams(weight=w_hat, bias=b_hat)
            for _ in range(10):
                z = 3.0 * rng.standard_normal(dim)
                assert int(np.argmax(head_row(linear, z))) == int(
                    np.argmax(head_row(gaussian, z))
                )


class TestGaussianBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(3)
        params = random_gaussian_head(rng)
        d_z, grads = head_row_backward(params, rng.standard_normal(3), np.zeros(2))
        assert np.all(d_z == 0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_mean_gradient_zero_at_center(self):
        rng = np.random.default_rng(4)
        params = random_gaussian_head(rng)
        upstream = np.array([1.0, 0.0])
        _, grads = head_row_backward(params, params.means[0].copy(), upstream)
        np.testing.assert_allclose(grads["means"][0], np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(500 + seed)
        dim, n_classes = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        params = random_gaussian_head(rng, dim=dim, n_classes=n_classes)
        z = rng.standard_normal(dim)
        upstream = rng.standard_normal(n_classes)

        d_z, grads = head_row_backward(params, z, upstream)

        def loss_of_z(zv):
            return float(upstream @ head_row(params, zv))

        fd_z = central_difference(loss_of_z, z)
        assert max_rel_error(d_z, fd_z) < 1e-5

        def loss_of_means(mv):
            p = heads.GaussianHeadParams(means=mv.reshape(n_classes, dim), tri_raw=params.tri_raw)
            return float(upstream @ head_row(p, z))

        fd_means = central_difference(loss_of_means, params.means.ravel())
        assert max_rel_error(grads["means"].ravel(), fd_means) < 1e-5

        def loss_of_tri(tv):
            p = heads.GaussianHeadParams(means=params.means, tri_raw=tv.reshape(dim, dim))
            return float(upstream @ head_row(p, z))

        fd_tri = central_difference(loss_of_tri, params.tri_raw.ravel())
        # the upper triangle is inert; the analytic gradient stores zeros there
        fd_tri = np.tril(fd_tri.reshape(dim, dim))
        assert max_rel_error(grads["tri_raw"], fd_tri) < 1e-5


class TestLinearBackward:
    @pytest.mark.parametrize("seed", range(6))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(900 + seed)
        dim, n_classes = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        params = heads.LinearHeadParams(
            weight=rng.standard_normal((n_classes, dim)), bias=rng.standard_normal(n_classes)
        )
        z = rng.standard_normal(dim)
        upstream = rng.standard_normal(n_classes)
        d_z, grads = head_row_backward(params, z, upstream)

        fd_z = central_difference(lambda zv: float(upstream @ head_row(params, zv)), z)
        assert max_rel_error(d_z, fd_z) < 1e-6

        def loss_of_w(wv):
            p = heads.LinearHeadParams(weight=wv.reshape(n_classes, dim), bias=params.bias)
            return float(upstream @ head_row(p, z))

        assert max_rel_error(grads["weight"].ravel(), central_difference(loss_of_w, params.weight.ravel())) < 1e-6

        def loss_of_b(bv):
            p = heads.LinearHeadParams(weight=params.weight, bias=bv)
            return float(upstream @ head_row(p, z))

        assert max_rel_error(grads["bias"], central_difference(loss_of_b, params.bias)) < 1e-6


class TestIceConfidence:
    def test_at_center(self):
        assert heads.ice_confidence(np.array([0.0, -5.0])) == 1.0

    def test_direct_value(self):
        assert heads.ice_confidence(np.array([-1.0, -2.0])) == pytest.approx(math.exp(-1.0))

    def test_underflow_limit(self):
        value = heads.ice_confidence(np.array([-1000.0, -1000.0]))
        assert value == 0.0  # documented underflow of the (0, 1] range

    def test_positive_score_rejected(self):
        with pytest.raises(ValueError, match="expected non-positive Gaussian-head scores"):
            heads.ice_confidence(np.array([0.1, -2.0]))

    def test_one_iff_zero_score(self):
        assert heads.ice_confidence(np.array([-0.001, -3.0])) < 1.0

    @given(
        st.lists(st.lists(st.floats(-1000.0, 0.0), min_size=3, max_size=3), min_size=1, max_size=6)
    )
    @example([[-1000.0, -1000.0, -1000.0]])  # a row that underflows to exactly 0.0
    @example([[-0.5, -2.0, 0.0], [-1000.0, -800.0, -900.0], [-3.0, -1e-13, -4.0]])
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_rows(self, rows):
        h = np.array(rows)
        batch = heads.ice_confidence(h)
        assert batch.shape == (h.shape[0],)
        np.testing.assert_allclose(batch, [heads.ice_confidence(row) for row in h], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(batch[h.max(axis=1) < -746.0], 0.0)  # exp underflow

    def test_one_positive_row_rejects_the_batch(self):
        h = -np.ones((3, 2))
        h[1, 0] = 0.25
        with pytest.raises(ValueError, match="expected non-positive Gaussian-head scores"):
            heads.ice_confidence(h)


class TestFactorRoundTrip:
    def test_from_factor_materializes_exactly(self):
        rng = np.random.default_rng(6)
        lower = np.tril(rng.standard_normal((4, 4)))
        np.fill_diagonal(lower, np.abs(np.diag(lower)) + 0.5)
        params = heads.GaussianHeadParams.from_factor(np.zeros((2, 4)), lower)
        np.testing.assert_allclose(materialize(params.tri_raw), lower, atol=1e-14)
        assert np.all(np.diag(materialize(params.tri_raw)) > 0)


class TestClassCount:
    @pytest.mark.parametrize("n_classes", [0, 1])
    @pytest.mark.parametrize("kind", list(heads.HEAD_TYPES))
    def test_fewer_than_two_classes_rejected(self, kind, n_classes):
        head_type = heads.HEAD_TYPES[kind]
        shapes = head_type.shapes(n_classes, 3)
        with pytest.raises(ValueError, match=f"need at least two classes, got {n_classes}"):
            head_type(**{name: np.zeros(shape) for name, shape in shapes.items()})
