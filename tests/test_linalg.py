import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab import heads, linalg
from oracles import materialize, tri_inverse_oracle


def random_spd(rng, dim):
    base = rng.standard_normal((dim, dim))
    return base @ base.T + dim * np.eye(dim)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(linalg.cholesky(np.eye(2)), np.eye(2))

    def test_two_by_two(self):
        lower = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(lower @ lower.T, [[4.0, 2.0], [2.0, 3.0]], atol=1e-10)

    def test_indefinite_rejected(self):
        # eigenvalues are 3 and -1
        with pytest.raises(linalg.NotPositiveDefinite):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_zero_matrix_rejected(self):
        # the pivot prints as a plain float, with no numpy repr
        with pytest.raises(linalg.NotPositiveDefinite, match=r"^pivot 0\.0 at column 0$"):
            linalg.cholesky(np.zeros((3, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            linalg.cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            linalg.cholesky(np.ones((2, 3)))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            a = random_spd(rng, dim)
            lower = linalg.cholesky(a)
            assert np.all(np.diag(lower) > 0)
            assert np.allclose(np.triu(lower, 1), 0.0)
            np.testing.assert_allclose(lower @ lower.T, a, atol=1e-10 * max(1.0, np.abs(a).max()))


def as_raw(lower):
    """A full lower factor in the raw form ``linalg`` reads: its strictly lower entries, and logs on the diagonal."""
    return heads.GaussianHeadParams.from_factor(np.zeros((2, len(lower))), lower).tri_raw


class TestTriSolve:
    def test_identity(self):
        np.testing.assert_allclose(linalg.tri_solve_lower(np.zeros((2, 2))), np.eye(2))

    def test_forward_substitution(self):
        lower = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        x = linalg.tri_solve_lower(as_raw(lower))[:, 0]
        np.testing.assert_allclose(x, [0.5, -0.5 / math.sqrt(2.0)])
        np.testing.assert_allclose(lower @ x, [1.0, 0.0], atol=1e-10)

    def test_inverse_factor(self):
        rng = np.random.default_rng(8)
        lower = linalg.cholesky(random_spd(rng, 5))
        _, inverse = linalg.whiten(as_raw(lower), np.zeros((1, 5)), np.zeros((1, 5)))
        np.testing.assert_allclose(lower @ inverse, np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_inverse_read_from_raw_factor(self, dim):
        # Any strictly lower entries and a log-diagonal in [-3, 3]; the upper
        # triangle of the raw array is ignored, so it is filled with junk.
        # Entries that cancel in the substitution are compared relative to
        # the largest entry of the inverse.
        rng = np.random.default_rng(300 + dim)
        for _ in range(20):
            tri_raw = rng.standard_normal((dim, dim))
            np.fill_diagonal(tri_raw, rng.uniform(-3.0, 3.0, dim))
            inverse = linalg.tri_solve_lower(tri_raw)
            assert np.all(np.triu(inverse, 1) == 0.0)
            expected = np.linalg.inv(materialize(tri_raw))
            assert np.all(np.abs(inverse - expected) <= 1e-12 * np.abs(expected).max())
            np.testing.assert_array_equal(inverse, tri_inverse_oracle(tri_raw))


def sq_mahalanobis(lower, centers, z):
    """(B, K) squared norms of the whitened residuals."""
    v, _ = linalg.whiten(as_raw(lower), centers, z)
    return np.einsum("bkj,bkj->bk", v, v)


class TestSpdQuadform:
    """u.T (L L.T)^-1 u read off the whitening kernel, for every (row, center) pair."""

    def test_identity_is_squared_norm(self):
        z = np.array([[3.0, 4.0], [1.0, 1.0]])
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]])
        expected = np.array([[25.0, 20.0, 0.0], [2.0, 1.0, 13.0]])
        assert sq_mahalanobis(np.eye(2), centers, z) == pytest.approx(expected)

    def test_explicit_inverse_example(self):
        lower = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        # Sigma^-1 = [[0.375, -0.25], [-0.25, 0.5]]
        z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        expected = np.array([[0.375, 0.0], [0.5, 1.375], [0.375, 0.5]])
        assert sq_mahalanobis(lower, centers, z) == pytest.approx(expected)

    def test_zero_vector(self):
        lower = linalg.cholesky(random_spd(np.random.default_rng(3), 3))
        centers = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]])
        got = sq_mahalanobis(lower, centers, centers)
        assert got[0, 0] == 0.0 and got[1, 1] == 0.0
        assert got[0, 1] > 0.0 and got[1, 0] > 0.0

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_explicit_inverse(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(20):
            a = random_spd(rng, dim)
            lower = linalg.cholesky(a)
            z = rng.standard_normal((4, dim))
            centers = rng.standard_normal((3, dim))
            u = z[:, None, :] - centers[None, :, :]
            expected = np.einsum("bki,ij,bkj->bk", u, np.linalg.inv(a), u)
            got = sq_mahalanobis(lower, centers, z)
            assert np.all(np.abs(got - expected) <= 1e-8 * np.maximum(1.0, np.abs(expected)))

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_even(self, seed, dim):
        rng = np.random.default_rng(seed)
        lower = linalg.cholesky(random_spd(rng, dim))
        z = rng.standard_normal((3, dim))
        centers = rng.standard_normal((2, dim))
        value = sq_mahalanobis(lower, centers, z)
        assert np.all(value >= 0.0)
        # Reflecting both the rows and the centers negates every residual.
        assert sq_mahalanobis(lower, -centers, -z) == pytest.approx(value, rel=1e-12)


# Values whose maximum numpy's reduction must and the fold does take the same way:
# ties, NaN (propagated), both infinities, both zeros and the smallest subnormals.
SPECIALS = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 5e-324, -5e-324])


class TestRowMax:
    @staticmethod
    def assert_same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("lead", [(), (50,), (6, 7)], ids=["1d", "2d", "3d"])
    def test_equals_numpy_max(self, k, lead):
        rng = np.random.default_rng(10 * k + len(lead))
        values = rng.choice(SPECIALS, size=lead + (k,))
        self.assert_same_bits(linalg.row_max(values), values.max(axis=-1))
        # Rows drawn from three values tie far more often.
        ties = rng.choice(SPECIALS[:3], size=lead + (k,))
        self.assert_same_bits(linalg.row_max(ties), ties.max(axis=-1))

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_special_pair_and_triple(self, k):
        grids = np.meshgrid(*[SPECIALS] * k, indexing="ij")
        values = np.stack([g.ravel() for g in grids], axis=-1)
        self.assert_same_bits(linalg.row_max(values), values.max(axis=-1))
        self.assert_same_bits(linalg.row_max(values[:, ::-1]), values[:, ::-1].max(axis=-1))

    def test_input_left_unchanged(self):
        values = np.array([[1.0, 3.0], [-0.0, 0.0]])
        before = values.copy()
        linalg.row_max(values)
        np.testing.assert_array_equal(values.view(np.int64), before.view(np.int64))
