import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oodlab import criteria
from oodlab.heads import InvalidScore
from oracles import central_difference, max_rel_error

finite_scores = st.lists(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False), min_size=2, max_size=6
).map(lambda xs: np.asarray(xs))


ENERGY = criteria.CriterionConfig("energy")
ICE = criteria.CriterionConfig("ice")
ICE_MINUS = criteria.CriterionConfig("ice_minus")


def objective(config, in_scores, y, out_scores, lam):
    """Total of both branches of ``config`` for one in-sample and one outlier."""
    return (
        criteria.id_loss(config, in_scores, y, weight=lam).value
        + criteria.ood_loss(config, out_scores, weight=lam).value
    )


def fd_check(loss_fn, scores, tol=1e-6):
    report = loss_fn(scores)
    fd = central_difference(lambda s: loss_fn(s).value, scores)
    assert max_rel_error(report.d_scores, fd) < tol


class TestSce:
    def test_symmetric_value_and_gradient(self):
        rep = criteria.sce(np.zeros(2), 0)
        assert rep.value == pytest.approx(math.log(2.0))
        np.testing.assert_allclose(rep.d_scores, [-0.5, 0.5])

    def test_gradient_signs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            scores = 5.0 * rng.standard_normal(k)
            y = int(rng.integers(k))
            d = criteria.sce(scores, y).d_scores
            assert d[y] < 0
            assert np.all(np.delete(d, y) > 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(1000 + seed)
        scores = 3.0 * rng.standard_normal(4)
        y = int(rng.integers(4))
        fd_check(lambda s: criteria.sce(s, y), scores)

    @given(finite_scores, st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_gradient_shift_invariance(self, scores, shift):
        d0 = criteria.sce(scores, 0).d_scores
        d1 = criteria.sce(scores + shift, 0).d_scores
        np.testing.assert_allclose(d0, d1, atol=1e-9)


class TestOeUniform:
    def test_uniform_scores__fixed_point(self):
        rep = criteria.oe_uniform(np.full(3, 1.7))
        assert rep.value == pytest.approx(math.log(3.0))
        np.testing.assert_allclose(rep.d_scores, np.zeros(3), atol=1e-15)

    def test_two_class_example(self):
        rep = criteria.oe_uniform(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(rep.d_scores, [1.0 / 6.0, -1.0 / 6.0], atol=1e-12)

    def test_trichotomy(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            scores = 4.0 * rng.standard_normal(k)
            probs = np.exp(scores - scores.max())
            probs /= probs.sum()
            d = criteria.oe_uniform(scores).d_scores
            assert np.array_equal(np.sign(d), np.sign(probs - 1.0 / k))

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(2000 + seed)
        fd_check(criteria.oe_uniform, 3.0 * rng.standard_normal(int(rng.integers(2, 6))))

    @given(finite_scores, st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_gradient_shift_invariance(self, scores, shift):
        np.testing.assert_allclose(
            criteria.oe_uniform(scores).d_scores, criteria.oe_uniform(scores + shift).d_scores, atol=1e-9
        )


class TestEnergy:
    def test_symmetric(self):
        rep = criteria.energy(np.zeros(2))
        assert rep.value == pytest.approx(math.log(2.0))
        np.testing.assert_allclose(rep.d_scores, [0.5, 0.5])

    def test_stable_logsumexp(self):
        rep = criteria.energy(np.array([1.0, 2.0, 3.0]))
        assert rep.value == pytest.approx(3.0 + math.log(1.0 + math.exp(-1.0) + math.exp(-2.0)))
        big = criteria.energy(np.array([1000.0, 0.0]))
        assert big.value == pytest.approx(1000.0)
        assert np.all(np.isfinite(big.d_scores))

    def test_strictly_positive_gradient(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = criteria.energy(10.0 * rng.standard_normal(int(rng.integers(1, 6)))).d_scores
            assert np.all(d > 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(3000 + seed)
        fd_check(criteria.energy, 3.0 * rng.standard_normal(int(rng.integers(1, 6))))


class TestEnergyObjective:
    """sce on the in-sample plus lam * (-energy(in) + energy(out)), through the branch dispatchers."""

    def test_lambda_zero_reduces_to_sce(self):
        rng = np.random.default_rng(4)
        in_scores = rng.standard_normal(3)
        out_scores = rng.standard_normal(3)
        in_rep = criteria.id_loss(ENERGY, in_scores, 1, weight=0.0)
        out_rep = criteria.ood_loss(ENERGY, out_scores, weight=0.0)
        sce_rep = criteria.sce(in_scores, 1)
        assert in_rep.value + out_rep.value == pytest.approx(sce_rep.value)
        np.testing.assert_allclose(in_rep.d_scores, sce_rep.d_scores)
        np.testing.assert_allclose(out_rep.d_scores, np.zeros(3))

    def test_in_branch_combination(self):
        rep = criteria.id_loss(ENERGY, np.zeros(2), 0, weight=0.1)
        np.testing.assert_allclose(rep.d_scores, [-0.5 - 0.05, 0.5 - 0.05])

    def test_energy_id_branch_strictly_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            scores = 5.0 * rng.standard_normal(k)
            contribution = -criteria.energy(scores).d_scores  # the negated-energy summand
            assert np.all(contribution < 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences_both_branches(self, seed):
        rng = np.random.default_rng(4000 + seed)
        k = int(rng.integers(2, 5))
        in_scores = 2.0 * rng.standard_normal(k)
        out_scores = 2.0 * rng.standard_normal(k)
        y = int(rng.integers(k))
        lam = float(rng.uniform(0.05, 1.0))
        fd_in = central_difference(lambda s: objective(ENERGY, s, y, out_scores, lam), in_scores)
        fd_out = central_difference(lambda s: objective(ENERGY, in_scores, y, s, lam), out_scores)
        assert max_rel_error(criteria.id_loss(ENERGY, in_scores, y, weight=lam).d_scores, fd_in) < 1e-6
        assert max_rel_error(criteria.ood_loss(ENERGY, out_scores, weight=lam).d_scores, fd_out) < 1e-6


class TestIceId:
    def test_at_center(self):
        assert criteria.ice_id(np.array([0.0, -3.0]), 0).value == 0.0

    def test_definitional(self):
        rep = criteria.ice_id(np.array([-4.0, -9.0]), 0)
        assert rep.value == pytest.approx(4.0)
        np.testing.assert_allclose(rep.d_scores, [-1.0, 0.0])

    def test_rejects_positive_scores(self):
        with pytest.raises(InvalidScore):
            criteria.ice_id(np.array([0.5, -1.0]), 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(5000 + seed)
        h = -rng.uniform(0.5, 8.0, size=3)
        fd_check(lambda s: criteria.ice_id(s, 1), h)


class TestIceOod:
    def test_closed_form_value(self):
        rep = criteria.ice_ood(np.array([-1.0, -9.0]))
        assert rep.value == pytest.approx(-math.log(1.0 - math.exp(-1.0)))

    def test_far_outlier_costs_nothing(self):
        rep = criteria.ice_ood(np.array([-800.0, -900.0]))
        assert rep.value == pytest.approx(0.0, abs=1e-300)

    def test_clamp_at_zero(self):
        rep = criteria.ice_ood(np.array([0.0, -9.0]))
        assert rep.value == pytest.approx(-math.log(1e-12))
        assert rep.d_scores[0] == pytest.approx(1e12)
        assert rep.d_scores[1] == 0.0

    def test_gradient_only_at_argmax(self):
        rep = criteria.ice_ood(np.array([-5.0, -0.25, -2.0]))
        assert rep.d_scores[1] > 0
        assert rep.d_scores[0] == 0.0 and rep.d_scores[2] == 0.0

    def test_rejects_positive_scores(self):
        with pytest.raises(InvalidScore):
            criteria.ice_ood(np.array([0.5, -1.0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(6000 + seed)
        h = -rng.uniform(0.2, 6.0, size=int(rng.integers(2, 5)))
        fd_check(criteria.ice_ood, h)

    @given(st.floats(min_value=-20.0, max_value=-1e-3))
    @settings(max_examples=60, deadline=None)
    def test_not_shift_invariant(self, h_star):
        h = np.array([h_star, h_star - 1.0])
        shifted = h - 1.0
        assert criteria.ice_ood(h).value != pytest.approx(criteria.ice_ood(shifted).value, rel=1e-6, abs=0.0)


class TestIceObjective:
    """sce on the in-sample plus lam * (ice_id(in) + ice_ood(out)); ice_minus drops ice_id."""

    def test_lambda_zero_reduces_to_sce(self):
        h_in = np.array([-0.5, -4.0])
        h_out = np.array([-1.0, -2.0])
        assert objective(ICE, h_in, 0, h_out, 0.0) == pytest.approx(criteria.sce(h_in, 0).value)

    def test_composition_example(self):
        h_in = np.array([0.0, -4.0])
        h_out = np.array([-1.0, -9.0])
        expected = criteria.sce(h_in, 0).value + 0.0 + (-math.log(1.0 - math.exp(-1.0)))
        assert objective(ICE, h_in, 0, h_out, 1.0) == pytest.approx(expected)

    def test_ice_minus_drops_id_term(self):
        h_in = np.array([-2.0, -4.0])
        h_out = np.array([-1.0, -9.0])
        full = objective(ICE, h_in, 0, h_out, 1.0)
        minus = objective(ICE_MINUS, h_in, 0, h_out, 1.0)
        assert full - minus == pytest.approx(2.0)  # the dropped -h_y term
        np.testing.assert_allclose(
            criteria.id_loss(ICE_MINUS, h_in, 0, weight=1.0).d_scores, criteria.sce(h_in, 0).d_scores
        )

    def test_lambda_branch_touches_only_ground_truth(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            h = -rng.uniform(0.1, 9.0, size=k)
            y = int(rng.integers(k))
            contribution = criteria.ice_id(h, y).d_scores
            assert contribution[y] <= 0
            assert np.all(np.delete(contribution, y) == 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences_both_branches(self, seed):
        rng = np.random.default_rng(7000 + seed)
        k = int(rng.integers(2, 5))
        h_in = -rng.uniform(0.2, 6.0, size=k)
        h_out = -rng.uniform(0.2, 6.0, size=k)
        y = int(rng.integers(k))
        lam = float(rng.uniform(0.1, 2.0))
        fd_in = central_difference(lambda s: objective(ICE, s, y, h_out, lam), h_in)
        fd_out = central_difference(lambda s: objective(ICE, h_in, y, s, lam), h_out)
        assert max_rel_error(criteria.id_loss(ICE, h_in, y, weight=lam).d_scores, fd_in) < 1e-6
        assert max_rel_error(criteria.ood_loss(ICE, h_out, weight=lam).d_scores, fd_out) < 1e-6


class TestBceOutlier:
    def test_one_hot_at_zero(self):
        rep = criteria.bce_outlier(np.zeros(2), np.array([1.0, 0.0]))
        assert rep.value == pytest.approx(2.0 * math.log(2.0))

    def test_all_zero_targets_at_zero(self):
        rep = criteria.bce_outlier(np.zeros(2), np.zeros(2))
        assert rep.value == pytest.approx(2.0 * math.log(2.0))

    def test_rejects_non_binary_targets(self):
        with pytest.raises(ValueError):
            criteria.bce_outlier(np.zeros(2), np.array([0.5, 0.0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(8000 + seed)
        k = int(rng.integers(2, 6))
        targets = (rng.random(k) > 0.5).astype(float)
        fd_check(lambda s: criteria.bce_outlier(s, targets), 3.0 * rng.standard_normal(k))


class TestDispatch:
    def test_defaults(self):
        assert criteria.CriterionConfig("oe").weight == 0.5
        assert criteria.CriterionConfig("energy").weight == 0.1
        assert criteria.CriterionConfig("ice").weight == 1.0
        assert criteria.CriterionConfig("ice", lam=0.25).weight == 0.25

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            criteria.CriterionConfig("nope")

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            criteria.CriterionConfig("oe", lam=-0.5)

    def test_branches_match_objectives(self):
        rng = np.random.default_rng(8)
        k = 3
        scores_in = rng.standard_normal(k)
        scores_out = rng.standard_normal(k)
        h_in = -rng.uniform(0.2, 5.0, size=k)
        h_out = -rng.uniform(0.2, 5.0, size=k)

        cfg = criteria.CriterionConfig("energy", lam=0.3)
        np.testing.assert_allclose(
            criteria.id_loss(cfg, scores_in, 1).d_scores,
            criteria.sce(scores_in, 1).d_scores - 0.3 * criteria.energy(scores_in).d_scores,
        )
        np.testing.assert_allclose(
            criteria.ood_loss(cfg, scores_out).d_scores, 0.3 * criteria.energy(scores_out).d_scores
        )

        cfg = criteria.CriterionConfig("ice", lam=0.7)
        np.testing.assert_allclose(
            criteria.id_loss(cfg, h_in, 2).d_scores,
            criteria.sce(h_in, 2).d_scores + 0.7 * criteria.ice_id(h_in, 2).d_scores,
        )
        np.testing.assert_allclose(criteria.ood_loss(cfg, h_out).d_scores, 0.7 * criteria.ice_ood(h_out).d_scores)

        cfg = criteria.CriterionConfig("ice_minus", lam=0.7)
        np.testing.assert_allclose(criteria.id_loss(cfg, h_in, 2).d_scores, criteria.sce(h_in, 2).d_scores)

        cfg = criteria.CriterionConfig("oe")
        np.testing.assert_allclose(
            criteria.ood_loss(cfg, scores_out).d_scores, 0.5 * criteria.oe_uniform(scores_out).d_scores
        )

        cfg = criteria.CriterionConfig("plain")
        assert criteria.ood_loss(cfg, scores_out).value == 0.0
        np.testing.assert_allclose(criteria.id_loss(cfg, scores_in, 0).d_scores, criteria.sce(scores_in, 0).d_scores)

        cfg = criteria.CriterionConfig("bce", lam=1.0)
        onehot = np.zeros(k)
        onehot[1] = 1.0
        np.testing.assert_allclose(
            criteria.id_loss(cfg, scores_in, 1).d_scores, criteria.bce_outlier(scores_in, onehot).d_scores
        )
        np.testing.assert_allclose(
            criteria.ood_loss(cfg, scores_out).d_scores, criteria.bce_outlier(scores_out, np.zeros(k)).d_scores
        )

    def test_explicit_weight_argument(self):
        cfg = criteria.CriterionConfig("ice", lam=1.0)
        h = np.array([-1.0, -2.0])
        scaled = criteria.ood_loss(cfg, h, weight=2.5)
        assert scaled.value == pytest.approx(2.5 * criteria.ice_ood(h).value)


GAUSSIAN_KINDS = ("ice", "ice_minus")


@st.composite
def score_batches(draw):
    """(B, K) non-positive scores with labels; some rows sit in the ICE clamp regime."""
    b = draw(st.integers(1, 6))
    k = draw(st.integers(2, 5))
    row = st.lists(st.floats(-20.0, 0.0), min_size=k, max_size=k)
    h = np.array(draw(st.lists(row, min_size=b, max_size=b)))
    for i, top in enumerate(draw(st.lists(st.none() | st.floats(-1e-13, 0.0), min_size=b, max_size=b))):
        if top is not None:
            h[i, int(np.argmax(h[i]))] = top
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=b, max_size=b)))
    return h, labels


def assert_batch_equals_rows(batch, rows):
    np.testing.assert_allclose(batch.value, np.array([r.value for r in rows]), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(batch.d_scores, np.stack([r.d_scores for r in rows]), rtol=1e-12, atol=1e-12)


class TestBatchEqualsRows:
    """id_loss/ood_loss on a (B, K) batch equal the stack of their per-row calls."""

    @pytest.mark.parametrize("kind", criteria.KINDS)
    @given(score_batches(), st.floats(0.0, 2.0))
    @example((np.array([[-1.5, -0.2]]), np.array([1])), 0.5)  # B = 1
    @example((np.array([[-0.1, -3.0, -2.0], [-4.0, -0.3, -1.0], [-2.0, -5.0, -0.7]]), np.array([2, 0, 1])), 1.0)
    @example((np.array([[-1e-13, -2.0], [-3.0, 0.0], [-0.5, -6e-14]]), np.array([0, 1, 0])), 1.0)  # clamp rows
    @settings(max_examples=40, deadline=None)
    def test_both_branches(self, kind, batch, weight):
        h, labels = batch
        cfg = criteria.CriterionConfig(kind)
        # linear-head kinds take scores of either sign; shifting keeps the clamp rows distinct
        scores = h if kind in GAUSSIAN_KINDS else h + np.linspace(0.0, 3.0, h.shape[1])
        assert_batch_equals_rows(
            criteria.id_loss(cfg, scores, labels, weight),
            [criteria.id_loss(cfg, row, int(y), weight) for row, y in zip(scores, labels)],
        )
        assert_batch_equals_rows(
            criteria.ood_loss(cfg, scores, weight), [criteria.ood_loss(cfg, row, weight) for row in scores]
        )

    @pytest.mark.parametrize("kind", GAUSSIAN_KINDS)
    def test_one_positive_row_rejects_the_batch(self, kind):
        h = -np.arange(1.0, 13.0).reshape(4, 3)
        h[2, 1] = 1e-9
        cfg = criteria.CriterionConfig(kind)
        with pytest.raises(InvalidScore):
            criteria.id_loss(cfg, h, np.zeros(4, dtype=int))
        with pytest.raises(InvalidScore):
            criteria.ood_loss(cfg, h)

    def test_clamp_floor_in_batch(self):
        h = np.array([[0.0, -9.0], [-1e-13, -1.0], [-1.0, -9.0]])
        rep = criteria.ice_ood(h)
        np.testing.assert_allclose(rep.value[:2], -math.log(criteria.ICE_OOD_EPS))
        np.testing.assert_allclose(rep.d_scores[:2, 0], np.exp(h[:2, 0]) / criteria.ICE_OOD_EPS)
        assert rep.value[2] == pytest.approx(-math.log(1.0 - math.exp(-1.0)))

    def test_label_out_of_range_in_batch(self):
        with pytest.raises(ValueError):
            criteria.sce(np.zeros((3, 2)), np.array([0, 2, 1]))
