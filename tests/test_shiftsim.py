import numpy as np
import pytest

from oodlab import criteria, gda, linalg, shiftsim

ZETA = gda.density_at_radius(2.5)


def planted_model():
    return gda.GdaModel(means=np.array([[3.0, 0.0], [-3.0, 0.0]]), tied_cov=np.eye(2), chol=np.eye(2))


def default_bank(seed=11, n_in=200, n_out=200):
    return shiftsim.make_shift_bank(3.0, ZETA, n_in, n_out, seed)


class TestFalseLikelihoodPair:
    def test_centers_only_has_no_pair(self):
        model = planted_model()
        data = gda.LabeledSet(
            np.array([[3.0, 0.0], [-3.0, 0.0], [50.0, 50.0]]),
            np.array([0, 1, -1]),
            np.array(["in", "in", "out"]),
        )
        # the lone outlier has the lowest likelihood AND the in-samples that
        # out-score it (none: f_0 at (50,50) is huge) -> but its likelihood is
        # lower than both, so a pair needs f_0(B) > f_0(A), which holds, and
        # lik(B) < lik(A), which also holds -> pair exists here by design
        pair = shiftsim.find_false_likelihood_pair(model, data, 0)
        assert pair is not None

    def test_no_outliers_returns_none(self):
        model = planted_model()
        data = gda.LabeledSet(np.array([[3.0, 0.0], [-3.0, 0.0]]), np.array([0, 1]), np.array(["in", "in"]))
        assert shiftsim.find_false_likelihood_pair(model, data, 0) is None

    def test_planted_geometry(self):
        # A near the class-0 center but off-axis; B far along the weight direction
        model = planted_model()
        data = gda.LabeledSet(
            np.array([[3.0, 2.0], [8.0, 0.0]]),
            np.array([0, -1]),
            np.array(["in", "out"]),
        )
        pair = shiftsim.find_false_likelihood_pair(model, data, 0)
        assert pair is not None
        assert pair.f_b > pair.f_a
        assert pair.lik_b < pair.lik_a

    def test_found_on_sampled_data(self):
        data = gda.sample_synthetic(3.0, ZETA, 400, seed=5)
        model = gda.fit_gda(data)
        pair = shiftsim.find_false_likelihood_pair(model, data, 0)
        assert pair is not None
        assert pair.f_b > pair.f_a and pair.lik_b < pair.lik_a


class TestMakeShiftBank:
    def test_exact_counts_and_determinism(self):
        bank = default_bank(seed=3, n_in=50, n_out=20)
        assert int(bank.in_mask().sum()) == 50
        assert int((~bank.in_mask()).sum()) == 20
        again = default_bank(seed=3, n_in=50, n_out=20)
        np.testing.assert_array_equal(bank.features, again.features)


class TestShiftStats:
    def test_hand_example(self):
        model = planted_model()
        stats = shiftsim.shift_stats(
            np.array([[0.0, 0.0], [0.0, 0.0]]),
            np.array([-1, -1]),
            np.array(["out", "out"]),
            model,
            ZETA,
        )
        assert stats.mean_norm_out == 0.0
        assert stats.mean_nearest_center_out == pytest.approx(9.0)

    def test_no_outliers_marked_nan(self):
        model = planted_model()
        stats = shiftsim.shift_stats(np.array([[3.0, 0.0]]), np.array([0]), np.array(["in"]), model, ZETA)
        assert np.isnan(stats.mean_norm_out)
        assert np.isnan(stats.mean_nearest_center_out)
        assert stats.mean_own_center_in == 0.0

    def test_in_features_at_centers(self):
        model = planted_model()
        stats = shiftsim.shift_stats(
            np.array([[3.0, 0.0], [-3.0, 0.0], [9.0, 9.0]]),
            np.array([0, 1, -1]),
            np.array(["in", "in", "out"]),
            model,
            ZETA,
        )
        assert stats.mean_own_center_in == 0.0


class TestRunShiftSim:
    def test_lr_zero_freezes_features(self):
        bank = default_bank(n_in=20, n_out=10)
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(criteria.CriterionConfig("oe"), bank, model, steps=5, lr=0.0, zeta=ZETA)
        for step in range(6):
            np.testing.assert_array_equal(traj.snapshots[step], bank.features)

    def test_oe_contracts_outlier_norms(self):
        bank = default_bank()
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(criteria.CriterionConfig("oe"), bank, model, steps=100, lr=0.05, zeta=ZETA)
        assert traj.stats[-1].mean_norm_out < traj.stats[0].mean_norm_out

    def test_ice_separates_populations(self):
        bank = default_bank()
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(criteria.CriterionConfig("ice"), bank, model, steps=100, lr=0.05, zeta=ZETA)
        assert traj.stats[-1].mean_nearest_center_out > traj.stats[0].mean_nearest_center_out
        assert traj.stats[-1].mean_own_center_in < traj.stats[0].mean_own_center_in

    def test_ice_per_step_directions(self):
        # in-features move toward their center, outliers away from the nearest one
        bank = default_bank(n_in=60, n_out=30)
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(criteria.CriterionConfig("ice"), bank, model, steps=30, lr=0.05, zeta=ZETA)
        in_mask = bank.in_mask()
        cov_inv = np.linalg.inv(model.tied_cov)
        for step in range(traj.steps):
            before, after = traj.snapshots[step], traj.snapshots[step + 1]
            delta = after - before
            for row in np.nonzero(in_mask)[0]:
                center = model.means[bank.labels[row]]
                if not np.allclose(before[row], center):
                    assert float(delta[row] @ (center - before[row])) > 0
            for row in np.nonzero(~in_mask)[0]:
                mahal = [(before[row] - m) @ cov_inv @ (before[row] - m) for m in model.means]
                nearest = model.means[int(np.argmin(mahal))]
                assert float(delta[row] @ (nearest - before[row])) < 0

    def test_deterministic_trajectories(self):
        bank = default_bank(n_in=30, n_out=15)
        model = gda.fit_gda(bank)
        a = shiftsim.run_shift_sim(criteria.CriterionConfig("ice"), bank, model, steps=10, lr=0.05, zeta=ZETA)
        b = shiftsim.run_shift_sim(criteria.CriterionConfig("ice"), bank, model, steps=10, lr=0.05, zeta=ZETA)
        np.testing.assert_array_equal(a.snapshots, b.snapshots)

    def test_snapshot_count(self):
        bank = default_bank(n_in=10, n_out=5)
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(criteria.CriterionConfig("oe"), bank, model, steps=7, lr=0.01, zeta=ZETA)
        assert traj.snapshots.shape[0] == 8
        assert len(traj.stats) == 8

    def test_frozen_gaussian_head_matches_model(self):
        bank = default_bank(n_in=20, n_out=10)
        model = gda.fit_gda(bank)
        head = shiftsim._frozen_head(criteria.CriterionConfig("ice"), model)
        np.testing.assert_allclose(head.materialize(), model.chol, atol=1e-12)
        np.testing.assert_allclose(head.means, model.means)

    def test_rejects_bad_steps(self):
        bank = default_bank(n_in=10, n_out=5)
        model = gda.fit_gda(bank)
        with pytest.raises(ValueError):
            shiftsim.run_shift_sim(criteria.CriterionConfig("oe"), bank, model, steps=0, lr=0.1, zeta=ZETA)


class TestCsvExports:
    def test_headers_and_row_counts(self, tmp_path):
        bank = default_bank(n_in=6, n_out=4)
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(criteria.CriterionConfig("oe"), bank, model, steps=3, lr=0.02, zeta=ZETA)
        tpath = tmp_path / "trajectory.csv"
        spath = tmp_path / "stats.csv"
        shiftsim.trajectory_to_csv(traj, tpath)
        shiftsim.stats_to_csv(traj, spath)
        tlines = tpath.read_text().splitlines()
        assert tlines[0] == "step,idx,domain,x0,x1"
        assert len(tlines) == 1 + 4 * 10
        slines = spath.read_text().splitlines()
        assert slines[0] == "step,mean_norm_out,mean_nearest_center_out,mean_own_center_in,mixed_fraction"
        assert len(slines) == 1 + 4
