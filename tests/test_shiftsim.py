import numpy as np
import pytest

from oodlab import criteria, gda, heads, linalg, shiftsim, trainer
from oodlab.errors import ConfigError
from oracles import density_at_radius, tied_cov

ZETA = density_at_radius(2.5)


def shift_config(kind, **fields):
    """The resolved training config ``run_shift_sim`` reads its head, criterion and weight from."""
    return trainer.TrainConfig(criterion=criteria.CriterionConfig(kind), **fields)


def planted_model():
    return heads.GaussianHeadParams(means=np.array([[3.0, 0.0], [-3.0, 0.0]]), tri_raw=np.zeros((2, 2)))


def default_bank(seed=11, n_in=200, n_out=200):
    return shiftsim.make_shift_bank(3.0, ZETA, n_in, n_out, seed)


class TestFalseLikelihoodPair:
    def test_centers_only_has_no_pair(self):
        model = planted_model()
        data = gda.LabeledSet(
            np.array([[3.0, 0.0], [-3.0, 0.0], [50.0, 50.0]]),
            np.array([0, 1, -1]),
        )
        # the lone outlier has the lowest likelihood AND the in-samples that
        # out-score it (none: f_0 at (50,50) is huge) -> but its likelihood is
        # lower than both, so a pair needs f_0(B) > f_0(A), which holds, and
        # lik(B) < lik(A), which also holds -> pair exists here by design
        pair = shiftsim.find_false_likelihood_pair(model, data, 0)
        assert pair is not None

    def test_no_outliers_returns_none(self):
        model = planted_model()
        data = gda.LabeledSet(np.array([[3.0, 0.0], [-3.0, 0.0]]), np.array([0, 1]))
        assert shiftsim.find_false_likelihood_pair(model, data, 0) is None

    def test_planted_geometry(self):
        # A near the class-0 center but off-axis; B far along the weight direction
        model = planted_model()
        data = gda.LabeledSet(
            np.array([[3.0, 2.0], [8.0, 0.0]]),
            np.array([0, -1]),
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

    @pytest.mark.parametrize("zeta", [1e-300, 0.9999 * gda.density_max(2)], ids=["all_in", "all_out"])
    def test_one_sided_threshold_fails_within_budget(self, zeta, monkeypatch):
        drawn = []
        sample = shiftsim.sample_synthetic

        def counting_sample(mu, zeta, n, seed, dims=2):
            drawn.append(n)
            return sample(mu, zeta, n, seed, dims=dims)

        monkeypatch.setattr(shiftsim, "sample_synthetic", counting_sample)
        with pytest.raises(ConfigError, match="the shift bank needs n_in=200 and n_out=200"):
            shiftsim.make_shift_bank(3.0, zeta, 200, 200, seed=5)
        assert sum(drawn) <= shiftsim.BANK_DRAW_BUDGET * 400


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
        traj = shiftsim.run_shift_sim(shift_config("oe"), bank, model, steps=5, lr=0.0, zeta=ZETA)
        for step in range(6):
            np.testing.assert_array_equal(traj.snapshots[step], bank.features)

    @staticmethod
    def whiten_calls(monkeypatch, config, steps=10):
        """How many times a ``steps``-long simulation under ``config`` calls ``linalg.whiten``."""
        bank = default_bank(n_in=20, n_out=10)
        model = gda.fit_gda(bank)
        whiten = linalg.whiten
        calls = []

        def counting(*args):
            calls.append(1)
            return whiten(*args)

        monkeypatch.setattr(linalg, "whiten", counting)
        shiftsim.run_shift_sim(config, bank, model, steps=steps, lr=0.05, zeta=ZETA)
        return len(calls)

    def test_gaussian_head_whitens_once_per_step(self, monkeypatch):
        # Per step: one whitening in the head (its backward reuses the
        # forward's) and one in shift_stats, plus shift_stats of the start.
        assert self.whiten_calls(monkeypatch, shift_config("ice")) == 2 * 10 + 1

    @pytest.mark.parametrize("head,per_step", [("auto", 1), ("gaussian", 2)])
    def test_head_kind_comes_from_the_config(self, monkeypatch, head, per_step):
        # energy resolves to the linear head, whose forward whitens nothing;
        # asked for the Gaussian head, the simulation freezes that one instead
        assert self.whiten_calls(monkeypatch, shift_config("energy", head=head)) == per_step * 10 + 1

    def test_oe_contracts_outlier_norms(self):
        bank = default_bank()
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(shift_config("oe"), bank, model, steps=100, lr=0.05, zeta=ZETA)
        assert traj.stats[-1].mean_norm_out < traj.stats[0].mean_norm_out

    def test_ice_separates_populations(self):
        bank = default_bank()
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(shift_config("ice"), bank, model, steps=100, lr=0.05, zeta=ZETA)
        assert traj.stats[-1].mean_nearest_center_out > traj.stats[0].mean_nearest_center_out
        assert traj.stats[-1].mean_own_center_in < traj.stats[0].mean_own_center_in

    def test_ice_per_step_directions(self):
        # in-features move toward their center, outliers away from the nearest one
        bank = default_bank(n_in=60, n_out=30)
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(shift_config("ice"), bank, model, steps=30, lr=0.05, zeta=ZETA)
        in_mask = bank.in_mask()
        cov_inv = np.linalg.inv(tied_cov(model))
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

    @pytest.mark.parametrize("kind", criteria.KINDS)
    def test_rows_follow_labels_not_positions(self, kind):
        # A row's label picks its branch, so permuting the bank permutes every snapshot.
        bank = default_bank(n_in=30, n_out=15)
        model = gda.fit_gda(bank)
        order = np.random.default_rng(3).permutation(len(bank))
        traj = shiftsim.run_shift_sim(shift_config(kind), bank, model, steps=10, lr=0.05, zeta=ZETA)
        permuted = shiftsim.run_shift_sim(shift_config(kind), bank.subset(order), model, steps=10, lr=0.05, zeta=ZETA)
        np.testing.assert_allclose(permuted.snapshots, traj.snapshots[:, order], rtol=0, atol=1e-12)

    def test_deterministic_trajectories(self):
        bank = default_bank(n_in=30, n_out=15)
        model = gda.fit_gda(bank)
        a = shiftsim.run_shift_sim(shift_config("ice"), bank, model, steps=10, lr=0.05, zeta=ZETA)
        b = shiftsim.run_shift_sim(shift_config("ice"), bank, model, steps=10, lr=0.05, zeta=ZETA)
        np.testing.assert_array_equal(a.snapshots, b.snapshots)

    def test_snapshot_count(self):
        bank = default_bank(n_in=10, n_out=5)
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(shift_config("oe"), bank, model, steps=7, lr=0.01, zeta=ZETA)
        assert traj.snapshots.shape[0] == 8
        assert len(traj.stats) == 8

    def test_frozen_gaussian_head_matches_model(self):
        bank = default_bank(n_in=20, n_out=10)
        model = gda.fit_gda(bank)
        assert shiftsim._frozen_head("gaussian", model) is model

    def test_rejects_bad_steps(self):
        bank = default_bank(n_in=10, n_out=5)
        model = gda.fit_gda(bank)
        with pytest.raises(ValueError):
            shiftsim.run_shift_sim(shift_config("oe"), bank, model, steps=0, lr=0.1, zeta=ZETA)


class TestCsvExports:
    def test_headers_and_row_counts(self, tmp_path):
        bank = default_bank(n_in=6, n_out=4)
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(shift_config("oe"), bank, model, steps=3, lr=0.02, zeta=ZETA)
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
