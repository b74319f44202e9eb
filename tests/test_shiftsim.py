import math
from dataclasses import astuple

import numpy as np
import pytest

from oodlab import criteria, gda, heads, linalg, shiftsim, trainer
from oodlab.errors import ConfigError, NonFiniteState
from oracles import density_at_radius, shift_stats_oracle, tied_cov

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

    @staticmethod
    def drift(pick_rows):
        """Seven snapshots of an ICE descent on the rows ``pick_rows`` picks of a 40 + 40 bank, and the frozen model."""
        bank = default_bank(n_in=40, n_out=40)
        model = gda.fit_gda(bank)
        traj = shiftsim.run_shift_sim(shift_config("ice"), bank, model, steps=6, lr=0.05, zeta=ZETA)
        rows = pick_rows(bank)
        return traj.snapshots[:, rows], bank.labels[rows], bank.domain[rows], model

    @pytest.mark.parametrize(
        "pick_rows",
        [
            lambda bank: np.arange(len(bank)),
            lambda bank: np.nonzero(bank.in_mask())[0],
            lambda bank: np.nonzero(~bank.in_mask())[0],
            lambda bank: np.random.default_rng(5).permutation(len(bank)),
        ],
        ids=["mixed", "no_out_rows", "no_in_rows", "permuted"],
    )
    @pytest.mark.parametrize("snapshots_per_block", [None, 1, 2], ids=["default", "one", "uneven"])
    def test_stack_is_bit_identical_to_single_snapshots(self, monkeypatch, pick_rows, snapshots_per_block):
        snapshots, labels, domain, model = self.drift(pick_rows)
        if snapshots_per_block is not None:
            # one row short of a further snapshot: 7 snapshots split 2, 2, 2, 1
            monkeypatch.setattr(shiftsim, "STATS_BLOCK_ROWS", (snapshots_per_block + 1) * snapshots.shape[1] - 1)
        stack = shiftsim.shift_stats(snapshots, labels, domain, model, ZETA)
        nested = shiftsim.shift_stats(snapshots.reshape(7, 1, *snapshots.shape[1:]), labels, domain, model, ZETA)
        singles = [shiftsim.shift_stats(snapshot, labels, domain, model, ZETA) for snapshot in snapshots]
        for field in ("mean_norm_out", "mean_nearest_center_out", "mean_own_center_in", "mixed_fraction"):
            alone = [getattr(st, field) for st in singles]
            assert all(type(value) is float for value in alone)
            want = np.array(alone).view(np.int64)
            np.testing.assert_array_equal(np.asarray(getattr(stack, field)).view(np.int64), want)
            np.testing.assert_array_equal(np.asarray(getattr(nested, field)).view(np.int64), want[:, None])

    @pytest.mark.parametrize("kind", ["ice", "oe"])
    def test_matches_the_row_by_row_oracle(self, kind):
        # An ICE and an OE drift of a 40 + 40 bank; the stack and three lone
        # snapshots must give the brute force's nearest centers, own-center
        # distances, norms and mixed fractions.
        bank = default_bank(n_in=40, n_out=40)
        model = gda.fit_gda(bank)
        snapshots = shiftsim.run_shift_sim(shift_config(kind), bank, model, steps=8, lr=0.2, zeta=ZETA).snapshots
        want = np.array([shift_stats_oracle(s, bank.labels, bank.domain, model, ZETA) for s in snapshots])
        assert np.any((0.0 < want[:, 3]) & (want[:, 3] < 1.0))  # both sides of zeta are exercised
        stack = shiftsim.shift_stats(snapshots, bank.labels, bank.domain, model, ZETA)
        assert np.stack(astuple(stack), axis=1) == pytest.approx(want, rel=1e-12)
        for step in (0, 4, 8):
            single = shiftsim.shift_stats(snapshots[step], bank.labels, bank.domain, model, ZETA)
            assert astuple(single) == pytest.approx(tuple(want[step]), rel=1e-12)


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
        # One whitening per step in the head (its backward reuses the
        # forward's), plus one per statistics block: the 11 snapshots of 30
        # rows fit one block, or make 6 blocks of at most 2 snapshots.
        assert self.whiten_calls(monkeypatch, shift_config("ice")) == 10 + 1
        monkeypatch.setattr(shiftsim, "STATS_BLOCK_ROWS", 2 * 30 + 1)
        assert self.whiten_calls(monkeypatch, shift_config("ice")) == 10 + 6

    @pytest.mark.parametrize("head,one_step", [("auto", 1), ("gaussian", 2)])
    def test_head_kind_comes_from_the_config(self, monkeypatch, head, one_step):
        # energy resolves to the linear head, whose forward whitens nothing;
        # asked for the Gaussian head, the simulation freezes that one instead.
        # ``one_step`` counts a one-step simulation: the head's whitenings of
        # its step plus the one statistics block; each further step adds the
        # head's share only.
        config = shift_config("energy", head=head)
        assert self.whiten_calls(monkeypatch, config, steps=1) == one_step
        assert self.whiten_calls(monkeypatch, config) == 10 * (one_step - 1) + 1

    def test_statistics_run_once_through_the_module_attribute(self, monkeypatch):
        # perfbench times shiftsim.shift_stats by rebinding the module
        # attribute, so the simulation must look it up there, once.
        bank = default_bank(n_in=20, n_out=10)
        model = gda.fit_gda(bank)
        stats = shiftsim.shift_stats
        calls = []

        def counting(features, *args):
            calls.append(np.shape(features))
            return stats(features, *args)

        monkeypatch.setattr(shiftsim, "shift_stats", counting)
        shiftsim.run_shift_sim(shift_config("oe"), bank, model, steps=7, lr=0.05, zeta=ZETA)
        assert calls == [(8, 30, 2)]

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
    def test_rows_follow_labels_not_positions(self, kind, monkeypatch):
        # Rows shuffled within their branch are shuffled in every snapshot; a
        # bank with a row labelled >= 0 after an outlier is refused before any step.
        bank = default_bank(n_in=30, n_out=15)
        model = gda.fit_gda(bank)
        rng = np.random.default_rng(3)
        order = np.concatenate([rng.permutation(30), 30 + rng.permutation(15)])
        traj = shiftsim.run_shift_sim(shift_config(kind), bank, model, steps=10, lr=0.05, zeta=ZETA)
        permuted = shiftsim.run_shift_sim(shift_config(kind), bank.subset(order), model, steps=10, lr=0.05, zeta=ZETA)
        np.testing.assert_allclose(permuted.snapshots, traj.snapshots[:, order], rtol=0, atol=1e-12)

        def no_step(*args):
            raise AssertionError("descended an interleaved bank")

        monkeypatch.setattr(heads, "forward", no_step)
        interleaved = bank.subset(np.r_[30, 0:30, 31:45])
        with pytest.raises(ValueError, match="labelled >= 0 first"):
            shiftsim.run_shift_sim(shift_config(kind), interleaved, model, steps=10, lr=0.05, zeta=ZETA)

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

    @staticmethod
    def kicked(monkeypatch, kicks, bank=None):
        """A simulation under a stub criterion: at step t every row's class-0 dL/dscore is ``kicks.get(t, 0)``.

        The frozen head is the linear one, so a kick c moves each row by
        -c * w_hat[0]; 1e200 leaves the features finite but overflows their
        squared distances, and inf makes them non-finite.
        """
        bank = bank or default_bank(n_in=20, n_out=10)
        model = gda.fit_gda(default_bank(n_in=20, n_out=10))
        steps_seen = []

        def stub(criterion, scores, labels, weight):
            d_scores = np.zeros_like(scores)
            d_scores[:, 0] = kicks.get(len(steps_seen), 0.0)
            steps_seen.append(1)
            return criteria.LossReport(np.zeros(len(labels)), d_scores)

        monkeypatch.setattr(shiftsim, "row_losses", stub)
        return shiftsim.run_shift_sim(shift_config("oe"), bank, model, steps=6, lr=1.0, zeta=ZETA)

    def test_bank_overflow_is_a_config_error_before_any_step(self, monkeypatch):
        bank = default_bank(n_in=20, n_out=10)
        features = bank.features.copy()
        features[-1] = [1e200, 0.0]
        huge = gda.LabeledSet(features, bank.labels)
        # step 0 would also make every feature non-finite
        with pytest.raises(ConfigError, match="^shift bank statistics overflow the float range$"):
            self.kicked(monkeypatch, {0: math.inf}, bank=huge)

    @pytest.mark.parametrize(
        "kicks,step,what",
        [
            ({3: 1e200}, 3, "shift statistics"),
            ({4: math.inf}, 4, "feature state"),
            ({2: 1e200, 4: math.inf}, 2, "shift statistics"),
            ({3: np.r_[math.inf, np.full(29, 1e200)]}, 3, "feature state"),
        ],
        ids=["statistics", "features", "statistics_first", "same_step"],
    )
    def test_earliest_failure_is_raised(self, monkeypatch, kicks, step, what):
        # The earlier step wins; at the same step the features are checked first.
        with pytest.raises(NonFiniteState, match=f"^non-finite {what} at step {step}$") as raised:
            self.kicked(monkeypatch, kicks)
        assert raised.value.step == step


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
