import dataclasses
import json
import math

import numpy as np
import pytest

from oodlab import criteria, gda, linalg, trainer
from oodlab.errors import ConfigError, NonFiniteState
from oodlab.seeding import component_seed
from oracles import batch_gradients_oracle, density_at_radius, max_rel_error, outlier_take_oracle

ZETA = density_at_radius(2.5)


def subset(data, mask):
    return data.subset(mask)


def small_splits(seed=1234, n=600, n_hard=200):
    train = gda.sample_synthetic(3.0, ZETA, n, component_seed(seed, "train_data"))
    evald = gda.sample_synthetic(3.0, ZETA, n, component_seed(seed, "eval_data"))
    eval_out = gda.sample_cluster_family(
        gda.ring_centers(7.0, 4), 0.5, n_hard, component_seed(seed, "hard_out")
    )
    return (
        subset(train, train.in_mask()),
        subset(train, ~train.in_mask()),
        subset(evald, evald.in_mask()),
        eval_out,
    )


def quick_config(kind="ice", **overrides):
    defaults = dict(
        criterion=criteria.CriterionConfig(kind),
        schedule="cosine",
        initial_lr=0.01,
        epochs=3,
        batch_in=64,
        batch_out=64,
        seed=77,
        hidden=(16, 16),
        feature_dim=4,
    )
    defaults.update(overrides)
    return trainer.TrainConfig(**defaults)


class TestLrSchedule:
    def test_cosine_starts_at_initial_value(self):
        assert trainer.lr_at("cosine", 0.01, 0, 100) == pytest.approx(0.01)

    def test_cosine_endpoint_near_zero(self):
        total = 400
        final = trainer.lr_at("cosine", 0.01, total - 1, total)
        assert final == pytest.approx(0.01 * 0.5 * (1 + math.cos(math.pi * (total - 1) / total)))
        assert final < 1e-5

    def test_stairwise_milestones(self):
        total = 100
        assert trainer.lr_at("stairwise", 0.1, 10, total) == pytest.approx(0.1)
        assert trainer.lr_at("stairwise", 0.1, 60, total) == pytest.approx(0.01)
        assert trainer.lr_at("stairwise", 0.1, 80, total) == pytest.approx(0.001)

    def test_bounds(self):
        with pytest.raises(ValueError):
            trainer.lr_at("cosine", 0.1, 100, 100)


class TestConfigResolution:
    def test_auto_head(self):
        assert trainer.resolve_head_kind("auto", criteria.CriterionConfig("ice")) == "gaussian"
        assert trainer.resolve_head_kind("auto", criteria.CriterionConfig("oe")) == "linear"

    def test_ice_on_linear_rejected(self):
        with pytest.raises(ValueError):
            quick_config("ice", head="linear")

    def test_ice_conf_needs_gaussian(self):
        with pytest.raises(ConfigError, match="ice_conf needs the gaussian head"):
            trainer.resolve_scorer("ice_conf", "linear", criteria.CriterionConfig("oe"))

    def test_auto_scorer(self):
        assert trainer.resolve_scorer("auto", "gaussian", criteria.CriterionConfig("ice")) == "ice_conf"
        assert trainer.resolve_scorer("auto", "linear", criteria.CriterionConfig("plain")) == "msp"


class TestDeterminism:
    def test_identical_runs(self):
        data = small_splits()
        cfg = quick_config("ice", epochs=2)
        model_a, logs_a = trainer.train(cfg, *data)
        model_b, logs_b = trainer.train(cfg, *data)
        np.testing.assert_array_equal(model_a.flat, model_b.flat)
        assert [l.to_json_dict() for l in logs_a] == [l.to_json_dict() for l in logs_b]

    def test_seed_changes_run(self):
        data = small_splits()
        _, logs_a = trainer.train(quick_config("oe", epochs=1), *data)
        _, logs_b = trainer.train(quick_config("oe", epochs=1, seed=78), *data)
        assert logs_a[-1].loss_in != logs_b[-1].loss_in


class TestPlainParity:
    # bce is excluded: its in-distribution branch is the sigmoid BCE loss
    # itself, so a zero outlier weight leaves BCE training, not SCE training.
    @pytest.mark.parametrize(
        "kind,head", [("oe", "linear"), ("energy", "linear"), ("ice", "gaussian"), ("ice_minus", "gaussian")]
    )
    def test_zero_weight_equals_plain(self, kind, head):
        data = small_splits()
        zeroed = quick_config(kind, epochs=2, gamma=0.0)
        zeroed = dataclasses.replace(zeroed, criterion=criteria.CriterionConfig(kind, lam=0.0))
        plain = quick_config("plain", epochs=2, head=head)
        model_a, logs_a = trainer.train(zeroed, *data)
        model_b, logs_b = trainer.train(plain, *data)
        np.testing.assert_array_equal(model_a.flat, model_b.flat)
        for la, lb in zip(logs_a, logs_b):
            assert la.loss_in == lb.loss_in
            assert la.loss_out == lb.loss_out == 0.0
            assert la.acc_in == lb.acc_in


class TestEvaluate:
    def test_perfect_detector(self):
        # a rigged model is unnecessary: run evaluate on a trained model and
        # check the report's range and counts
        data = small_splits()
        cfg = quick_config("ice", epochs=4, seed=5)
        model, _ = trainer.train(cfg, *data)
        report = trainer.evaluate(model, data[2], data[3], "ice_conf")
        assert 0.0 <= report.auroc <= 1.0
        assert report.n_in == len(data[2]) and report.n_out == len(data[3])

    def test_chance_level_on_identical_distributions(self):
        # untrained model, both "domains" drawn from the same sampler
        cfg = quick_config("plain", seed=3)
        base = gda.sample_synthetic(3.0, ZETA, 2400, seed=42)
        in_rows = subset(base, base.in_mask())
        half = len(in_rows) // 2
        eval_in = gda.LabeledSet(in_rows.features[:half], in_rows.labels[:half])
        eval_out = gda.LabeledSet(
            in_rows.features[half : 2 * half],
            np.full(half, gda.NO_LABEL),
        )
        model = trainer.build_model(cfg, eval_in)
        report = trainer.evaluate(model, eval_in, eval_out, "msp")
        assert abs(report.auroc - 0.5) <= 0.05

    def test_ice_conf_on_linear_rejected(self):
        data = small_splits()
        model, _ = trainer.train(quick_config("plain", epochs=1), *data)
        with pytest.raises(ConfigError, match="ice_conf needs the gaussian head"):
            trainer.evaluate(model, data[2], data[3], "ice_conf")

    def test_ice_confidences_in_unit_interval(self):
        data = small_splits()
        model, _ = trainer.train(quick_config("ice", epochs=2), *data)
        conf = trainer.score_samples(model, np.vstack([data[2].features, data[3].features]), "ice_conf")
        assert np.all(conf >= 0.0) and np.all(conf <= 1.0)

    def test_scorers_shapes(self):
        data = small_splits()
        model, _ = trainer.train(quick_config("oe", epochs=1), *data)
        for scorer in ("msp", "max_logit", "energy_score"):
            values = trainer.score_samples(model, data[2].features[:7], scorer)
            assert values.shape == (7,)
            assert np.all(np.isfinite(values))


class TestNonFiniteState:
    def test_energy_blowup_aborts_with_step(self):
        # the unbounded energy objective at a large outlier weight
        data = small_splits()
        cfg = quick_config("energy", schedule="stairwise", initial_lr=0.1, epochs=10, gamma=9.0)
        with pytest.raises(NonFiniteState, match="non-finite loss at step") as excinfo:
            trainer.train(cfg, *data)
        assert excinfo.value.step >= 0


class TestGradientAudit:
    @pytest.mark.parametrize("kind", criteria.KINDS)
    def test_assembled_gradient_matches_fd(self, kind):
        cfg = quick_config(kind, hidden=(6, 5), feature_dim=4, seed=7)
        for trial in range(3):
            rng = np.random.default_rng(100 * trial + 1)
            in_x = 2.0 * rng.standard_normal((5, 3))
            in_y = rng.integers(0, 2, size=5)
            out_x = 2.0 * rng.standard_normal((4, 3))
            data = gda.LabeledSet(in_x, in_y)
            model = trainer.build_model(cfg, data)
            weight = cfg.outlier_weight
            x = np.vstack([in_x, out_x])
            labels = np.concatenate([in_y, np.full(4, gda.NO_LABEL)])
            args = (model, cfg.criterion, weight, x, labels)
            _, _, grad = trainer.batch_gradients(*args)
            assert grad.shape == model.flat.shape
            analytic, numeric = [], []
            for i in rng.choice(model.flat.size, size=50, replace=False):
                orig = model.flat[i]
                model.flat[i] = orig + 1e-5
                up = sum(trainer.batch_gradients(*args)[:2])  # loss_in + loss_out
                model.flat[i] = orig - 1e-5
                down = sum(trainer.batch_gradients(*args)[:2])
                model.flat[i] = orig
                analytic.append(grad[i])
                numeric.append((up - down) / 2e-5)
            assert max_rel_error(np.array(analytic), np.array(numeric)) < 1e-4


def branch_interleaved(n_in, n_out, rng):
    """A row order that interleaves the first n_in rows with the rest, each branch in its own order."""
    slots = rng.permutation(n_in + n_out)
    order = np.empty(n_in + n_out, dtype=int)
    order[np.sort(slots[:n_in])] = np.arange(n_in)
    order[np.sort(slots[n_in:])] = n_in + np.arange(n_out)
    return order


def within_branches(n_in, n_out, rng):
    """A row order that shuffles the first n_in rows among themselves and the rest among themselves."""
    return np.concatenate([rng.permutation(n_in), n_in + rng.permutation(n_out)])


class TestRowLosses:
    """Each row's label picks its branch; the rows labelled >= 0 must lead the batch."""

    @staticmethod
    def scores_for(kind, rng, n):
        scores = 3.0 * rng.standard_normal((n, 3))
        return -np.abs(scores) if criteria.CriterionConfig(kind).needs_gaussian_head() else scores

    @pytest.mark.parametrize("kind", criteria.KINDS)
    @pytest.mark.parametrize("n_in,n_out", [(7, 5), (6, 0), (0, 4)])
    def test_matches_each_branch_bit_for_bit(self, kind, n_in, n_out):
        rng = np.random.default_rng(n_in + 10 * n_out)
        cfg = criteria.CriterionConfig(kind)
        in_scores, out_scores = self.scores_for(kind, rng, n_in), self.scores_for(kind, rng, n_out)
        in_y = rng.integers(0, 3, size=n_in)
        scores = np.concatenate([in_scores, out_scores])
        labels = np.concatenate([in_y, np.full(n_out, gda.NO_LABEL)])
        rep = trainer.row_losses(cfg, scores, labels, 0.7)
        in_rep = criteria.id_loss(cfg, in_scores, in_y, 0.7)
        out_rep = criteria.ood_loss(cfg, out_scores, 0.7)
        np.testing.assert_array_equal(rep.value[:n_in], in_rep.value)
        np.testing.assert_array_equal(rep.value[n_in:], out_rep.value)
        np.testing.assert_array_equal(rep.d_scores[:n_in], in_rep.d_scores)
        np.testing.assert_array_equal(rep.d_scores[n_in:], out_rep.d_scores)

    @pytest.mark.parametrize("kind", criteria.KINDS)
    def test_batch_gradients_follow_labels_not_positions(self, kind):
        # Rows moved within their branch move nothing but the summation order;
        # a row labelled >= 0 after an outlier is refused, not given the outlier branch.
        cfg = quick_config(kind, hidden=(6, 5), feature_dim=4, seed=7)
        rng = np.random.default_rng(5)
        x = 2.0 * rng.standard_normal((9, 3))
        labels = np.concatenate([rng.integers(0, 2, size=5), np.full(4, gda.NO_LABEL)])
        model = trainer.build_model(cfg, gda.LabeledSet(x[:5], labels[:5]))
        args = (model, cfg.criterion, cfg.outlier_weight)
        loss_in, loss_out, grad = trainer.batch_gradients(*args, x, labels)
        order = within_branches(5, 4, rng)
        got_in, got_out, got = trainer.batch_gradients(*args, x[order], labels[order])
        np.testing.assert_allclose([got_in, got_out], [loss_in, loss_out], rtol=1e-14, atol=0)
        np.testing.assert_allclose(got, grad, rtol=0, atol=1e-12)
        order = branch_interleaved(5, 4, rng)
        with pytest.raises(ValueError, match="labelled >= 0 first"):
            trainer.batch_gradients(*args, x[order], labels[order])
        with pytest.raises(ValueError, match="labelled >= 0 first"):
            trainer.row_losses(cfg.criterion, np.zeros((9, 2)), labels[order], cfg.outlier_weight)

    def test_train_rejects_a_label_that_contradicts_its_set(self):
        # train pools both sets and lets each row's label pick its branch.
        train_in, train_out, eval_in, eval_out = small_splits()
        unlabelled_in = gda.LabeledSet(train_in.features, np.where(np.arange(len(train_in)) == 3, -1, train_in.labels))
        labelled_out = gda.LabeledSet(train_out.features, np.zeros(len(train_out), dtype=int))
        for sets in ((unlabelled_in, train_out), (train_in, labelled_out)):
            with pytest.raises(ConfigError, match="class label"):
                trainer.train(quick_config("oe", epochs=1), *sets, eval_in, eval_out)


def bits(value):
    """The int64 view of a float or float array, so equality compares every bit, signs of zero included."""
    return np.asarray(value, dtype=float).view(np.int64)


def numpy_max(values):
    return values.max(axis=-1)


# Every criterion kind on each head it can train: the linear head rejects the ICE kinds.
HEAD_CASES = [
    (kind, head)
    for kind in criteria.KINDS
    for head in ("linear", "gaussian")
    if head == "gaussian" or not criteria.CriterionConfig(kind).needs_gaussian_head()
]


class TestStepMatchesOracle:
    """The in-first step equals the boolean-mask, allocate-and-concatenate step it replaced, bit for bit."""

    @pytest.mark.parametrize("kind,head", HEAD_CASES)
    @pytest.mark.parametrize("n_in,n_out", [(7, 5), (6, 0), (0, 4)])
    def test_batch_gradients_bit_for_bit(self, kind, head, n_in, n_out, monkeypatch):
        cfg = quick_config(kind, head=head, hidden=(6, 5), feature_dim=4, seed=11)
        rng = np.random.default_rng(3 + n_in + 10 * n_out)
        build = gda.LabeledSet(2.0 * rng.standard_normal((6, 3)), np.array([0, 1, 2, 0, 1, 2]))
        model = trainer.build_model(cfg, build)
        x = 2.0 * rng.standard_normal((n_in + n_out, 3))
        labels = np.concatenate([rng.integers(0, 3, size=n_in), np.full(n_out, gda.NO_LABEL)])
        args = (model, cfg.criterion, cfg.outlier_weight, x, labels)
        loss_in, loss_out, grad = trainer.batch_gradients(*args)
        monkeypatch.setattr(linalg, "row_max", numpy_max)
        want_in, want_out, want = batch_gradients_oracle(*args)
        assert bits([loss_in, loss_out]).tolist() == bits([want_in, want_out]).tolist()
        np.testing.assert_array_equal(bits(grad), bits(want))

    def test_fresh_vector_per_call(self):
        cfg = quick_config("oe", hidden=(6, 5), feature_dim=4, seed=11)
        rng = np.random.default_rng(8)
        x = 2.0 * rng.standard_normal((7, 3))
        labels = np.array([0, 1, 1, 0, gda.NO_LABEL, gda.NO_LABEL, gda.NO_LABEL])
        model = trainer.build_model(cfg, gda.LabeledSet(x[:4], labels[:4]))
        args = (model, cfg.criterion, cfg.outlier_weight)
        first = trainer.batch_gradients(*args, x, labels)[2]
        kept = first.copy()
        second = trainer.batch_gradients(*args, 2.0 * x, labels)[2]
        assert second is not first and not np.shares_memory(first, model.flat)
        np.testing.assert_array_equal(first, kept)

    @pytest.mark.parametrize(
        "kind,head", [("ice", "gaussian"), ("oe", "linear"), ("energy", "gaussian"), ("plain", "linear")]
    )
    def test_training_run_matches_oracle_run(self, kind, head, monkeypatch):
        splits = small_splits(n=400, n_hard=120)
        cfg = quick_config(kind, head=head, epochs=2)
        model, logs = trainer.train(cfg, *splits)
        monkeypatch.setattr(trainer, "batch_gradients", batch_gradients_oracle)
        monkeypatch.setattr(linalg, "row_max", numpy_max)
        want_model, want_logs = trainer.train(cfg, *splits)
        np.testing.assert_array_equal(bits(model.flat), bits(want_model.flat))
        assert [log.to_json_dict() for log in logs] == [log.to_json_dict() for log in want_logs]


class TestHistBins:
    """At most one histogram bin per eval score, checked before the first step."""

    @staticmethod
    def reject_before_any_step(monkeypatch, bins):
        def no_step(*args):
            raise AssertionError("trained a step before rejecting hist_bins")

        splits = small_splits(n=200, n_hard=50)
        n_eval = len(splits[2]) + len(splits[3])
        monkeypatch.setattr(trainer, "batch_gradients", no_step)
        with pytest.raises(ConfigError, match=f"hist_bins={bins(n_eval)} exceeds the {n_eval} eval scores"):
            trainer.train(quick_config("oe", epochs=1, hist_bins=bins(n_eval)), *splits)

    @pytest.mark.parametrize("bins", [10**12, 2**62])
    def test_unallocatable_count_rejected(self, bins, monkeypatch):
        self.reject_before_any_step(monkeypatch, lambda n_eval: bins)

    def test_boundary_is_one_bin_per_eval_score(self, monkeypatch):
        splits = small_splits(n=200, n_hard=50)
        n_eval = len(splits[2]) + len(splits[3])
        _, logs = trainer.train(quick_config("oe", epochs=1, hist_bins=n_eval), *splits)
        assert len(logs[0].hist_counts) == n_eval and logs[0].hist_counts.sum() == n_eval
        self.reject_before_any_step(monkeypatch, lambda n_eval: n_eval + 1)


class TestEpochLog:
    def test_json_keys_and_histogram_conservation(self):
        data = small_splits()
        model, logs = trainer.train(quick_config("ice", epochs=2), *data)
        row = logs[-1].to_json_dict()
        assert list(row)[:9] == [
            "epoch",
            "loss_in",
            "loss_out",
            "acc_in",
            "auroc",
            "aupr",
            "fpr95",
            "hist_bins",
            "hist_counts",
        ]
        assert sum(row["hist_counts"]) == len(data[2]) + len(data[3])
        assert len(row["hist_bins"]) == len(row["hist_counts"]) + 1

    def test_jsonl_round_trip(self, tmp_path):
        data = small_splits()
        _, logs = trainer.train(quick_config("oe", epochs=2), *data)
        path = tmp_path / "epochs.jsonl"
        trainer.write_epoch_logs(logs, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["epoch"] == 0 and parsed[1]["epoch"] == 1



class TestEpochEval:
    @pytest.mark.parametrize("kind,head", [("oe", "linear"), ("ice", "gaussian")])
    def test_forwards_each_eval_set_once(self, kind, head, monkeypatch):
        data = small_splits()
        train_in, _, eval_in, eval_out = data
        cfg = quick_config(kind, epochs=2)
        rows = {"forward_batch": [], "forward_features": []}

        def counting(name):
            forward = getattr(trainer.bb, name)

            def counted(params, x):
                rows[name].append(x.shape[0])
                return forward(params, x)

            return counted

        for name in rows:
            monkeypatch.setattr(trainer.bb, name, counting(name))
        model, _ = trainer.train(cfg, *data)
        assert model.head_kind == head
        steps_per_epoch = math.ceil(len(train_in) / cfg.batch_in)
        train_rows = cfg.epochs * (len(train_in) + steps_per_epoch * cfg.batch_out)
        eval_rows = cfg.epochs * (len(eval_in) + len(eval_out))
        init_rows = len(train_in)  # both heads check the initial class feature means
        # Only the SGD steps, which run a backward, keep the forward cache.
        assert sum(rows["forward_batch"]) == train_rows
        assert sum(rows["forward_features"]) == eval_rows + init_rows

    @pytest.mark.parametrize(
        "kind,scorer,expected",
        [
            ("ice", "ice_conf", {"ice_conf": 1}),
            ("oe", "max_logit", {"max_logit": 1}),
            ("oe", "msp", {"max_logit": 1, "msp": 1}),
        ],
    )
    def test_each_scorer_runs_once_per_eval_set(self, kind, scorer, expected, monkeypatch):
        # Both eval sets are scored in one call per scorer per epoch, and the
        # report scorer's scores are reused when it is also the histogram's.
        calls = []
        for name, func in trainer.SCORERS.items():
            monkeypatch.setitem(trainer.SCORERS, name, lambda scores, name=name, func=func: calls.append(name) or func(scores))
        cfg = quick_config(kind, epochs=2, scorer=scorer)
        trainer.train(cfg, *small_splits())
        assert {name: calls.count(name) for name in set(calls)} == {name: cfg.epochs * n for name, n in expected.items()}

    def test_whitens_once_per_step(self, monkeypatch):
        # One whitening per SGD step (the head backward reuses the forward's)
        # plus one per epoch for the eval forward over both eval sets.
        data = small_splits()
        cfg = quick_config("ice", epochs=2)
        whiten = linalg.whiten
        calls = []

        def counting(*args):
            calls.append(1)
            return whiten(*args)

        monkeypatch.setattr(linalg, "whiten", counting)
        model, _ = trainer.train(cfg, *data)
        assert model.head_kind == "gaussian"
        steps = cfg.epochs * math.ceil(len(data[0]) / cfg.batch_in)
        assert len(calls) == steps + cfg.epochs

    @pytest.mark.parametrize("kind,scorer", [("plain", "msp"), ("ice", "ice_conf")])
    def test_final_log_matches_evaluate(self, kind, scorer):
        data = small_splits()
        eval_in, eval_out = data[2], data[3]
        cfg = quick_config(kind, epochs=2)
        model, logs = trainer.train(cfg, *data)
        assert trainer.resolve_scorer(cfg.scorer, model.head_kind, cfg.criterion) == scorer
        report = trainer.evaluate(model, eval_in, eval_out, scorer, aupr_positive=cfg.aupr_positive)
        assert logs[-1].report == report  # dataclass equality: every field compared with ==
        preds = trainer.scores_batch(model, eval_in.features).argmax(axis=1)
        assert logs[-1].acc_in == float(np.mean(preds == eval_in.labels))

class TestParamBuffer:
    @staticmethod
    def assert_views_of_flat(model):
        items = trainer.param_items(model)
        assert all(np.shares_memory(arr, model.flat) for _, arr in items)
        np.testing.assert_array_equal(np.concatenate([arr.ravel() for _, arr in items]), model.flat)
        # Distinct values pin every view to its own offset.
        model.flat[:] = np.arange(model.flat.size)
        np.testing.assert_array_equal(np.concatenate([arr.ravel() for _, arr in items]), model.flat)

    @pytest.mark.parametrize("kind", ["plain", "ice"])
    def test_params_are_views_of_flat(self, kind, tmp_path):
        data = small_splits()
        cfg = quick_config(kind, epochs=1)
        self.assert_views_of_flat(trainer.build_model(cfg, data[0]))
        model, _ = trainer.train(cfg, *data)
        path = tmp_path / "ckpt.txt"
        trainer.save_checkpoint(model, path)
        self.assert_views_of_flat(model)
        self.assert_views_of_flat(trainer.load_checkpoint(path))


class TestCheckpoint:
    def test_round_trip_scores(self, tmp_path):
        data = small_splits()
        for kind in ("plain", "ice"):
            model, _ = trainer.train(quick_config(kind, epochs=1), *data)
            path = tmp_path / f"{kind}.txt"
            trainer.save_checkpoint(model, path)
            loaded = trainer.load_checkpoint(path)
            x = data[2].features[:9]
            np.testing.assert_array_equal(trainer.scores_batch(model, x), trainer.scores_batch(loaded, x))

    def test_resave_is_byte_identical(self, tmp_path):
        data = small_splits()
        model, _ = trainer.train(quick_config("ice", epochs=1), *data)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        trainer.save_checkpoint(model, p1)
        trainer.save_checkpoint(trainer.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("schema=other\n")
        with pytest.raises(ValueError):
            trainer.load_checkpoint(path)


class TestOutlierCycler:
    def test_batches_larger_than_pool(self):
        cycler = trainer._OutlierCycler(5, np.random.default_rng(0))
        picked = cycler.take(12)
        assert picked.shape == (12,)
        assert set(picked) <= set(range(5))
        # each full cycle is a permutation: the first 5 picks cover the pool
        assert set(picked[:5]) == set(range(5))

    @pytest.mark.parametrize("n", [1, 81, 300])
    @pytest.mark.parametrize("count", [1, 256, 1000])
    def test_matches_list_oracle(self, n, count):
        counts = [count, 1, count, count + 7, count]
        cycler = trainer._OutlierCycler(n, np.random.default_rng(5))
        oracle_rng = np.random.default_rng(5)
        expected = outlier_take_oracle(n, oracle_rng, counts)
        for want, c in zip(expected, counts):
            got = cycler.take(c)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        # the same permutation draws were made, so both streams stand at the same state
        assert cycler.rng.bit_generator.state == oracle_rng.bit_generator.state
