import dataclasses
import json
import math

import numpy as np
import pytest

from oodlab import criteria, gda, trainer
from oodlab.seeding import component_seed
from oracles import max_rel_error

ZETA = gda.density_at_radius(2.5)


def subset(data, mask):
    return gda.LabeledSet(data.features[mask], data.labels[mask], data.domain[mask])


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
        with pytest.raises(trainer.IncompatibleScorer):
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
        for (name_a, arr_a), (name_b, arr_b) in zip(trainer.param_items(model_a), trainer.param_items(model_b)):
            assert name_a == name_b
            np.testing.assert_array_equal(arr_a, arr_b)
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
        for (_, arr_a), (_, arr_b) in zip(trainer.param_items(model_a), trainer.param_items(model_b)):
            np.testing.assert_array_equal(arr_a, arr_b)
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
        eval_in = gda.LabeledSet(in_rows.features[:half], in_rows.labels[:half], in_rows.domain[:half])
        eval_out = gda.LabeledSet(
            in_rows.features[half : 2 * half],
            np.full(half, gda.NO_LABEL),
            np.array([gda.DOMAIN_OUT] * half),
        )
        model = trainer.build_model(cfg, eval_in)
        report = trainer.evaluate(model, eval_in, eval_out, "msp")
        assert abs(report.auroc - 0.5) <= 0.05

    def test_ice_conf_on_linear_rejected(self):
        data = small_splits()
        model, _ = trainer.train(quick_config("plain", epochs=1), *data)
        with pytest.raises(trainer.IncompatibleScorer):
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


class TestNonFiniteLoss:
    def test_energy_blowup_aborts_with_step(self):
        # the unbounded energy objective at a large outlier weight
        data = small_splits()
        cfg = quick_config("energy", schedule="stairwise", initial_lr=0.1, epochs=10, gamma=9.0)
        with pytest.raises(trainer.NonFiniteLoss) as excinfo:
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
            data = gda.LabeledSet(in_x, in_y, np.array(["in"] * 5))
            model = trainer.build_model(cfg, data)
            weight = cfg.outlier_weight
            args = (model, cfg.criterion, weight, in_x, in_y, out_x)
            _, _, grads = trainer.batch_gradients(*args)
            analytic, numeric = [], []
            flat = [(name, arr, i) for name, arr in trainer.param_items(model) for i in range(arr.size)]
            for pick in rng.choice(len(flat), size=50, replace=False):
                name, arr, i = flat[pick]
                orig = arr.flat[i]
                arr.flat[i] = orig + 1e-5
                up = sum(trainer.batch_gradients(*args)[:2])  # loss_in + loss_out
                arr.flat[i] = orig - 1e-5
                down = sum(trainer.batch_gradients(*args)[:2])
                arr.flat[i] = orig
                analytic.append(grads[name].flat[i])
                numeric.append((up - down) / 2e-5)
            assert max_rel_error(np.array(analytic), np.array(numeric)) < 1e-4


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
        forward = trainer.bb.forward_batch
        rows = []

        def counting(params, x):
            rows.append(x.shape[0])
            return forward(params, x)

        monkeypatch.setattr(trainer.bb, "forward_batch", counting)
        model, _ = trainer.train(cfg, *data)
        assert model.head_kind == head
        steps_per_epoch = math.ceil(len(train_in) / cfg.batch_in)
        train_rows = cfg.epochs * (len(train_in) + steps_per_epoch * cfg.batch_out)
        eval_rows = cfg.epochs * (len(eval_in) + len(eval_out))
        init_rows = len(train_in) if head == "gaussian" else 0  # Gaussian means start at class feature means
        assert sum(rows) == train_rows + eval_rows + init_rows

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
