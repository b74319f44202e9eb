"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Tolerances are pinned here and nowhere else.
"""

import csv
import json
import math

import numpy as np
import pytest

from oodlab import backbone, cli, criteria, gda, heads, metrics, trainer
from oodlab.config import DEFAULT_ZETA, load_config
from oodlab.errors import NonFiniteState
from oodlab.seeding import component_seed
from oodlab.shiftsim import make_shift_bank, run_shift_sim
from oracles import (
    bayes_posterior,
    central_difference,
    class_likelihood,
    head_row,
    head_row_backward,
    max_rel_error,
    mlp_row,
    mlp_row_backward,
    pairwise_auroc,
    posterior,
    pre_activations,
    sweep_aupr,
    sweep_fpr_at_tpr,
    tied_cov,
)

GRAD_TOL = 1e-4
FD_STEP = 1e-5
N_GRAD_CONFIGS = 100
N_SIGN_DRAWS = 10_000
METRIC_TOL = 1e-12


def check(number, description, condition):
    status = "PASS" if condition else "FAIL"
    print(f"[ACCEPTANCE {number}] {status}: {description}", flush=True)
    assert condition, f"acceptance criterion {number} failed: {description}"


def subset(data, mask):
    return data.subset(mask)


def desk_splits(seed=1234, n=2000, n_hard=1000):
    train = gda.sample_synthetic(3.0, DEFAULT_ZETA, n, component_seed(seed, "train_data"))
    evald = gda.sample_synthetic(3.0, DEFAULT_ZETA, n, component_seed(seed, "eval_data"))
    eval_out = gda.sample_cluster_family(
        gda.ring_centers(7.0, 4), 0.5, n_hard, component_seed(seed, "hard_out")
    )
    return (
        subset(train, train.in_mask()),
        subset(train, ~train.in_mask()),
        subset(evald, evald.in_mask()),
        eval_out,
    )


@pytest.fixture(scope="module")
def desk_runs():
    """The fixed ICE and plain runs shared by criteria 7 and 9."""
    data = desk_splits()
    ice_cfg = trainer.TrainConfig(
        criterion=criteria.CriterionConfig("ice"),
        schedule="cosine",
        initial_lr=0.01,
        epochs=20,
        batch_in=128,
        batch_out=256,
        momentum=0.9,
        seed=1234,
    )
    plain_cfg = trainer.TrainConfig(
        criterion=criteria.CriterionConfig("plain"),
        schedule="cosine",
        initial_lr=0.01,
        epochs=20,
        batch_in=128,
        batch_out=256,
        momentum=0.9,
        seed=1234,
    )
    ice_model, ice_logs = trainer.train(ice_cfg, *data)
    plain_model, plain_logs = trainer.train(plain_cfg, *data)
    return {
        "data": data,
        "ice": (ice_model, ice_logs),
        "plain": (plain_model, plain_logs),
    }


def _margin_h(rng, k):
    """Non-positive scores with a clear argmax margin and no clamp exposure."""
    while True:
        h = -rng.uniform(0.05, 8.0, size=k)
        top = np.sort(h)[::-1]
        if k == 1 or top[0] - top[1] > 1e-3:
            return h


ENERGY = criteria.CriterionConfig("energy")
ICE = criteria.CriterionConfig("ice")


def objective(config, in_scores, y, out_scores, lam):
    """Both branches of ``config`` summed: sce plus lam times the criterion's outlier terms."""
    return (
        criteria.id_loss(config, in_scores, y, weight=lam).value
        + criteria.ood_loss(config, out_scores, weight=lam).value
    )


class TestCriterion1GradientAudit:
    def test_criteria_gradients(self):
        rng = np.random.default_rng(20260801)
        worst = 0.0
        for _ in range(N_GRAD_CONFIGS):
            k = int(rng.integers(2, 6))
            y = int(rng.integers(k))
            scores = 4.0 * rng.standard_normal(k)
            out_scores = 4.0 * rng.standard_normal(k)
            h_in = _margin_h(rng, k)
            h_out = _margin_h(rng, k)
            lam = float(rng.uniform(0.05, 2.0))
            targets = (rng.random(k) > 0.5).astype(float)

            cases = [
                (criteria.sce(scores, y).d_scores, lambda s: criteria.sce(s, y).value, scores),
                (criteria.oe_uniform(scores).d_scores, lambda s: criteria.oe_uniform(s).value, scores),
                (criteria.energy(scores).d_scores, lambda s: criteria.energy(s).value, scores),
                (
                    criteria.id_loss(ENERGY, scores, y, weight=lam).d_scores,
                    lambda s: objective(ENERGY, s, y, out_scores, lam),
                    scores,
                ),
                (
                    criteria.ood_loss(ENERGY, out_scores, weight=lam).d_scores,
                    lambda s: objective(ENERGY, scores, y, s, lam),
                    out_scores,
                ),
                (criteria.ice_id(h_in, y).d_scores, lambda s: criteria.ice_id(s, y).value, h_in),
                (criteria.ice_ood(h_out).d_scores, lambda s: criteria.ice_ood(s).value, h_out),
                (
                    criteria.id_loss(ICE, h_in, y, weight=lam).d_scores,
                    lambda s: objective(ICE, s, y, h_out, lam),
                    h_in,
                ),
                (
                    criteria.ood_loss(ICE, h_out, weight=lam).d_scores,
                    lambda s: objective(ICE, h_in, y, s, lam),
                    h_out,
                ),
                (
                    criteria.bce_outlier(scores, targets).d_scores,
                    lambda s: criteria.bce_outlier(s, targets).value,
                    scores,
                ),
            ]
            for analytic, fn, x in cases:
                worst = max(worst, max_rel_error(analytic, central_difference(fn, x, FD_STEP)))
        check(1, f"criterion losses match finite differences (worst {worst:.2e})", worst < GRAD_TOL)

    def test_head_gradients(self):
        rng = np.random.default_rng(20260802)
        worst = 0.0
        for _ in range(N_GRAD_CONFIGS):
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(2, 6))
            z = rng.standard_normal(dim)
            upstream = rng.standard_normal(k)

            lin = heads.LinearHeadParams(weight=rng.standard_normal((k, dim)), bias=rng.standard_normal(k))
            lin_d_z, lin_grads = head_row_backward(lin, z, upstream)
            worst = max(
                worst,
                max_rel_error(
                    lin_d_z,
                    central_difference(lambda v: float(upstream @ head_row(lin, v)), z, FD_STEP),
                ),
                max_rel_error(
                    lin_grads["weight"].ravel(),
                    central_difference(
                        lambda v: float(
                            upstream
                            @ head_row(
                                heads.LinearHeadParams(weight=v.reshape(k, dim), bias=lin.bias), z
                            )
                        ),
                        lin.weight.ravel(),
                        FD_STEP,
                    ),
                ),
            )

            gauss = heads.GaussianHeadParams(
                means=rng.standard_normal((k, dim)), tri_raw=0.3 * rng.standard_normal((dim, dim))
            )
            g_d_z, g_grads = head_row_backward(gauss, z, upstream)
            worst = max(
                worst,
                max_rel_error(
                    g_d_z,
                    central_difference(lambda v: float(upstream @ head_row(gauss, v)), z, FD_STEP),
                ),
                max_rel_error(
                    g_grads["means"].ravel(),
                    central_difference(
                        lambda v: float(
                            upstream
                            @ head_row(
                                heads.GaussianHeadParams(means=v.reshape(k, dim), tri_raw=gauss.tri_raw), z
                            )
                        ),
                        gauss.means.ravel(),
                        FD_STEP,
                    ),
                ),
                max_rel_error(
                    g_grads["tri_raw"],
                    np.tril(
                        central_difference(
                            lambda v: float(
                                upstream
                                @ head_row(
                                    heads.GaussianHeadParams(means=gauss.means, tri_raw=v.reshape(dim, dim)), z
                                )
                            ),
                            gauss.tri_raw.ravel(),
                            FD_STEP,
                        ).reshape(dim, dim)
                    ),
                ),
            )
        check(1, f"both heads match finite differences (worst {worst:.2e})", worst < GRAD_TOL)

    def test_mlp_gradients(self):
        worst = 0.0
        for config_idx in range(N_GRAD_CONFIGS):
            rng = np.random.default_rng(20260803 + config_idx)
            widths = [int(rng.integers(2, 5)) for _ in range(4)]
            # redraw until every pre-activation clears the finite-difference
            # step by a wide margin; the subgradient at a ReLU kink is not a
            # derivative, so configurations there are not auditable by FD
            while True:
                net = backbone.init_mlp(widths, rng)
                x = rng.standard_normal(widths[0])
                _, cache = mlp_row(net, x)
                pre_margin = min(
                    float(np.min(np.abs(pre))) for idx, pre in enumerate(pre_activations(net, cache))
                    if idx < len(net.layers) - 1
                )
                if pre_margin > 1e-3:
                    break
            upstream = rng.standard_normal(widths[-1])
            grads, d_x = mlp_row_backward(net, cache, upstream)

            worst = max(
                worst,
                max_rel_error(
                    d_x,
                    central_difference(
                        lambda v: float(upstream @ mlp_row(net, v)[0]), x, FD_STEP
                    ),
                ),
            )
            analytic = np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in grads])
            flat0 = np.concatenate([np.concatenate([l.weight.ravel(), l.bias]) for l in net.layers])

            def loss_of(flat):
                offset = 0
                for layer in net.layers:
                    size = layer.weight.size
                    layer.weight[...] = flat[offset : offset + size].reshape(layer.weight.shape)
                    offset += size
                    layer.bias[...] = flat[offset : offset + layer.bias.size]
                    offset += layer.bias.size
                value = float(upstream @ mlp_row(net, x)[0])
                return value

            fd = central_difference(loss_of, flat0, FD_STEP)
            loss_of(flat0)  # restore
            worst = max(worst, max_rel_error(analytic, fd))
        check(1, f"backbone matches finite differences (worst {worst:.2e})", worst < GRAD_TOL)


class TestCriterion2SignSuites:
    def test_sign_suites(self):
        rng = np.random.default_rng(20260804)
        sce_bad = oe_bad = energy_bad = energy_id_bad = ice_bad = 0
        for _ in range(N_SIGN_DRAWS):
            k = int(rng.integers(2, 6))
            scores = 6.0 * rng.standard_normal(k)
            y = int(rng.integers(k))
            probs = np.exp(scores - scores.max())
            probs /= probs.sum()

            d_sce = criteria.sce(scores, y).d_scores
            if not (d_sce[y] < 0 and np.all(np.delete(d_sce, y) > 0)):
                sce_bad += 1

            d_oe = criteria.oe_uniform(scores).d_scores
            if not np.array_equal(np.sign(d_oe), np.sign(probs - 1.0 / k)):
                oe_bad += 1

            if not np.all(criteria.energy(scores).d_scores > 0):
                energy_bad += 1

            lam = float(rng.uniform(0.01, 2.0))
            id_contribution = -lam * criteria.energy(scores).d_scores
            if not np.all(id_contribution < 0):
                energy_id_bad += 1

            h = -rng.uniform(0.01, 9.0, size=k)
            d_ice_id = criteria.ice_id(h, y).d_scores
            if not (d_ice_id[y] < 0 and np.all(np.delete(d_ice_id, y) == 0.0)):
                ice_bad += 1

        check(
            2,
            "sign suites hold with zero violations over "
            f"{N_SIGN_DRAWS} draws (sce {sce_bad}, uniform-target {oe_bad}, energy {energy_bad}, "
            f"energy-id {energy_id_bad}, ice-id {ice_bad})",
            sce_bad == oe_bad == energy_bad == energy_id_bad == ice_bad == 0,
        )


class TestCriterion3MetricOracles:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(20260805)
        worst = 0.0
        for _ in range(500):
            n_in = int(rng.integers(1, 201))
            n_out = int(rng.integers(1, 201))
            if rng.random() < 0.5:
                pool = np.round(rng.random(6), 2)
                in_s = rng.choice(pool, size=n_in)
                out_s = rng.choice(pool, size=n_out)
            else:
                in_s = rng.standard_normal(n_in)
                out_s = rng.standard_normal(n_out)
            positive = "in" if rng.random() < 0.5 else "out"
            target = float(rng.choice([0.5, 0.8, 0.9, 0.95, 0.99, 1.0]))
            report = metrics.compute_report(in_s, out_s, aupr_positive=positive, tpr_target=target)
            worst = max(
                worst,
                abs(report.auroc - pairwise_auroc(in_s, out_s)),
                abs(report.aupr - sweep_aupr(in_s, out_s, positive)),
                abs(report.fpr95 - sweep_fpr_at_tpr(in_s, out_s, target)),
            )
        separable = metrics.compute_report([3.0, 2.0], [1.0, 0.0], tpr_target=0.95)
        exact = separable.auroc == 1.0 and separable.fpr95 == 0.0
        check(
            3,
            f"metrics match brute-force oracles over 500 instances (worst |diff| {worst:.2e}) "
            "and perfect separation is exact",
            worst <= METRIC_TOL and exact,
        )


class TestCriterion4GdaEquivalence:
    def test_posterior_and_argmax(self):
        rng = np.random.default_rng(20260806)
        worst_post = 0.0
        argmax_ok = True
        for _ in range(100):
            n_classes = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 5))
            centers = 3.0 * rng.standard_normal((n_classes, dim))
            feats, labels = [], []
            for k in range(n_classes):
                count = int(rng.integers(dim + 2, 12))
                feats.append(centers[k] + rng.standard_normal((count, dim)))
                labels.extend([k] * count)
            feats = np.vstack(feats)
            data = gda.LabeledSet(feats, np.asarray(labels))
            model = gda.fit_gda(data)

            for _ in range(10):
                z = feats[int(rng.integers(len(feats)))] + rng.standard_normal(dim)
                post = posterior(model, z)
                worst_post = max(
                    worst_post, float(np.max(np.abs(post - bayes_posterior(z, model.means, tied_cov(model)))))
                )

            w_hat, b_hat = gda.closed_form_discriminant(model)
            for z in feats:
                linear_pick = int(np.argmax(w_hat @ z + b_hat))
                lik_pick = int(
                    np.argmax([class_likelihood(model, z, i) for i in range(len(model.means))])
                )
                if linear_pick != lik_pick:
                    argmax_ok = False
        check(
            4,
            f"posterior matches the Bayes oracle (worst |diff| {worst_post:.2e}) "
            "and linear argmax equals likelihood argmax on all samples",
            worst_post <= 1e-10 and argmax_ok,
        )


class TestCriterion5ShiftReproduction:
    def test_three_seeds(self):
        ok = True
        details = []
        oe, ice = (trainer.TrainConfig(criterion=criteria.CriterionConfig(kind)) for kind in ("oe", "ice"))
        for seed in (11, 22, 33):
            bank = make_shift_bank(3.0, DEFAULT_ZETA, 200, 200, seed)
            model = gda.fit_gda(bank)
            oe_traj = run_shift_sim(oe, bank, model, steps=100, lr=0.05, zeta=DEFAULT_ZETA)
            ice_traj = run_shift_sim(ice, bank, model, steps=100, lr=0.05, zeta=DEFAULT_ZETA)
            oe_contracts = oe_traj.stats[-1].mean_norm_out < oe_traj.stats[0].mean_norm_out
            ice_pushes = (
                ice_traj.stats[-1].mean_nearest_center_out > ice_traj.stats[0].mean_nearest_center_out
            )
            ice_pulls = ice_traj.stats[-1].mean_own_center_in < ice_traj.stats[0].mean_own_center_in
            ok = ok and oe_contracts and ice_pushes and ice_pulls
            details.append(f"seed {seed}: oe {oe_contracts}, ice {ice_pushes and ice_pulls}")
        check(5, "feature-drift directions reproduce under 3 seeds (" + "; ".join(details) + ")", ok)


class TestCriterion6FalseLikelihoodDemo:
    def test_demo_command(self, tmp_path):
        cfg = tmp_path / "demo.ini"
        cfg.write_text(
            "[data]\nmu = 3.0\nzeta = " + repr(DEFAULT_ZETA) + "\nn = 2000\nseed = 1234\n"
        )
        out = tmp_path / "out"
        code = cli.main(["demo-false-likelihood", "--config", str(cfg), "--out", str(out)])
        report = json.loads((out / "false_likelihood.json").read_text())
        found = (
            code == 0
            and report["found"]
            and report["f_b"] > report["f_a"]
            and report["lik_b"] < report["lik_a"]
        )
        check(
            6,
            "demo finds a pair with f(B) > f(A) and lik(B) < lik(A) "
            f"(f {report['f_a']:.3f} < {report['f_b']:.3f}, lik {report['lik_a']:.2e} > {report['lik_b']:.2e})",
            found,
        )


class TestCriterion7DeskScaleEndToEnd:
    def test_accuracy_and_detection(self, desk_runs):
        _, ice_logs = desk_runs["ice"]
        _, plain_logs = desk_runs["plain"]
        ice_final = ice_logs[-1]
        plain_final = plain_logs[-1]
        ok = (
            ice_final.acc_in >= 0.95
            and ice_final.report.auroc >= 0.95
            and plain_final.acc_in >= 0.95
            and plain_final.report.auroc < ice_final.report.auroc
        )
        check(
            7,
            f"ice acc {ice_final.acc_in:.3f} >= 0.95, ice auroc {ice_final.report.auroc:.3f} >= 0.95, "
            f"plain acc {plain_final.acc_in:.3f} >= 0.95, msp auroc {plain_final.report.auroc:.3f} < ice",
            ok,
        )


class TestCriterion7SeedRobustness:
    """Criterion 7's ICE run on ``configs/default.ini`` across a seed range fixed up front."""

    SEEDS = range(10)

    def test_every_seed_trains(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
        weak = []
        for seed in self.SEEDS:
            config = load_config(path, seed_override=seed)
            try:
                _, logs = trainer.train(config.train, *cli.make_datasets(config))
            except NonFiniteState as exc:
                weak.append((seed, str(exc)))
                continue
            final = logs[-1]
            if not (final.acc_in >= 0.9 and final.report.auroc >= 0.9):
                weak.append((seed, f"acc {final.acc_in:.3f}, auroc {final.report.auroc:.3f}"))
        check(
            7,
            f"ice on default.ini reaches acc >= 0.9 and auroc >= 0.9 with a finite loss on seeds "
            f"{self.SEEDS.start}-{self.SEEDS.stop - 1} (weak: {weak})",
            not weak,
        )


class TestCriterion8GammaSweep:
    def test_sweep_structure(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[data]\nmu = 3.0\nzeta = "
            + repr(DEFAULT_ZETA)
            + "\nn = 800\nseed = 1234\nn_hard = 400\n\n"
            "[training]\nschedule = cosine\nlr = 0.001\nepochs = 12\nbatch_in = 128\nbatch_out = 128\n"
        )
        out = tmp_path / "out"
        code = cli.main(
            [
                "sweep-lambda",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--gammas",
                "1,3,5,7,9",
                "--criteria",
                "oe,energy,ice",
            ]
        )
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        structure_ok = code == 0 and len(rows) == 15
        expected_cols = {"criterion", "gamma", "aupr", "auroc", "fpr95", "acc_in"}
        structure_ok = structure_ok and set(rows[0]) == expected_cols
        ice_rows = [r for r in rows if r["criterion"] == "ice"]
        ice_finite = len(ice_rows) == 5 and all(
            all(math.isfinite(float(r[c])) for c in ("aupr", "auroc", "fpr95", "acc_in")) for r in ice_rows
        )
        energy_nan_rows = sum(
            1 for r in rows if r["criterion"] == "energy" and r["auroc"] == "NaN"
        )
        check(
            8,
            f"sweep CSV has 15 criterion x gamma rows with four metrics; ice rows finite "
            f"(energy NaN rows recorded: {energy_nan_rows}, permitted either way)",
            structure_ok and ice_finite,
        )


class TestCriterion9ConfidenceLogging:
    def test_histograms_and_margin(self, desk_runs):
        _, ice_logs = desk_runs["ice"]
        every_epoch = all(
            len(log.hist_counts) > 0 and sum(log.hist_counts) > 0 for log in ice_logs
        )
        final = ice_logs[-1]
        margin = final.conf_mean_in - final.conf_mean_out
        check(
            9,
            f"per-epoch histograms exist for all {len(ice_logs)} epochs and final confidence margin "
            f"{margin:.3f} >= 0.3 (in {final.conf_mean_in:.3f}, out {final.conf_mean_out:.3f})",
            every_epoch and margin >= 0.3,
        )


class TestCriterion10NonReproducibility:
    def test_scope_statement(self):
        # The published full-scale benchmark numbers (e.g. FPR95 22.36,
        # accuracy 96.38) are out of desk-scale reach by design; this suite
        # substitutes the property checks of criteria 1-9. The README must say
        # so explicitly.
        from pathlib import Path

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        flattened = " ".join(readme.split())
        documented = "not desk-reproducible" in flattened or "not reproduced" in flattened
        check(
            10,
            "full-scale benchmark numbers are documented as out of scope; "
            "criteria 1-9 are the substitute checks",
            documented,
        )
