import csv
import json
import math
import os

import numpy as np
import pytest

from oodlab import cli
from oodlab.config import DEFAULT_ZETA, load_config

BASE = {
    "data": {
        "mu": "3.0",
        "zeta": repr(DEFAULT_ZETA),
        "n": "300",
        "seed": "1234",
        "n_hard": "150",
    },
    "criterion": {"kind": "ice"},
    "training": {
        "schedule": "cosine",
        "lr": "0.01",
        "epochs": "2",
        "batch_in": "64",
        "batch_out": "64",
    },
    "model": {"hidden": "16,16", "feature_dim": "4"},
    "shift": {"steps": "30", "lr": "0.05", "n_in": "60", "n_out": "40"},
}


def write_ini(path, overrides=None, base=BASE):
    sections = {name: dict(keys) for name, keys in base.items()}
    for section, keys in (overrides or {}).items():
        sections.setdefault(section, {}).update(keys)
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return str(path)


def tree_bytes(root, skip=("run_meta.json",)):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in skip:
                continue
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


class TestGenData:
    def test_writes_four_files(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        for name in cli.DATA_FILES:
            header = (out / name).read_text().splitlines()[0]
            assert header == "x0,x1,label,domain"
        assert (out / "config.resolved.ini").exists()
        assert (out / "run_meta.json").exists()

    def test_idempotent_outputs(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_seed_override_changes_contents(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["gen-data", "--config", cfg, "--out", str(out1)])
        cli.main(["gen-data", "--config", cfg, "--out", str(out2), "--seed", "555"])
        a = (out1 / "train_in.csv").read_text()
        b = (out2 / "train_in.csv").read_text()
        assert a.splitlines()[0] == b.splitlines()[0]
        assert a != b

    def test_n_zero_header_only(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"data": {"n": "0", "n_hard": "0"}})
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        for name in cli.DATA_FILES:
            assert len((out / name).read_text().splitlines()) == 1

    def test_invalid_threshold_is_config_error(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"data": {"zeta": "0.2"}})
        assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", {"data": {"bogus": "1"}})
        assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"nonsense": {"a": "1"}})
        assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["gen-data", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_criterion(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"criterion": {"kind": "spam"}})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_resolved_round_trip(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        out1 = tmp_path / "a"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        resolved = out1 / "config.resolved.ini"
        assert cli.main(["gen-data", "--config", str(resolved), "--out", str(out2)]) == 0
        trees1, trees2 = tree_bytes(out1, skip=("run_meta.json", "config.resolved.ini")), tree_bytes(
            out2, skip=("run_meta.json", "config.resolved.ini")
        )
        assert trees1 == trees2


class TestDegenerateConfigs:
    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("train", {"model": {"feature_dim": "0"}}),
            ("train", {"model": {"hidden": "0"}}),
            ("train", {"data": {"hard_clusters": "0"}}),
            ("train", {"data": {"hard_std": "0"}}),
            ("simulate-shift", {"shift": {"n_in": "0"}}),
            ("simulate-shift", {"shift": {"n_out": "0"}}),
            ("train", {"data": {"n": "6"}}),
        ],
        ids=["feature_dim", "hidden", "hard_clusters", "hard_std", "shift_n_in", "shift_n_out", "no_outliers"],
    )
    def test_rejected_with_config_error(self, tmp_path, capsys, command, overrides):
        cfg = write_ini(tmp_path / "c.ini", overrides)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


class TestMalformedInputFiles:
    def test_truncated_checkpoint_is_io_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", {"training": {"epochs": "1"}})
        train_out = tmp_path / "train"
        assert cli.main(["train", "--config", cfg, "--out", str(train_out)]) == 0
        text = (train_out / "checkpoint.txt").read_text()
        for cut in (len(text) // 3, len(text) // 2 + 7, len(text) - 10):
            ckpt = tmp_path / f"cut{cut}.txt"
            ckpt.write_text(text[:cut])
            code = cli.main(
                ["export-features", "--config", cfg, "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)]
            )
            assert code == 4
            assert capsys.readouterr().err.startswith("io error:")

    @pytest.mark.parametrize(
        "mangle",
        [lambda v: "nan", lambda v: "inf", lambda v: "1.5x", lambda v: v + ",extra"],
        ids=["nan", "inf", "unparsable", "extra_field"],
    )
    def test_malformed_data_csv_is_io_error(self, tmp_path, capsys, mangle):
        cfg = write_ini(tmp_path / "c.ini")
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(data_dir)]) == 0
        path = data_dir / "train_in.csv"
        lines = path.read_text().splitlines()
        first, rest = lines[1].split(",", 1)
        lines[1] = mangle(first) + "," + rest
        path.write_text("\n".join(lines) + "\n")
        cfg2 = write_ini(tmp_path / "c2.ini", {"data": {"data_dir": str(data_dir)}})
        assert cli.main(["train", "--config", cfg2, "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith("io error:")


class TestDemoFalseLikelihood:
    def test_pair_found_and_machine_checkable(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"data": {"n": "400"}})
        out = tmp_path / "out"
        assert cli.main(["demo-false-likelihood", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "false_likelihood.json").read_text())
        assert report["found"] is True
        assert report["f_b"] > report["f_a"]
        assert report["lik_b"] < report["lik_a"]
        assert len(report["a_point"]) == 2 and len(report["b_point"]) == 2


class TestSimulateShift:
    def test_oe_contracts(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"criterion": {"kind": "oe"}})
        out = tmp_path / "out"
        assert cli.main(["simulate-shift", "--config", cfg, "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "stats.csv")))
        assert float(rows[-1]["mean_norm_out"]) < float(rows[0]["mean_norm_out"])

    def test_ice_pushes_outliers(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        out = tmp_path / "out"
        assert cli.main(["simulate-shift", "--config", cfg, "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "stats.csv")))
        assert float(rows[-1]["mean_nearest_center_out"]) > float(rows[0]["mean_nearest_center_out"])
        assert float(rows[-1]["mean_own_center_in"]) < float(rows[0]["mean_own_center_in"])

    def test_zero_steps_rejected(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"shift": {"steps": "0"}})
        assert cli.main(["simulate-shift", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestTrain:
    def test_outputs_and_smoke(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        row = json.loads(lines[-1])
        assert 0.0 < row["conf_mean_in"] <= 1.0  # ice confidences live in (0, 1]
        metrics_rows = list(csv.DictReader(open(out / "metrics.csv")))
        assert set(metrics_rows[0]) == {"auroc", "aupr", "fpr95", "n_in", "n_out", "acc_in"}
        assert (out / "checkpoint.txt").exists()

    def test_plain_uses_msp_and_reports_accuracy(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"criterion": {"kind": "plain"}})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        resolved = (out / "config.resolved.ini").read_text()
        assert "scorer = msp" in resolved
        assert "head = linear" in resolved
        row = list(csv.DictReader(open(out / "metrics.csv")))[0]
        assert 0.0 <= float(row["acc_in"]) <= 1.0

    def test_nonfinite_exit_code(self, tmp_path):
        cfg = write_ini(
            tmp_path / "c.ini",
            {
                "criterion": {"kind": "energy", "gamma": "9.0"},
                "training": {"schedule": "stairwise", "lr": "0.1", "epochs": "10"},
            },
        )
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_train_from_data_dir(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(data_dir)]) == 0
        cfg2 = write_ini(tmp_path / "c2.ini", {"data": {"data_dir": str(data_dir)}})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg2, "--out", str(out)]) == 0


class TestSweep:
    def test_single_gamma_matches_train(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        sweep_out = tmp_path / "sweep"
        train_out = tmp_path / "train"
        assert cli.main(["sweep-lambda", "--config", cfg, "--out", str(sweep_out), "--gammas", "1", "--criteria", "ice"]) == 0
        assert cli.main(["train", "--config", cfg, "--out", str(train_out)]) == 0
        srow = list(csv.DictReader(open(sweep_out / "sweep.csv")))[0]
        trow = list(csv.DictReader(open(train_out / "metrics.csv")))[0]
        for key in ("auroc", "aupr", "fpr95", "acc_in"):
            assert srow[key] == trow[key]

    def test_structure(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"training": {"epochs": "1"}})
        out = tmp_path / "out"
        assert (
            cli.main(
                ["sweep-lambda", "--config", cfg, "--out", str(out), "--gammas", "1,3", "--criteria", "oe,ice"]
            )
            == 0
        )
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        assert [(r["criterion"], r["gamma"]) for r in rows] == [
            ("oe", "1.0"),
            ("oe", "3.0"),
            ("ice", "1.0"),
            ("ice", "3.0"),
        ]

    def test_empty_gammas_rejected(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        assert cli.main(["sweep-lambda", "--config", cfg, "--out", str(tmp_path / "o"), "--gammas", ""]) == 2


class TestExportFeatures:
    def test_row_count(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        train_out = tmp_path / "train"
        assert cli.main(["train", "--config", cfg, "--out", str(train_out)]) == 0
        feats_out = tmp_path / "feats"
        assert (
            cli.main(
                [
                    "export-features",
                    "--config",
                    cfg,
                    "--out",
                    str(feats_out),
                    "--checkpoint",
                    str(train_out / "checkpoint.txt"),
                ]
            )
            == 0
        )
        lines = (feats_out / "features.csv").read_text().splitlines()
        assert lines[0] == "idx,domain,z0,z1,z2,z3"
        config = load_config(cfg)
        # eval_in rows vary with the sampler's tagging; just check both domains present
        domains = {line.split(",")[1] for line in lines[1:]}
        assert domains == {"in", "out"}

    def test_untrained_checkpoint_exports(self, tmp_path):
        # an untrained model still defines features: train 0 epochs is not
        # allowed, so save a freshly built model instead
        from oodlab import gda, trainer

        cfg_path = write_ini(tmp_path / "c.ini")
        config = load_config(cfg_path)
        train_in, _, _, _ = cli.make_datasets(config)
        model = trainer.build_model(config.train, train_in)
        ckpt = tmp_path / "fresh.txt"
        trainer.save_checkpoint(model, ckpt)
        out = tmp_path / "out"
        assert cli.main(["export-features", "--config", cfg_path, "--out", str(out), "--checkpoint", str(ckpt)]) == 0

    def test_missing_checkpoint_io_error(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        code = cli.main(
            ["export-features", "--config", cfg, "--out", str(tmp_path / "o"), "--checkpoint", str(tmp_path / "none.txt")]
        )
        assert code == 4
