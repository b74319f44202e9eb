import ast
import builtins
import configparser
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oodlab
from oodlab import cli, criteria, errors, gda, shiftsim, trainer
from oodlab.config import DEFAULT_ZETA, load_config
from oodlab.seeding import component_seed

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def shift_oe_ini(path, overrides):
    """configs/shift_oe.ini with ``{section: {key: value}}`` set on top of it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(CONFIGS / "shift_oe.ini")
    parser.read_dict(overrides)
    with open(path, "w") as fh:
        parser.write(fh)
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


BLAS_PROBE = """
import json, os{preload}
import oodlab
print(json.dumps([{{var: os.environ.get(var) for var in oodlab.BLAS_THREAD_VARS}}, oodlab.BLAS_THREADS_DEFAULTED]))
"""


def blas_env_after_import(user_env: dict, preload: str = "") -> tuple[dict, bool]:
    """The BLAS thread variables, and whether oodlab set them, after a fresh interpreter imports oodlab."""
    env = {key: value for key, value in os.environ.items() if key not in oodlab.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(oodlab.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE.format(preload=preload)],
        env={**env, **user_env},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    after, defaulted = json.loads(proc.stdout)
    return after, defaulted


class TestBlasThreadDefault:
    def test_one_thread_when_unset(self):
        after, defaulted = blas_env_after_import({})
        assert after == {var: "1" for var in oodlab.BLAS_THREAD_VARS}
        assert defaulted is True

    @pytest.mark.parametrize("var", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_user_value_wins(self, var):
        after, defaulted = blas_env_after_import({var: "2"})
        assert after == {name: ("2" if name == var else None) for name in oodlab.BLAS_THREAD_VARS}
        assert defaulted is False

    def test_left_alone_once_numpy_is_loaded(self):
        after, defaulted = blas_env_after_import({}, preload="\nimport numpy")
        assert after == dict.fromkeys(oodlab.BLAS_THREAD_VARS)
        assert defaulted is False


class TestGenData:
    def test_writes_four_files(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        for name in cli.DATA_FILES:
            header = (out / name).read_text().splitlines()[0]
            assert header == "x0,x1,label,domain"
        assert (out / "config.resolved.ini").exists()
        meta = json.loads((out / "run_meta.json").read_text())
        in_force = {var: os.environ[var] for var in oodlab.BLAS_THREAD_VARS if var in os.environ}
        assert meta["blas_thread_env"] == in_force
        assert meta["blas_threads_defaulted"] is oodlab.BLAS_THREADS_DEFAULTED

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
        for section, key, value in (("data", "bogus", "1"), ("output", "rng", "pcg64")):
            cfg = write_ini(tmp_path / "c.ini", {section: {key: value}})
            assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        # configparser copies [DEFAULT] keys into every section, a second way to set a key.
        for overrides, base in (({"nonsense": {"a": "1"}}, BASE), ({"DEFAULT": {"epochs": "1"}, "training": {}}, {})):
            cfg = write_ini(tmp_path / "c.ini", overrides, base=base)
            assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text",
        [b"mu = 3.0\n", b"[data]\nmu = 3.0\nmu = 2.0\n", b"[data]\ndata_dir = a%b\n", b"[data]\nn = 300\n# caf\xe9\n"],
        ids=["no_section_header", "duplicate_key", "bad_interpolation", "not_utf8"],
    )
    def test_malformed_ini_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(text)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

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
            ("train", {"data": {"mu": "nan"}}),
            ("train", {"data": {"hard_radius": "inf"}}),
            ("simulate-shift", {"data": {"zeta": "nan"}}),
            ("train", {"criterion": {"lambda": "nan"}}),
            ("train", {"training": {"lr": "inf"}}),
            ("train", {"data": {"zeta": "0"}}),
            ("simulate-shift", {"data": {"zeta": "1e-300"}}),
            ("train", {"criterion": {"kind": "oe"}, "eval": {"scorer": "ice_conf"}}),
            ("train", {"data": {"seed": "-1"}}),
            ("simulate-shift", {"shift": {"n_in": "1"}}),
            ("simulate-shift", {"shift": {"n_in": "2"}}),
            ("demo-false-likelihood", {"data": {"n": "2"}}),
            ("simulate-shift", {"data": {"mu": "1e308"}}),
            ("train", {"data": {"mu": "1e308"}}),
            ("train", {"criterion": {"kind": "plain"}, "data": {"mu": "1e308"}}),
            ("train", {"data": {"hard_std": "1e308"}}),
            ("simulate-shift", {"data": {"mu": "1e160"}}),
        ],
        ids=[
            "feature_dim",
            "hidden",
            "hard_clusters",
            "hard_std",
            "shift_n_in",
            "shift_n_out",
            "no_outliers",
            "mu_nan",
            "hard_radius_inf",
            "zeta_nan",
            "lambda_nan",
            "lr_inf",
            "zeta_zero",
            "zeta_all_in",
            "ice_conf_on_linear",
            "negative_seed",
            "shift_n_in_1",
            "shift_n_in_2",
            "demo_n_2",
            "shift_mu_1e308",
            "train_mu_1e308",
            "train_plain_mu_1e308",
            "hard_std_1e308",
            "shift_mu_1e160",
        ],
    )
    def test_rejected_with_config_error(self, tmp_path, capsys, command, overrides):
        cfg = write_ini(tmp_path / "c.ini", overrides)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert "np.float64" not in err

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini")
        assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


class TestHistBinsBound:
    @pytest.mark.parametrize("bins", [10**12, 2**62])
    def test_unallocatable_count_exits_2_before_training(self, tmp_path, capsys, monkeypatch, bins):
        # Used to train a full epoch, then exit 1 with numpy's allocation traceback.
        def no_step(*args):
            raise AssertionError("trained a step before rejecting hist_bins")

        monkeypatch.setattr(trainer, "batch_gradients", no_step)
        cfg = write_ini(tmp_path / "c.ini", {"training": {"epochs": "1"}, "output": {"hist_bins": str(bins)}})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: hist_bins={bins} exceeds the ") and "Traceback" not in err
        assert not (out / "epochs.jsonl").exists()


class TestUnallocatableSizes:
    @pytest.mark.parametrize(
        "command,section,key",
        [
            ("simulate-shift", "shift", "steps"),
            ("simulate-shift", "shift", "n_in"),
            ("gen-data", "data", "n"),
            ("train", "data", "n"),
            ("demo-false-likelihood", "data", "n"),
            ("train", "data", "n_hard"),
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, section, key):
        # Each asks for TiB to PiB at its first allocation, which fails at once;
        # it used to exit 1 with numpy's allocation traceback.
        cfg = write_ini(tmp_path / "c.ini", {section: {key: "1000000000000"}})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "Traceback" not in err


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

    def test_zero_width_checkpoint_is_io_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini")
        ckpt = tmp_path / "zero.txt"
        ckpt.write_text(
            "schema=oodlab-checkpoint-v1\nhead.kind=linear\nbackbone.widths=2 0\n"
            "backbone.0.weight=\nbackbone.0.bias=\nhead.weight=\nhead.bias=\n"
        )
        code = cli.main(["export-features", "--config", cfg, "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)])
        assert code == 4
        assert capsys.readouterr().err.startswith("io error:")

    @pytest.mark.parametrize("widths", ["", "8"])
    def test_checkpoint_without_layers_is_io_error(self, tmp_path, capsys, widths):
        # The head's entry names and shapes read the last width, so no width
        # at all must be rejected before them.
        cfg = write_ini(tmp_path / "c.ini")
        ckpt = tmp_path / "flat.txt"
        ckpt.write_text(f"schema=oodlab-checkpoint-v1\nhead.kind=gaussian\nbackbone.widths={widths}\n")
        code = cli.main(["export-features", "--config", cfg, "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("io error:") and "need at least one layer" in err

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

    @pytest.mark.parametrize(
        "name, label, tag",
        [
            ("train_in.csv", "", "out"),
            ("eval_in.csv", "", "out"),
            ("eval_out.csv", "5", "out"),
            ("train_out.csv", "0", "in"),
            ("train_out.csv", "-2", "out"),
        ],
    )
    def test_wrong_domain_row_is_io_error(self, tmp_path, capsys, name, label, tag):
        # A row of the other domain in a split file, or a tag that disagrees
        # with the row's label cell.
        cfg = write_ini(tmp_path / "c.ini")
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(data_dir)]) == 0
        path = data_dir / name
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-2] + [label, tag])
        path.write_text("\n".join(lines) + "\n")
        cfg2 = write_ini(tmp_path / "c2.ini", {"data": {"data_dir": str(data_dir)}})
        assert cli.main(["train", "--config", cfg2, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("io error:") and name in err

    @pytest.mark.parametrize("wide_files", [("eval_in.csv", "eval_out.csv"), ("train_out.csv",)])
    def test_splits_of_different_widths_are_io_error(self, tmp_path, capsys, wide_files):
        # Each mix used to end in a numpy traceback (exit 1).
        data_dir = tmp_path / "data"
        for dims in (2, 3):
            cfg = write_ini(tmp_path / f"c{dims}.ini", {"data": {"dims": str(dims)}})
            assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / f"d{dims}")]) == 0
        data_dir.mkdir()
        for name in cli.DATA_FILES:
            source = tmp_path / ("d3" if name in wide_files else "d2") / name
            (data_dir / name).write_bytes(source.read_bytes())
        capsys.readouterr()
        cfg = write_ini(tmp_path / "c.ini", {"data": {"data_dir": str(data_dir)}})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("io error:") and "Traceback" not in err
        for name in cli.DATA_FILES:
            assert f"{name} {3 if name in wide_files else 2}" in err


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

    def shift_trajectory(self, tmp_path, name, overrides):
        cfg = shift_oe_ini(tmp_path / f"{name}.ini", overrides)
        out = tmp_path / name
        assert cli.main(["simulate-shift", "--config", cfg, "--out", str(out)]) == 0
        return (out / "trajectory.csv").read_bytes()

    def test_model_head_picks_the_frozen_head(self, tmp_path):
        # energy on the Gaussian head: the head follows [model] head, not the criterion
        energy = {"criterion": {"kind": "energy"}}
        auto = self.shift_trajectory(tmp_path, "auto", energy)
        gaussian = self.shift_trajectory(tmp_path, "gaussian", {**energy, "model": {"head": "gaussian"}})
        config = load_config(CONFIGS / "shift_oe.ini")
        d, s = config.data, config.shift
        bank = shiftsim.make_shift_bank(d.mu, d.zeta, s.n_in, s.n_out, component_seed(d.seed, "shift_bank"), dims=d.dims)
        head_config = trainer.TrainConfig(criterion=criteria.CriterionConfig("energy"), head="gaussian")
        expected = shiftsim.run_shift_sim(head_config, bank, gda.fit_gda(bank), steps=s.steps, lr=s.lr, zeta=d.zeta)
        shiftsim.trajectory_to_csv(expected, tmp_path / "expected.csv")
        assert gaussian == (tmp_path / "expected.csv").read_bytes()
        assert gaussian != auto

    def test_gamma_scales_the_outlier_weight(self, tmp_path):
        # the outlier weight is lambda * gamma, and 0.5 * 5 == 2.5 * 1 exactly
        scaled = self.shift_trajectory(tmp_path, "gamma5", {"criterion": {"gamma": "5"}})
        assert scaled == self.shift_trajectory(tmp_path, "lambda25", {"criterion": {"lambda": "2.5", "gamma": "1"}})
        assert scaled != self.shift_trajectory(tmp_path, "gamma1", {"criterion": {"gamma": "1"}})

    def test_zero_steps_rejected(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", {"shift": {"steps": "0"}})
        assert cli.main(["simulate-shift", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_huge_lr_is_non_finite(self, tmp_path, capsys):
        # The features stay finite (about 1e298), but their norms overflow.
        cfg = shift_oe_ini(tmp_path / "c.ini", {"shift": {"lr": "1e300"}})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate-shift", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "non-finite training state: non-finite shift statistics at step 0\n"
        assert not (out / "trajectory.csv").exists() and not (out / "stats.csv").exists()


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

    def test_gaussian_head_histogram_is_confidence(self, tmp_path):
        # the epoch histogram follows the head: ice_conf on any Gaussian-head run
        cfg = write_ini(tmp_path / "c.ini", {"criterion": {"kind": "plain"}, "model": {"head": "gaussian"}})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        for line in (out / "epochs.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert 0.0 < row["conf_mean_in"] <= 1.0 and 0.0 < row["conf_mean_out"] <= 1.0
            assert row["hist_bins"][0] == 0.0 and row["hist_bins"][-1] == 1.0

    def test_nonfinite_exit_code(self, tmp_path):
        cfg = write_ini(
            tmp_path / "c.ini",
            {
                "criterion": {"kind": "energy", "gamma": "9.0"},
                "training": {"schedule": "stairwise", "lr": "0.1", "epochs": "10"},
            },
        )
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("scorer", ["max_logit", "msp", "energy_score", "ice_conf"])
    def test_eval_score_of_far_outliers(self, tmp_path, capsys, scorer):
        # Outliers at radius 1e200 drive the Gaussian head's scores to -inf.
        # ice_conf = exp(max h) is then 0, a finite score; the other three are
        # not finite, and the report scorer's values used to reach the metrics
        # unchecked (exit 1 with a traceback).
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[data]\nn = 300\nn_hard = 40\nhard_radius = 1e200\n[criterion]\nkind = ice\n"
            f"[training]\nepochs = 1\n[eval]\nscorer = {scorer}\n"
        )
        out = tmp_path / "o"
        code = cli.main(["train", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if scorer == "ice_conf":
            assert code == 0
            expected = b"auroc,aupr,fpr95,n_in,n_out,acc_in\r\n1.0,1.0,0.0,288,40,0.9409722222222222\r\n"
            assert (out / "metrics.csv").read_bytes() == expected
        else:
            assert code == 3
            assert "non-finite eval score after step 2" in err and "Traceback" not in err

    def test_default_config_seed_611_trains(self, tmp_path):
        # A seed whose early Gaussian-head steps overflowed the factor before
        # the gradient-norm clip.
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(CONFIGS / "default.ini"), "--out", str(out), "--seed", "611"]) == 0

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

    def test_diverging_oe_writes_nan_row(self, tmp_path):
        # The run overflows a parameter; that must surface as a NaN row, not
        # as a RuntimeWarning (an error under this suite).
        out = tmp_path / "o"
        argv = ["sweep-lambda", "--config", str(CONFIGS / "sweep.ini"), "--out", str(out)]
        assert cli.main(argv + ["--gammas", "1e6", "--criteria", "oe"]) == 0
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        assert [(r["criterion"], r["auroc"], r["acc_in"]) for r in rows] == [("oe", "NaN", "NaN")]

    def test_diverging_oe_names_the_parameter(self, tmp_path, capsys):
        # The step's batch losses are finite (about 1e264 and 1e270); the
        # update is what overflows, so the message names a parameter.
        argv = ["sweep-lambda", "--config", str(CONFIGS / "sweep.ini"), "--out", str(tmp_path / "o")]
        assert cli.main(argv + ["--gammas", "1e6", "--criteria", "oe"]) == 0
        err = capsys.readouterr().err
        assert "non-finite loss" not in err
        assert re.search(r"parameter (backbone\.\d+|head)\.\w+ is non-finite after step \d+", err), err

    @pytest.mark.parametrize("kinds, gammas", [("oe,bogus", "1"), ("oe", "1,-1")], ids=["bad_kind", "negative_gamma"])
    def test_bad_cell_rejected_before_training(self, tmp_path, capsys, monkeypatch, kinds, gammas):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before every sweep cell was checked")

        monkeypatch.setattr(trainer, "train", no_training)
        cfg = write_ini(tmp_path / "c.ini")
        out = tmp_path / "o"
        argv = ["sweep-lambda", "--config", cfg, "--out", str(out), "--gammas", gammas, "--criteria", kinds]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (out / "sweep.csv").exists()

    def test_empty_gammas_rejected(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        assert cli.main(["sweep-lambda", "--config", cfg, "--out", str(tmp_path / "o"), "--gammas", ""]) == 2

    def test_empty_criteria_rejected(self, tmp_path, capsys, monkeypatch):
        # Used to exit 0 with a header-only sweep.csv.
        def no_training(*args, **kwargs):
            raise AssertionError("trained with no criterion to sweep")

        monkeypatch.setattr(trainer, "train", no_training)
        cfg = write_ini(tmp_path / "c.ini")
        out = tmp_path / "o"
        assert cli.main(["sweep-lambda", "--config", cfg, "--out", str(out), "--criteria", ","]) == 2
        assert capsys.readouterr().err.startswith("config error: sweep needs at least one criterion")
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("gammas", ["1,nan", "inf"])
    def test_non_finite_gammas_rejected(self, tmp_path, capsys, gammas):
        cfg = write_ini(tmp_path / "c.ini")
        assert cli.main(["sweep-lambda", "--config", cfg, "--out", str(tmp_path / "o"), "--gammas", gammas]) == 2
        assert capsys.readouterr().err.startswith("config error:")


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

    def test_overflowing_checkpoint_is_non_finite(self, tmp_path, capsys):
        # A finite but huge weight passes the checkpoint reader and overflows the forward.
        cfg = write_ini(tmp_path / "c.ini", {"training": {"epochs": "1"}})
        train_out = tmp_path / "train"
        assert cli.main(["train", "--config", cfg, "--out", str(train_out)]) == 0
        capsys.readouterr()
        lines = (train_out / "checkpoint.txt").read_text().splitlines()
        for i, line in enumerate(lines):
            name, _, values = line.partition("=")
            if name == "backbone.0.weight":
                lines[i] = name + "=" + " ".join("1e308" for _ in values.split())
        ckpt = tmp_path / "huge.txt"
        ckpt.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["export-features", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("non-finite") and "Traceback" not in err
        assert not (out / "features.csv").exists()

    def test_checkpoint_of_another_width_is_config_error(self, tmp_path, capsys):
        # Used to end in a matmul traceback (exit 1).
        cfg = write_ini(tmp_path / "c.ini", {"training": {"epochs": "1"}})
        ckpt = tmp_path / "train" / "checkpoint.txt"
        assert cli.main(["train", "--config", cfg, "--out", str(ckpt.parent)]) == 0
        capsys.readouterr()
        cfg3 = write_ini(tmp_path / "c3.ini", {"data": {"dims": "3"}})
        out = tmp_path / "o"
        code = cli.main(["export-features", "--config", cfg3, "--out", str(out), "--checkpoint", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "input width 2, the data has 3" in err
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize("n_classes", [0, 1])
    def test_checkpoint_of_fewer_than_two_classes_is_io_error(self, tmp_path, capsys, n_classes):
        # A blank head.means line used to load as a (0, d) head, which then
        # broke scoring with a bare numpy ValueError; export-features exited 0.
        cfg = write_ini(tmp_path / "c.ini", {"training": {"epochs": "1"}})
        train_out = tmp_path / "train"
        assert cli.main(["train", "--config", cfg, "--out", str(train_out)]) == 0
        capsys.readouterr()
        dim = load_config(cfg).train.feature_dim
        lines = (train_out / "checkpoint.txt").read_text().splitlines()
        for i, line in enumerate(lines):
            name, _, values = line.partition("=")
            if name == "head.means":
                lines[i] = name + "=" + " ".join(values.split()[: n_classes * dim])
        ckpt = tmp_path / "few.txt"
        ckpt.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.MalformedData, match="need at least two classes"):
            trainer.load_checkpoint(ckpt)
        out = tmp_path / "o"
        code = cli.main(["export-features", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("io error:") and f"need at least two classes, got {n_classes}" in err
        assert not (out / "features.csv").exists()

    def test_missing_checkpoint_io_error(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini")
        code = cli.main(
            ["export-features", "--config", cfg, "--out", str(tmp_path / "o"), "--checkpoint", str(tmp_path / "none.txt")]
        )
        assert code == 4


class TestErrorContract:
    @pytest.mark.parametrize(
        "exc_type, code, label",
        [
            (errors.ConfigError, 2, "config error"),
            (errors.NonFiniteState, 3, "non-finite training state"),
            (errors.MalformedData, 4, "io error"),
            (OSError, 4, "io error"),
        ],
        ids=["config", "non_finite", "malformed", "os_error"],
    )
    def test_one_clause_maps_each_class(self, tmp_path, capsys, monkeypatch, exc_type, code, label):
        def failing(config, out_dir):
            raise exc_type("boom")

        monkeypatch.setattr(cli, "cmd_gen_data", failing)
        cfg = write_ini(tmp_path / "c.ini")
        assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{label}: boom\n"

    def test_only_the_exit_classes_are_defined(self):
        # Every exception class in the package, as (module, class): the three
        # exit classes, and the pivot signal that fit_gda turns into a ConfigError.
        bases = {}
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    bases[path.stem, node.name] = {getattr(base, "id", getattr(base, "attr", "")) for base in node.bases}
        known = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
        found = set()
        while new := {key for key, names in bases.items() if names & known} - found:
            found |= new
            known |= {name for _, name in new}
        assert found == {
            ("errors", "ConfigError"),
            ("errors", "NonFiniteState"),
            ("errors", "MalformedData"),
            ("linalg", "NotPositiveDefinite"),
        }
