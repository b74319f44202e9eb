"""The output-parity script's comparison, on small hand-made output trees."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_parity():
    spec = importlib.util.spec_from_file_location("tools_parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


parity = load_parity()


def output_tree(root, metrics=b"auroc\n0.9\n", meta=b'{"unix_time": 1.0}\n'):
    (root / "train").mkdir(parents=True)
    (root / "train" / "metrics.csv").write_bytes(metrics)
    (root / "train" / "run_meta.json").write_bytes(meta)
    return root


def runs(code=0, stderr=""):
    return {"train": parity.Run(code, "acc_in=1.0\n", stderr)}


def test_identical_but_run_meta_reports_nothing(tmp_path):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b", meta=b'{"unix_time": 2.0}\n')
    assert parity.compare(a, runs(), b, runs()) == []


def test_flipped_byte_is_reported(tmp_path):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b", metrics=b"auroc\n0.8\n")
    assert parity.compare(a, runs(), b, runs()) == ["train/metrics.csv: differs"]


def test_file_on_one_side_is_reported(tmp_path):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b")
    (b / "train" / "extra.csv").write_bytes(b"")
    assert parity.compare(a, runs(), b, runs()) == ["train/extra.csv: change only"]
    assert parity.compare(b, runs(), a, runs()) == ["train/extra.csv: parent only"]


def test_changed_exit_code_is_reported(tmp_path):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b")
    assert parity.compare(a, runs(0), b, runs(3)) == ["train: exit code 0 (parent) != 3 (change)"]


def test_changed_stderr_line_is_reported(tmp_path):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b")
    report = parity.compare(a, runs(stderr="same\nstep 116\n"), b, runs(stderr="same\nstep 117\n"))
    assert report == ["train: stderr parent only: step 116", "train: stderr change only: step 117"]


@pytest.mark.parametrize("kept", ["parent", "change"])
def test_run_on_one_side_is_reported(tmp_path, kept):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b")
    sides = {"parent": runs(), "change": runs()}
    sides["change" if kept == "parent" else "parent"] = {}
    assert parity.compare(a, sides["parent"], b, sides["change"]) == ["train: run on one side only"]


def test_one_command_on_this_tree_matches_itself(tmp_path, monkeypatch):
    # Two runs of one real command into different directories: stdout names
    # the output directory, which must come back as <out>.
    monkeypatch.setattr(parity, "COMMANDS", [("gen", ["gen-data", "--config", "configs/train_plain.ini"])])
    a_out, a_runs = parity.run_all(ROOT, tmp_path / "a")
    b_out, b_runs = parity.run_all(ROOT, tmp_path / "b")
    assert a_runs["gen"] == parity.Run(0, f"wrote 4 files to {parity.OUT}{os.sep}gen\n", "")
    assert sorted(p.name for p in (a_out / "gen").iterdir()) == [
        "config.resolved.ini",
        "eval_in.csv",
        "eval_out.csv",
        "run_meta.json",
        "train_in.csv",
        "train_out.csv",
    ]
    assert parity.compare(a_out, a_runs, b_out, b_runs) == []
