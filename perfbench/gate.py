"""Correctness gate: every pass's outputs are checked before its timings count.

Each check is one operation; a check that returns False or raises is a
failure. The metric recomputations are deliberately brute force (pairwise
counting and full threshold rescans) so they share no code with the
sort-based implementations they check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import traceback
from configparser import ConfigParser

import numpy as np

from oodlab import trainer
from oodlab.cli import DATA_FILES, make_datasets
from oodlab.config import load_config
from oodlab.gda import LabeledSet
from oodlab.shiftsim import shift_stats

from workloads import Workload, shift_data

METRIC_TOL = 1e-9
STATS_TOL = 1e-12
SIDECAR = "run_meta.json"  # wall-clock metadata, the one output allowed to differ


class Gate:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def check(self, name: str, func, *args):
        """Run ``func(*args)``; False or an exception fails the check. Returns func's value or None."""
        try:
            value = func(*args)
        except Exception:  # noqa: BLE001 - any error in a check is a failed check
            self.record(name, False, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None
        self.record(name, value is not False)
        return value

    @property
    def failed(self) -> int:
        return len(self.failures)


# Brute-force twins of the detector metrics (higher score = more in-distribution).


def brute_auroc(s_in: np.ndarray, s_out: np.ndarray) -> float:
    wins = np.sum(s_in[:, None] > s_out[None, :]) + 0.5 * np.sum(s_in[:, None] == s_out[None, :])
    return float(wins) / (len(s_in) * len(s_out))


def brute_aupr(s_in: np.ndarray, s_out: np.ndarray, positive: str) -> float:
    pos, neg = (s_in, s_out) if positive == "in" else (-s_out, -s_in)
    taus = np.unique(np.concatenate([pos, neg]))[::-1]
    tp = np.sum(pos[None, :] >= taus[:, None], axis=1)
    fp = np.sum(neg[None, :] >= taus[:, None], axis=1)
    recall = tp / len(pos)
    return float(np.sum(np.diff(recall, prepend=0.0) * tp / (tp + fp)))


def brute_fpr(s_in: np.ndarray, s_out: np.ndarray, tpr_target: float = 0.95) -> float:
    taus = np.unique(s_in)[::-1]
    tpr = np.sum(s_in[None, :] >= taus[:, None], axis=1) / len(s_in)
    hits = np.nonzero(tpr >= tpr_target)[0]
    if not hits.size:
        return 1.0
    return float(np.mean(s_out >= taus[hits[0]]))


# Output parsing.


def read_metrics_csv(path: str) -> dict[str, float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 or rows[0] != ["auroc", "aupr", "fpr95", "n_in", "n_out", "acc_in"]:
        raise ValueError(f"unexpected metrics.csv layout: {rows}")
    return {key: float(value) for key, value in zip(rows[0], rows[1])}


def read_epochs(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_trajectory(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(snapshots of shape (steps + 1, n, d), domain tags of the rows)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    dim = len(header) - 3
    steps = int(rows[-1][0]) + 1
    n = len(rows) // steps
    values = np.array([[float(v) for v in row[3:]] for row in rows]).reshape(steps, n, dim)
    return values, np.array([row[2] for row in rows[:n]])


def read_stats(path: str) -> list[list[float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(v) for v in row[1:]] for row in reader]


def output_files(dirs: list[str]) -> list[str]:
    """Every deterministic output file under ``dirs`` (all but the sidecar)."""
    return sorted(
        os.path.join(dirpath, name) for top in dirs for dirpath, _, files in os.walk(top) for name in files if name != SIDECAR
    )


def digest(dirs: list[str]) -> dict[str, str]:
    """SHA-256 of every deterministic output file, keyed by path."""
    out = {}
    for path in output_files(dirs):
        with open(path, "rb") as fh:
            out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


# Per-pass checks.


def _close(a: float, b: float, tol: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol


def _check_files(wl: Workload) -> bool:
    for out in wl.out_dirs():
        with open(os.path.join(out, SIDECAR)) as fh:
            json.load(fh)
        with open(os.path.join(out, "config.resolved.ini")) as fh:
            ConfigParser(interpolation=None).read_file(fh)
    return True


def check_train(gate: Gate, wl: Workload) -> dict[str, float]:
    """Gate one train pass; returns its result quality (acc_in, auroc, fpr95)."""
    train_dir, export_dir = wl.out("train"), wl.out("export")
    gate.check("output files parse", _check_files, wl)
    if wl.name == "train_plain":
        gate.check(
            "gen-data CSVs parse",
            lambda: all(len(LabeledSet.from_csv(os.path.join(wl.out("data"), f))) > 0 for f in DATA_FILES),
        )
    epochs = gate.check("epochs.jsonl parses", read_epochs, os.path.join(train_dir, "epochs.jsonl"))
    reported = gate.check("metrics.csv parses", read_metrics_csv, os.path.join(train_dir, "metrics.csv"))
    model = gate.check("checkpoint loads", trainer.load_checkpoint, os.path.join(train_dir, "checkpoint.txt"))
    setup = gate.check("config loads and eval sets regenerate", _eval_sets, wl)
    if setup is None:
        return {}
    config, eval_in, eval_out = setup
    gate.check("features.csv has one row per eval sample", _check_features, export_dir, len(eval_in) + len(eval_out))
    if epochs is not None:
        gate.record("epochs.jsonl has one record per epoch", len(epochs) == config.train.epochs)
    if epochs and reported is not None:
        final = epochs[-1]
        same = all(final[k] == reported[k] for k in ("auroc", "aupr", "fpr95", "acc_in"))
        sizes = (reported["n_in"], reported["n_out"]) == (len(eval_in), len(eval_out))
        gate.record("metrics.csv equals the final epochs.jsonl record", same and sizes, f"{reported} vs {final}")
    if model is not None and reported is not None:
        scorer = trainer.resolve_scorer(config.train.scorer, model.head_kind, config.train.criterion)
        s_in = trainer.score_samples(model, eval_in.features, scorer)
        s_out = trainer.score_samples(model, eval_out.features, scorer)
        brute = {
            "auroc": brute_auroc(s_in, s_out),
            "aupr": brute_aupr(s_in, s_out, config.train.aupr_positive),
            "fpr95": brute_fpr(s_in, s_out),
        }
        ok = all(_close(brute[k], reported[k], METRIC_TOL) for k in brute)
        gate.record("brute-force AUROC/AUPR/FPR95 match metrics.csv", ok, f"{brute} vs {reported}")
    if reported is None:
        return {}
    return {"acc_in": reported["acc_in"], "auroc": reported["auroc"], "fpr95": reported["fpr95"]}


def _eval_sets(wl: Workload):
    config = load_config(wl.train_config, seed_override=wl.seed)
    _, _, eval_in, eval_out = make_datasets(config)
    return config, eval_in, eval_out


def _check_features(export_dir: str, expected_rows: int) -> bool:
    with open(os.path.join(export_dir, "features.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row[2:]] for row in reader]
    return len(rows) == expected_rows and all(len(r) == len(header) - 2 for r in rows)


def check_shift(gate: Gate, wl: Workload) -> dict[str, float]:
    """Gate one shift pass; returns the final mixed_fraction of each simulation."""
    gate.check("output files parse", _check_files, wl)
    quality = {}
    for sub, path in wl.shift_configs:
        config = load_config(path, seed_override=wl.seed)  # a shipped config: simulate-shift read it too
        traj = gate.check(f"{sub}/trajectory.csv parses", read_trajectory, os.path.join(wl.out(sub), "trajectory.csv"))
        stats = gate.check(f"{sub}/stats.csv parses", read_stats, os.path.join(wl.out(sub), "stats.csv"))
        if traj is None or stats is None:
            continue
        snapshots, domain = traj
        bank, model = shift_data(config)
        shape_ok = snapshots.shape[:2] == (config.shift.steps + 1, len(bank)) and len(stats) == snapshots.shape[0]
        if not gate.record(f"{sub} trajectory and stats have one block per step", shape_ok, str(snapshots.shape)):
            continue
        ok = bool(np.array_equal(domain, bank.domain))
        for step, row in enumerate(stats):
            st = shift_stats(snapshots[step], bank.labels, domain, model, config.data.zeta)
            fresh = (st.mean_norm_out, st.mean_nearest_center_out, st.mean_own_center_in, st.mixed_fraction)
            ok = ok and all(_close(a, b, STATS_TOL * max(1.0, abs(b))) for a, b in zip(fresh, row))
        gate.record(f"{sub} stats.csv equals shift_stats recomputed from trajectory.csv", ok)
        quality[f"{sub}.mixed_fraction"] = stats[-1][3]
    return quality
