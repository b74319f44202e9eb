"""Command-line front end: data generation, demos, training, sweeps, exports.

Every command takes ``--config <path>`` and ``--out <dir>`` (the latter
overrides ``[output] dir``), plus ``--seed`` to override the config seed.
Outputs are deterministic per (config, seed); wall-clock metadata is confined
to the ``run_meta.json`` sidecar. Exit codes: 0 success, 2 config error,
3 non-finite training, 4 I/O error; each failure code is one class in
``oodlab.errors``. An ``OSError`` also exits 4, and a ``MemoryError`` (a
config size no allocation can hold) exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import BLAS_THREAD_VARS, BLAS_THREADS_DEFAULTED, criteria, trainer
from .config import ExperimentConfig, load_config, resolved_ini
from .errors import ConfigError, MalformedData, NonFiniteState
from .floatrows import CSV_END, format_cell, join_cells, write_csv_rows, write_csv_table
from .gda import DOMAIN_IN, DOMAIN_OUT, LabeledSet, fit_gda, sample_cluster_family, sample_synthetic
from .seeding import component_seed
from .shiftsim import (
    find_false_likelihood_pair,
    make_shift_bank,
    run_shift_sim,
    stats_to_csv,
    trajectory_to_csv,
)

DATA_FILES = ("train_in.csv", "train_out.csv", "eval_in.csv", "eval_out.csv")


def make_datasets(config: ExperimentConfig) -> tuple[LabeledSet, LabeledSet, LabeledSet, LabeledSet]:
    """(train_in, train_out, eval_in, eval_out) per the data config.

    Inline generation draws the train and eval splits from the two-cluster
    sampler on separate derived streams and builds the held-out "hard"
    outlier family for evaluation; with ``data_dir`` set, the four gen-data
    CSVs are loaded instead, and a file holding a row of the other domain, or
    four files that do not share one width, raise MalformedData.
    """
    d = config.data
    if d.data_dir:
        paths = [os.path.join(d.data_dir, name) for name in DATA_FILES]
        sets = tuple(LabeledSet.from_csv(p) for p in paths)
        for path, data in zip(paths, sets):
            if np.any(data.in_mask() != path.endswith("_in.csv")):
                raise MalformedData(f"{path}: holds a row of the other domain")
        if len({data.dim for data in sets}) > 1:
            widths = ", ".join(f"{name} {data.dim}" for name, data in zip(DATA_FILES, sets))
            raise MalformedData(f"{d.data_dir}: the splits must share one width, got {widths}")
        return sets  # type: ignore[return-value]
    train = sample_synthetic(d.mu, d.zeta, d.n, component_seed(d.seed, "train_data"), dims=d.dims)
    evald = sample_synthetic(d.mu, d.zeta, d.n, component_seed(d.seed, "eval_data"), dims=d.dims)
    eval_out = sample_cluster_family(
        d.hard_centers(), d.hard_std, d.n_hard, component_seed(d.seed, "hard_out")
    )
    return train.subset(train.in_mask()), train.subset(~train.in_mask()), evald.subset(evald.in_mask()), eval_out


def _prepare_out(config: ExperimentConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.ini"), "w") as fh:
        fh.write(resolved_ini(config))
    meta = {
        "unix_time": time.time(),
        "argv": sys.argv[1:],
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ},
        "blas_threads_defaulted": BLAS_THREADS_DEFAULTED,
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def cmd_gen_data(config: ExperimentConfig, out_dir: str) -> int:
    sets = make_datasets(config)
    for name, data in zip(DATA_FILES, sets):
        data.to_csv(os.path.join(out_dir, name))
    print(f"wrote {len(DATA_FILES)} files to {out_dir}")
    return 0


def cmd_demo_false_likelihood(config: ExperimentConfig, out_dir: str) -> int:
    d = config.data
    data = sample_synthetic(d.mu, d.zeta, d.n, component_seed(d.seed, "train_data"), dims=d.dims)
    model = fit_gda(data)
    pair = find_false_likelihood_pair(model, data, class_i=0)
    if pair is None:
        report = {"found": False}
    else:
        report = {
            "found": True,
            "class_i": 0,
            "a_index": pair.a_index,
            "b_index": pair.b_index,
            "a_point": [float(v) for v in data.features[pair.a_index]],
            "b_point": [float(v) for v in data.features[pair.b_index]],
            "f_a": pair.f_a,
            "f_b": pair.f_b,
            "lik_a": pair.lik_a,
            "lik_b": pair.lik_b,
            "linear_score_prefers_b": pair.f_b > pair.f_a,
            "likelihood_prefers_a": pair.lik_b < pair.lik_a,
        }
    text = json.dumps(report, indent=2)
    with open(os.path.join(out_dir, "false_likelihood.json"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_simulate_shift(config: ExperimentConfig, out_dir: str) -> int:
    d = config.data
    bank = make_shift_bank(
        d.mu, d.zeta, config.shift.n_in, config.shift.n_out, component_seed(d.seed, "shift_bank"), dims=d.dims
    )
    model = fit_gda(bank)
    trajectory = run_shift_sim(config.train, bank, model, steps=config.shift.steps, lr=config.shift.lr, zeta=d.zeta)
    trajectory_to_csv(trajectory, os.path.join(out_dir, "trajectory.csv"))
    stats_to_csv(trajectory, os.path.join(out_dir, "stats.csv"))
    first, last = trajectory.stats[0], trajectory.stats[-1]
    print(
        f"criterion={config.train.criterion.kind} steps={trajectory.steps} "
        f"mean_norm_out {format_cell(first.mean_norm_out)} -> {format_cell(last.mean_norm_out)} "
        f"mean_nearest_center_out {format_cell(first.mean_nearest_center_out)} -> {format_cell(last.mean_nearest_center_out)}"
    )
    return 0


def _write_metrics_csv(path, report, acc_in: float) -> None:
    rows = [
        ["auroc", "aupr", "fpr95", "n_in", "n_out", "acc_in"],
        [*map(format_cell, (report.auroc, report.aupr, report.fpr95)), report.n_in, report.n_out, format_cell(acc_in)],
    ]
    write_csv_table(path, rows)


def cmd_train(config: ExperimentConfig, out_dir: str) -> int:
    train_in, train_out, eval_in, eval_out = make_datasets(config)
    model, logs = trainer.train(config.train, train_in, train_out, eval_in, eval_out)
    trainer.write_epoch_logs(logs, os.path.join(out_dir, "epochs.jsonl"))
    trainer.save_checkpoint(model, os.path.join(out_dir, "checkpoint.txt"))
    final = logs[-1]
    _write_metrics_csv(os.path.join(out_dir, "metrics.csv"), final.report, final.acc_in)
    print(
        f"criterion={config.train.criterion.kind} epochs={config.train.epochs} "
        f"acc_in={final.acc_in:.4f} auroc={final.report.auroc:.4f} fpr95={final.report.fpr95:.4f}"
    )
    return 0


def cmd_sweep_lambda(config: ExperimentConfig, out_dir: str, gammas: list[float], kinds: list[str]) -> int:
    if not gammas:
        raise ConfigError("sweep needs at least one gamma")
    if not kinds:
        raise ConfigError("sweep needs at least one criterion")
    try:
        cells = [
            dataclasses.replace(
                config.train, criterion=criteria.CriterionConfig(kind=kind), gamma=gamma, head="auto", scorer="auto"
            )
            for kind in kinds
            for gamma in gammas
        ]
    except ValueError as exc:
        raise ConfigError(f"sweep cell: {exc}") from exc
    train_in, train_out, eval_in, eval_out = make_datasets(config)
    rows = [["criterion", "gamma", "aupr", "auroc", "fpr95", "acc_in"]]
    for run_cfg in cells:
        kind, gamma = run_cfg.criterion.kind, run_cfg.gamma
        try:
            _, logs = trainer.train(run_cfg, train_in, train_out, eval_in, eval_out)
            final = logs[-1]
            report = final.report
            rows.append([kind, *map(format_cell, (gamma, report.aupr, report.auroc, report.fpr95, final.acc_in))])
        except NonFiniteState as exc:
            nan = format_cell(math.nan)
            rows.append([kind, format_cell(gamma), nan, nan, nan, nan])
            print(f"criterion={kind} gamma={gamma}: {exc}", file=sys.stderr)
    write_csv_table(os.path.join(out_dir, "sweep.csv"), rows)
    print(f"wrote {len(rows) - 1} sweep rows to {out_dir}/sweep.csv")
    return 0


def cmd_export_features(config: ExperimentConfig, out_dir: str, checkpoint: str) -> int:
    model = trainer.load_checkpoint(checkpoint)
    _, _, eval_in, eval_out = make_datasets(config)
    if model.backbone.in_dim != eval_in.dim:
        widths = f"input width {model.backbone.in_dim}, the data has {eval_in.dim}"
        raise ConfigError(f"checkpoint {checkpoint} takes {widths}")
    # Finite but huge weights can overflow; that is reported, not written.
    with np.errstate(over="ignore", invalid="ignore"):
        feats = [trainer.features_batch(model, data.features) for data in (eval_in, eval_out)]
    if not all(np.all(np.isfinite(f)) for f in feats):
        raise NonFiniteState(f"checkpoint {checkpoint} gives non-finite features")
    path = os.path.join(out_dir, "features.csv")
    with open(path, "w", newline="") as fh:
        fh.write(join_cells(["idx", "domain"] + [f"z{j}" for j in range(model.backbone.out_dim)]) + CSV_END)
        idx = 0
        for f, tag in zip(feats, (DOMAIN_IN, DOMAIN_OUT)):
            lead = [join_cells([i, tag]) for i in range(idx, idx + len(f))]
            write_csv_rows(fh, f, lead=lead)
            idx += len(f)
    print(f"wrote {idx} feature rows to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oodlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the experiment INI file")
        p.add_argument("--out", default=None, help="output directory (default: [output] dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        return p

    add("gen-data", "write the train/eval in/out CSV files")
    add("simulate-shift", "run the trainable-feature drift simulation")
    add("demo-false-likelihood", "find a pair the linear score and likelihood rank oppositely")
    add("train", "train backbone + head under the configured criterion")
    sweep = add("sweep-lambda", "train over a grid of criteria and gamma weights")
    sweep.add_argument("--gammas", default="1,3,5,7,9", help="comma-separated gamma values")
    sweep.add_argument("--criteria", default="oe,energy,ice", help="comma-separated criterion kinds")
    export = add("export-features", "dump penultimate-layer features for the eval sets")
    export.add_argument("--checkpoint", required=True, help="checkpoint file from a train run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed)
        out_dir = args.out if args.out is not None else config.output.directory
        _prepare_out(config, out_dir)
        if args.command == "gen-data":
            return cmd_gen_data(config, out_dir)
        if args.command == "simulate-shift":
            return cmd_simulate_shift(config, out_dir)
        if args.command == "demo-false-likelihood":
            return cmd_demo_false_likelihood(config, out_dir)
        if args.command == "train":
            return cmd_train(config, out_dir)
        if args.command == "sweep-lambda":
            gammas_raw = [part for part in args.gammas.split(",") if part.strip()]
            try:
                gammas = [float(part) for part in gammas_raw]
            except ValueError as exc:
                raise ConfigError(f"--gammas: {exc}") from exc
            if not all(map(math.isfinite, gammas)):
                raise ConfigError(f"--gammas must be finite, got {args.gammas!r}")
            kinds = [part.strip() for part in args.criteria.split(",") if part.strip()]
            return cmd_sweep_lambda(config, out_dir, gammas, kinds)
        if args.command == "export-features":
            return cmd_export_features(config, out_dir, args.checkpoint)
        raise AssertionError(args.command)
    except (ConfigError, NonFiniteState, MalformedData) as exc:
        print(f"{exc.LABEL}: {exc}", file=sys.stderr)
        return exc.EXIT_CODE
    except OSError as exc:
        print(f"{MalformedData.LABEL}: {exc}", file=sys.stderr)
        return MalformedData.EXIT_CODE
    except MemoryError as exc:  # a size in the config that no allocation can hold
        print(f"{ConfigError.LABEL}: {exc or 'out of memory'}", file=sys.stderr)
        return ConfigError.EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
