"""The three benchmark workloads: which CLI commands a pass runs, and on what.

Why these three (each one exercises a path the others bypass):

- ``train_ice``: ``train`` on configs/default.ini, then ``export-features``
  on its checkpoint. Gaussian head under the ICE criterion; the per-row
  criterion dispatch, the per-row ``ice_confidence`` scoring and the
  triangular solves do most of the work.
- ``train_plain``: ``gen-data`` on configs/train_plain.ini, then ``train``
  and ``export-features`` on a copy of that config whose ``[data] data_dir``
  points at the generated CSVs. Linear head, no outlier batch, MSP scoring:
  the bypass for Gaussian-head and ICE changes, and the only workload on the
  gda CSV write/read path.
- ``shift``: ``simulate-shift`` on configs/shift_ice.ini, then on
  configs/shift_oe.ini. No backbone, trainer or metrics code runs; criteria
  are reached from ``run_shift_sim``, and trajectory CSV writing is a large
  share, so I/O changes show only here.

``sweep-lambda`` is left out on purpose: it repeats the layers of both train
workloads fifteen times.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

NAMES = ("train_ice", "train_plain", "shift")


@dataclass(frozen=True)
class Workload:
    name: str
    root: str  # checkout holding src/ and configs/
    work: str  # scratch directory for this workload's outputs
    seed: int

    def config(self, filename: str) -> str:
        return os.path.join(self.root, "configs", filename)

    def out(self, sub: str) -> str:
        return os.path.join(self.work, sub)

    @property
    def train_config(self) -> str:
        """The config ``train`` and ``export-features`` read (train workloads)."""
        if self.name == "train_plain":
            return os.path.join(self.work, "train_plain.ini")
        return self.config("default.ini")

    @property
    def shift_configs(self) -> tuple[tuple[str, str], ...]:
        """(output subdirectory, config path) per simulation (shift workload)."""
        return (("shift_ice", self.config("shift_ice.ini")), ("shift_oe", self.config("shift_oe.ini")))

    @property
    def setup_config(self) -> str:
        return self.shift_configs[0][1] if self.name == "shift" else self.train_config

    def out_dirs(self) -> list[str]:
        if self.name == "shift":
            return [self.out(sub) for sub, _ in self.shift_configs]
        dirs = [self.out("train"), self.out("export")]
        return [self.out("data")] + dirs if self.name == "train_plain" else dirs

    def commands(self) -> list[list[str]]:
        """The CLI argument lists of one pass, in order."""
        seed = ["--seed", str(self.seed)]
        if self.name == "shift":
            return [["simulate-shift", "--config", path, "--out", self.out(sub)] + seed for sub, path in self.shift_configs]
        checkpoint = os.path.join(self.out("train"), "checkpoint.txt")
        cmds = [
            ["train", "--config", self.train_config, "--out", self.out("train")] + seed,
            ["export-features", "--config", self.train_config, "--out", self.out("export"), "--checkpoint", checkpoint] + seed,
        ]
        if self.name == "train_plain":
            cmds.insert(0, ["gen-data", "--config", self.config("train_plain.ini"), "--out", self.out("data")] + seed)
        return cmds

    def prepare(self) -> None:
        """Create the work directory; for train_plain, write the data_dir config copy."""
        os.makedirs(self.work, exist_ok=True)
        if self.name == "train_plain":
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            parser.read(self.config("train_plain.ini"))
            parser["data"]["data_dir"] = self.out("data")
            with open(self.train_config, "w") as fh:
                parser.write(fh)


def make(name: str, root: str, work: str, seed: int) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, root, work, seed)


def shift_data(config):
    """The shift workload's data as ``simulate-shift`` builds it: the bank and its fitted GDA model."""
    from oodlab.gda import fit_gda
    from oodlab.seeding import component_seed
    from oodlab.shiftsim import make_shift_bank

    d, s = config.data, config.shift
    bank = make_shift_bank(d.mu, d.zeta, s.n_in, s.n_out, component_seed(d.seed, "shift_bank"), dims=d.dims)
    return bank, fit_gda(bank)


def sgd_work(bound: dict) -> tuple[int, int]:
    """(steps, rows) one ``trainer.train`` call consumes, from its arguments.

    Follows the trainer's protocol: each epoch walks every in-distribution
    row once in ``batch_in`` chunks, and each step draws ``batch_out``
    outliers when the criterion trains on outliers with a positive weight.
    """
    config, n_in = bound["config"], len(bound["train_in"])
    steps = config.epochs * math.ceil(n_in / config.batch_in)
    use_out = config.criterion.kind != "plain" and config.outlier_weight > 0.0
    return steps, config.epochs * n_in + (steps * config.batch_out if use_out else 0)


def shift_work(bound: dict) -> tuple[int, int]:
    """(steps, rows) one ``run_shift_sim`` call descends: every bank row, every step."""
    steps = int(bound["steps"])
    return steps, steps * len(bound["bank"])
